#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/constants.h"
#include "circuit/delay_model.h"
#include "util/logging.h"

namespace atmsim::circuit {
namespace {

using util::Celsius;
using util::Volts;

class DelayModelTest : public ::testing::Test
{
  protected:
    DelayModel model_ = DelayModel::makeDefault();
};

TEST_F(DelayModelTest, UnityAtNominalPoint)
{
    EXPECT_NEAR(model_.factor(kVddNominal, kTempNominal), 1.0, 1e-12);
}

TEST_F(DelayModelTest, NominalSupplyFactorIsFactorAtNominalBitwise)
{
    // The safety monitor's phantom-margin bound relies on this being
    // exact, not close: its verdicts feed the golden digests.
    for (double t = -20.0; t <= 150.0; t += 0.37) {
        EXPECT_EQ(model_.nominalSupplyFactor(Celsius{t}),
                  model_.factor(model_.vNominal(), Celsius{t}))
            << t << " C";
    }
}

TEST_F(DelayModelTest, DelayGrowsAsVoltageDrops)
{
    const double at_nominal = model_.factor(kVddNominal, kTempNominal);
    const double at_droop = model_.factor(kVddNominal - Volts{0.05},
                                          kTempNominal);
    EXPECT_GT(at_droop, at_nominal);
}

TEST_F(DelayModelTest, MonotoneInVoltage)
{
    double prev = model_.factor(Volts{0.9}, kTempNominal);
    for (double v = 0.95; v <= 1.40; v += 0.05) {
        const double f = model_.factor(Volts{v}, kTempNominal);
        EXPECT_LT(f, prev) << "at " << v;
        prev = f;
    }
}

TEST_F(DelayModelTest, SensitivityMagnitudeMatchesPaperScale)
{
    // ~20-60 mV corresponds to 1-3 CPM steps of ~2 ps on a ~210 ps
    // path: the voltage sensitivity -d(ln f)/dV at nominal must be
    // around 0.5/V.
    const double h = 1e-6;
    const double f = model_.factor(kVddNominal, kTempNominal);
    const double sens = (model_.factor(kVddNominal - Volts{h}, kTempNominal)
                         - model_.factor(kVddNominal + Volts{h},
                                         kTempNominal))
                      / (2.0 * h) / f;
    EXPECT_GT(sens, 0.3);
    EXPECT_LT(sens, 0.9);
}

TEST_F(DelayModelTest, TemperatureIncreasesDelayWeakly)
{
    const double hot = model_.factor(kVddNominal, Celsius{70.0});
    const double cold = model_.factor(kVddNominal, Celsius{45.0});
    EXPECT_GT(hot, cold);
    // Paper: temperature has only a modest effect.
    EXPECT_LT(hot / cold, 1.02);
}

TEST_F(DelayModelTest, RejectsSubThresholdVoltage)
{
    EXPECT_THROW(model_.factor(Volts{0.2}, kTempNominal),
                 util::FatalError);
    EXPECT_THROW(model_.factor(kVth, kTempNominal), util::FatalError);
}

TEST_F(DelayModelTest, RejectsBadConstruction)
{
    EXPECT_THROW(DelayModel(Volts{0.5}, 1.3, Volts{0.4}, Celsius{45.0},
                            0.0),
                 util::FatalError);
}

/** Voltages the bracket must hold at: every grid node and the doubles
 *  either side of it, both grid ends, points just off the grid, and a
 *  dense sweep in between. */
std::vector<double>
bracketSweep()
{
    std::vector<double> volts;
    const double h = 1.0 / DelayModel::kGridNodesPerVolt;
    for (std::size_t i = 0; i <= DelayModel::kGridIntervals; ++i) {
        const double node =
            DelayModel::kGridLoV + static_cast<double>(i) * h;
        volts.push_back(std::nextafter(node, 0.0));
        volts.push_back(node);
        volts.push_back(std::nextafter(node, 2.0));
    }
    for (double v = 0.45; v < 1.55; v += 0.5 * h / 7.0)
        volts.push_back(v);
    for (double v : {0.36, 0.4, 0.499, 1.501, 1.6, 2.0})
        volts.push_back(v);
    return volts;
}

TEST_F(DelayModelTest, BracketContainsFactor)
{
    const std::vector<double> volts = bracketSweep();
    long on_grid = 0;
    for (double t = -40.0; t <= 150.0; t += 9.5) {
        const Celsius temp{t};
        for (const double v : volts) {
            const double f = model_.factor(Volts{v}, temp);
            const FactorBracket b = model_.factorBracket(Volts{v}, temp);
            ASSERT_LE(b.lo, f) << "v=" << v << " t=" << t;
            ASSERT_GE(b.hi, f) << "v=" << v << " t=" << t;
            if (v >= DelayModel::kGridLoV && v < DelayModel::kGridHiV) {
                // Narrow enough that the engine's counts split only
                // on a near tie.
                ASSERT_LT(b.hi - b.lo, 2e-5 * f) << "v=" << v;
                ++on_grid;
            } else {
                ASSERT_EQ(b.lo, f) << "v=" << v;
                ASSERT_EQ(b.hi, f) << "v=" << v;
            }
        }
    }
    EXPECT_GT(on_grid, 0);
}

TEST_F(DelayModelTest, BracketKeepsTheSubThresholdFatal)
{
    EXPECT_THROW((void)model_.factorBracket(Volts{0.2}, kTempNominal),
                 util::FatalError);
    EXPECT_THROW((void)model_.factorBracket(kVth, kTempNominal),
                 util::FatalError);
}

TEST_F(DelayModelTest, GeneralConstructorIsExactOnly)
{
    // Same parameters, no table: the same factor bits, and every
    // bracket is the exact factor.
    const DelayModel plain(kVth, kAlpha, kVddNominal, kTempNominal,
                           kTempDelayCoeffPerC);
    for (double t : {-40.0, 45.0, 150.0}) {
        for (double v = 0.45; v < 1.55; v += 0.0037) {
            const double f = model_.factor(Volts{v}, Celsius{t});
            ASSERT_EQ(plain.factor(Volts{v}, Celsius{t}), f);
            const FactorBracket b = plain.factorBracket(Volts{v}, Celsius{t});
            ASSERT_EQ(b.lo, f);
            ASSERT_EQ(b.hi, f);
        }
    }
}

} // namespace
} // namespace atmsim::circuit
