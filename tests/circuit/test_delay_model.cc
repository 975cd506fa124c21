#include <gtest/gtest.h>

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
    // path: the voltage sensitivity at nominal must be around 0.5/V.
    const double sens = model_.sensitivityPerVolt(kVddNominal,
                                                  kTempNominal);
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

TEST_F(DelayModelTest, DerivativeMatchesFiniteDifference)
{
    const double v = 1.2, t = 50.0, h = 1e-6;
    const double analytic = model_.dFactorDv(Volts{v}, Celsius{t});
    const double numeric = (model_.factor(Volts{v + h}, Celsius{t})
                            - model_.factor(Volts{v - h}, Celsius{t}))
                         / (2 * h);
    EXPECT_NEAR(analytic, numeric, 1e-6);
}

TEST_F(DelayModelTest, InversionRoundTrips)
{
    for (double v : {1.05, 1.15, 1.25, 1.35}) {
        const double f = model_.factor(Volts{v}, kTempNominal);
        EXPECT_NEAR(model_.voltageForFactor(f, kTempNominal).value(), v,
                    1e-8);
    }
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

TEST_F(DelayModelTest, RejectsBadFactorTarget)
{
    EXPECT_THROW(model_.voltageForFactor(0.0, Celsius{45.0}),
                 util::FatalError);
}

} // namespace
} // namespace atmsim::circuit
