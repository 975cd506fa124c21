#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "circuit/constants.h"
#include "cpm/cpm_bank.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/units.h"
#include "variation/calibration.h"

namespace atmsim::cpm {
namespace {

using util::Celsius;
using util::CpmSteps;
using util::Picoseconds;
using util::Volts;

class CpmBankTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        util::Rng rng(23);
        variation::CoreLimitTargets targets;
        targets.idle = 8;
        targets.ubench = 7;
        targets.normal = 6;
        targets.worst = 4;
        targets.idleLimitMhz = 5050.0;
        core_ = variation::buildCoreFromTargets("T0C1", targets, 12, 0.98,
                                                rng);
        model_ = std::make_unique<circuit::DelayModel>(
            circuit::DelayModel::makeDefault());
    }

    /** The engine's scan of `bank` at (v, t). */
    int worstCount(const CpmBank &bank, Picoseconds period, Volts v,
                   Celsius t) const
    {
        return bank.worstCount(period.value(), model_->factor(v, t));
    }

    variation::CoreSiliconParams core_;
    std::unique_ptr<circuit::DelayModel> model_;
};

TEST_F(CpmBankTest, HasFiveSites)
{
    const CpmBank bank(&core_, model_.get());
    EXPECT_EQ(bank.siteCount(),
              static_cast<std::size_t>(circuit::kCpmSitesPerCore));
}

TEST_F(CpmBankTest, SiteZeroControls)
{
    // The worst (largest) monitored delay must always come from the
    // controlling site 0, at every legal reduction.
    CpmBank bank(&core_, model_.get());
    const auto delay = [&](int s) {
        return bank.site(s).monitoredDelayPs(Volts{1.25}, Celsius{45.0});
    };
    for (int k = 0; k <= core_.presetSteps; ++k) {
        bank.setReduction(CpmSteps{k});
        for (int s = 1; s < static_cast<int>(bank.siteCount()); ++s)
            EXPECT_LE(delay(s), delay(0)) << "reduction " << k;
    }
}

TEST_F(CpmBankTest, ReductionRaisesWorstCount)
{
    CpmBank bank(&core_, model_.get());
    const Picoseconds period = util::periodOf(util::Mhz{4600.0});
    const int at_preset =
        worstCount(bank, period, Volts{1.25}, Celsius{45.0});
    bank.setReduction(CpmSteps{4});
    EXPECT_GT(worstCount(bank, period, Volts{1.25}, Celsius{45.0}),
              at_preset);
}

TEST_F(CpmBankTest, WorstCountDropsUnderDroop)
{
    CpmBank bank(&core_, model_.get());
    bank.setReduction(CpmSteps{4});
    // Pick the period where the loop would sit, then droop.
    const Picoseconds period = core_.atmPeriodPs(CpmSteps{4}, 1.0);
    const int healthy =
        worstCount(bank, period, Volts{1.25}, Celsius{45.0});
    const int drooped =
        worstCount(bank, period, Volts{1.19}, Celsius{45.0});
    EXPECT_LT(drooped, healthy);
}

TEST_F(CpmBankTest, WorstCountIsSiteMinimum)
{
    // The bank scan must report exactly the smallest per-site output
    // count, stuck sites included.
    CpmBank bank(&core_, model_.get());
    bank.setReduction(CpmSteps{4});
    const Picoseconds period = core_.atmPeriodPs(CpmSteps{4}, 1.0);
    const auto site_min = [&](Volts v) {
        int worst = bank.site(0).outputCount(period, v, Celsius{45.0});
        for (int s = 1; s < static_cast<int>(bank.siteCount()); ++s)
            worst = std::min(
                worst, bank.site(s).outputCount(period, v, Celsius{45.0}));
        return worst;
    };
    for (const double v : {1.25, 1.19, 1.10}) {
        EXPECT_EQ(worstCount(bank, period, Volts{v}, Celsius{45.0}),
                  site_min(Volts{v}))
            << v << " V";
    }
    bank.setFaults(3, {.stuckCount = 0});
    EXPECT_EQ(worstCount(bank, period, Volts{1.25}, Celsius{45.0}), 0);
    EXPECT_EQ(site_min(Volts{1.25}), 0);
}

TEST_F(CpmBankTest, ProbeKernelMatchesPerSiteOutputCount)
{
    // The bank's stuck-sensor probe must give the same verdict as
    // per-site Cpm::outputCount at both probe periods.
    CpmBank bank(&core_, model_.get());
    bank.setReduction(CpmSteps{4});
    const Celsius t{45.0};
    const int length = bank.site(0).chain().length();
    const auto kernel = [&](Picoseconds slow, Picoseconds fast, Volts v) {
        return bank.probeInsensitive(slow.value(), fast.value(),
                                     model_->factor(v, t));
    };
    const auto objects = [&](Picoseconds slow, Picoseconds fast, Volts v) {
        for (int s = 0; s < static_cast<int>(bank.siteCount()); ++s) {
            const int a = bank.site(s).outputCount(slow, v, t);
            const int b = bank.site(s).outputCount(fast, v, t);
            if (a == b && a > 0)
                return true;
        }
        return false;
    };
    const Picoseconds loop = core_.atmPeriodPs(CpmSteps{4}, 1.0);
    bool saw_saturated = false;
    bool saw_negative = false;
    const auto check = [&](const char *what) {
        for (const double v : {1.25, 1.10}) {
            for (const double scale : {0.3, 0.7, 1.0, 1.3, 2.0, 4.0}) {
                const Picoseconds slow = loop * (scale * 1.05);
                const Picoseconds fast = loop * (scale * 0.8);
                EXPECT_EQ(kernel(slow, fast, Volts{v}),
                          objects(slow, fast, Volts{v}))
                    << what << " at " << v << " V, scale " << scale;
                saw_saturated |=
                    bank.site(0).outputCount(slow, Volts{v}, t) == length;
                saw_negative |=
                    fast < bank.site(0).monitoredDelayPs(Volts{v}, t);
            }
        }
    };
    check("healthy");
    EXPECT_TRUE(saw_saturated);
    EXPECT_TRUE(saw_negative);
    EXPECT_FALSE(kernel(loop * 1.05, loop * 0.8, Volts{1.25}));

    bank.setFaults(2, {.stuckCount = 0});
    check("stuck at 0");
    bank.setFaults(2, {.stuckCount = 9});
    check("stuck at 9");
    EXPECT_TRUE(kernel(loop * 1.05, loop * 0.8, Volts{1.25}));
}

TEST_F(CpmBankTest, BracketedCountsMatchTheExactCount)
{
    // The engine's factor filter: over random voltages, temperatures,
    // aged speed factors and faults, the counts at the two ends of a
    // factor bracket enclose worstCount at the exact factor, counts
    // that agree equal it, and a decided probe verdict is the exact
    // one. Half the periods are random; the other half put site 0's
    // exact slack within a hair of a quantizer step, where the
    // bracket is most likely to split.
    CpmBank bank(&core_, model_.get());
    bank.setReduction(CpmSteps{4});
    util::Rng rng(0xB7AC);
    long agreed = 0, split = 0, decided = 0, undecided = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        core_.speedFactor = rng.uniform(0.97, 1.08);
        for (int s = 0; s < static_cast<int>(bank.siteCount()); ++s)
            bank.setFaults(s, {});
        const int faulty = 1 + static_cast<int>(rng.below(4));
        if (trial % 3 == 1)
            bank.setFaults(faulty, {.stuckCount = static_cast<int>(
                                        rng.below(12))});
        else if (trial % 3 == 2)
            bank.setFaults(faulty, {.stuckCount = std::nullopt,
                                    .skippedSegments = 2});
        const Volts v{rng.uniform(0.5, 1.5)};
        const Celsius t{rng.uniform(-40.0, 150.0)};
        const double f = model_->factor(v, t);
        const circuit::FactorBracket b = model_->factorBracket(v, t);

        double period = rng.uniform(100.0, 400.0);
        if (trial % 2 == 1) {
            const Cpm &site = bank.site(0);
            const double speed = core_.speedFactor;
            const double step = site.chain().stepPs().value() * (f * speed);
            period = site.nominalPs() * speed * f
                   + static_cast<double>(rng.below(16)) * step
                   + rng.uniform(-1e-4, 1e-4);
        }
        const CountBracket counts = bank.worstCountBracket(period, b);
        const int exact = bank.worstCount(period, f);
        ASSERT_LE(counts.atHi, exact) << "trial " << trial;
        ASSERT_GE(counts.atLo, exact) << "trial " << trial;
        if (counts.atHi == counts.atLo) {
            ASSERT_EQ(counts.atHi, exact) << "trial " << trial;
            ++agreed;
        } else {
            ++split;
        }

        const double fast = period * 0.76;
        const std::optional<bool> verdict =
            bank.probeInsensitiveBracket(period, fast, b);
        if (verdict.has_value()) {
            ASSERT_EQ(*verdict, bank.probeInsensitive(period, fast, f))
                << "trial " << trial;
            ++decided;
        } else {
            ++undecided;
        }
    }
    EXPECT_GT(agreed, 0);
    EXPECT_GT(split, 0);
    EXPECT_GT(decided, 0);
    EXPECT_GT(undecided, 0);
}

TEST_F(CpmBankTest, ReductionValidation)
{
    CpmBank bank(&core_, model_.get());
    EXPECT_THROW(bank.setReduction(CpmSteps{-1}), util::FatalError);
    EXPECT_THROW(bank.setReduction(CpmSteps{core_.presetSteps + 1}),
                 util::FatalError);
    EXPECT_NO_THROW(bank.setReduction(CpmSteps{core_.presetSteps}));
}

TEST_F(CpmBankTest, SiteAccessChecked)
{
    const CpmBank bank(&core_, model_.get());
    EXPECT_THROW(bank.site(-1), util::FatalError);
    EXPECT_THROW(bank.site(5), util::FatalError);
    EXPECT_NO_THROW(bank.site(4));
}

} // namespace
} // namespace atmsim::cpm
