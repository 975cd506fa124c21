#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "circuit/constants.h"
#include "cpm/cpm_bank.h"
#include "util/logging.h"
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
