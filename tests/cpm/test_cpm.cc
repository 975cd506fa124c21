#include <gtest/gtest.h>

#include <memory>

#include "circuit/constants.h"
#include "cpm/cpm.h"
#include "util/logging.h"
#include "util/units.h"
#include "variation/calibration.h"

namespace atmsim::cpm {
namespace {

using util::Celsius;
using util::CpmSteps;
using util::Picoseconds;
using util::Volts;

class CpmTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        util::Rng rng(11);
        variation::CoreLimitTargets targets;
        targets.idle = 7;
        targets.ubench = 6;
        targets.normal = 5;
        targets.worst = 4;
        targets.idleLimitMhz = 5000.0;
        core_ = variation::buildCoreFromTargets("T0C0", targets, 11, 1.0,
                                                rng);
        model_ = std::make_unique<circuit::DelayModel>(
            circuit::DelayModel::makeDefault());
    }

    variation::CoreSiliconParams core_;
    std::unique_ptr<circuit::DelayModel> model_;
};

TEST_F(CpmTest, DefaultConfigIsPresetPlusOffset)
{
    const Cpm site0(&core_, model_.get(), 0);
    EXPECT_EQ(site0.configSteps().value(), core_.presetSteps);
    const Cpm site1(&core_, model_.get(), 1);
    EXPECT_EQ(site1.configSteps().value(),
              core_.presetSteps + core_.siteOffsets[1]);
}

TEST_F(CpmTest, MonitoredDelayGrowsWithConfig)
{
    Cpm cpm(&core_, model_.get(), 0);
    const Picoseconds at_preset =
        cpm.monitoredDelayPs(Volts{1.25}, Celsius{45.0});
    cpm.setConfigSteps(CpmSteps{core_.presetSteps - 3});
    EXPECT_LT(cpm.monitoredDelayPs(Volts{1.25}, Celsius{45.0}),
              at_preset);
}

TEST_F(CpmTest, MonitoredDelayGrowsAsVoltageDrops)
{
    const Cpm cpm(&core_, model_.get(), 0);
    EXPECT_GT(cpm.monitoredDelayPs(Volts{1.18}, Celsius{45.0}),
              cpm.monitoredDelayPs(Volts{1.25}, Celsius{45.0}));
}

TEST_F(CpmTest, SlackAndOutputConsistent)
{
    const Cpm cpm(&core_, model_.get(), 0);
    const Picoseconds period = util::periodOf(util::Mhz{4600.0});
    const double slack =
        (period - cpm.monitoredDelayPs(Volts{1.25}, Celsius{45.0})).value();
    // At the preset and the default ATM frequency, slack is near the
    // DPLL target (6 ps).
    EXPECT_NEAR(slack, circuit::kDpllTargetSlack.value(), 1.0);
    EXPECT_EQ(cpm.outputCount(period, Volts{1.25}, Celsius{45.0}),
              static_cast<int>(slack / circuit::kInverterStep.value()));
}

TEST_F(CpmTest, NegativeSlackReportsZero)
{
    const Cpm cpm(&core_, model_.get(), 0);
    EXPECT_EQ(
        cpm.outputCount(Picoseconds{150.0}, Volts{1.25}, Celsius{45.0}),
        0);
}

TEST_F(CpmTest, ConfigRangeChecked)
{
    Cpm cpm(&core_, model_.get(), 0);
    EXPECT_THROW(cpm.setConfigSteps(CpmSteps{-1}), util::FatalError);
    EXPECT_THROW(
        cpm.setConfigSteps(core_.maxConfig() + CpmSteps{1}),
        util::FatalError);
}

TEST_F(CpmTest, SiteIndexChecked)
{
    EXPECT_THROW(Cpm(&core_, model_.get(), 5), util::FatalError);
}

TEST(CpmSiteNames, AllNamed)
{
    EXPECT_STREQ(cpmSiteName(CpmSite::Ifu), "IFU");
    EXPECT_STREQ(cpmSiteName(CpmSite::Llc), "LLC");
}

} // namespace
} // namespace atmsim::cpm
