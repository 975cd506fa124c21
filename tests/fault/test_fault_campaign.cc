#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "chip/chip.h"
#include "fault/fault_campaign.h"
#include "fault/fault_injector.h"
#include "util/logging.h"
#include "variation/reference_chips.h"

namespace atmsim::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultCampaignTest, ActivationsAndExpirationsFireOnce)
{
    FaultCampaign campaign =
        FaultCampaign::parse("dropout:core=0,start=1,dur=1;"
                             "thermal:core=1,start=2,dur=2,mag=8");
    campaign.reset();
    std::vector<std::size_t> out;

    campaign.collectActivations(0.0, out);
    EXPECT_TRUE(out.empty());

    campaign.collectActivations(1000.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_TRUE(campaign.anyActive());

    out.clear();
    campaign.collectActivations(1500.0, out); // already fired
    EXPECT_TRUE(out.empty());

    campaign.collectExpirations(1999.0, out);
    EXPECT_TRUE(out.empty());
    campaign.collectExpirations(2000.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);

    out.clear();
    campaign.collectActivations(2000.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1u);
    EXPECT_FALSE(campaign.allDone());

    out.clear();
    campaign.collectExpirations(4000.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(campaign.allDone());
    EXPECT_FALSE(campaign.anyActive());
}

TEST(FaultCampaignTest, PermanentFaultExpiresOnlyAtInfinity)
{
    FaultCampaign campaign = FaultCampaign::parse("dropout:core=3");
    campaign.reset();
    std::vector<std::size_t> out;
    campaign.collectActivations(0.0, out);
    ASSERT_EQ(out.size(), 1u);
    out.clear();
    campaign.collectExpirations(1e12, out);
    EXPECT_TRUE(out.empty());
    campaign.collectExpirations(kInf, out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(FaultCampaignTest, ResetRearmsEveryFault)
{
    FaultCampaign campaign = FaultCampaign::parse("dropout:core=0,dur=1");
    campaign.reset();
    std::vector<std::size_t> out;
    campaign.collectActivations(0.0, out);
    campaign.collectExpirations(kInf, out);
    EXPECT_TRUE(campaign.allDone());
    campaign.reset();
    EXPECT_FALSE(campaign.allDone());
    out.clear();
    campaign.collectActivations(0.0, out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(FaultCampaignTest, FormatParseRoundTrip)
{
    const std::string text = "cpm-stuck:core=2,start=1,dur=3,mag=12;"
                             "vrm-step:core=-1,start=2,mag=6";
    const FaultCampaign campaign = FaultCampaign::parse(text);
    ASSERT_EQ(campaign.size(), 2u);
    const FaultCampaign back = FaultCampaign::parse(campaign.format());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.spec(0).kind, FaultKind::CpmStuckAt);
    EXPECT_DOUBLE_EQ(back.spec(1).magnitude, 6.0);
    EXPECT_TRUE(FaultCampaign::parse("").empty());
}

TEST(FaultCampaignTest, ValidateCoversEverySpec)
{
    FaultCampaign campaign =
        FaultCampaign::parse("dropout:core=0;dropout:core=12");
    EXPECT_THROW(campaign.validate(8), util::FatalError);
    EXPECT_THROW(campaign.spec(5), util::FatalError);
}

class FaultInjectorTest : public ::testing::Test
{
  protected:
    FaultInjectorTest()
        : chip_(variation::makeReferenceChip(0)), injector_(&chip_)
    {
    }

    chip::Chip chip_;
    FaultInjector injector_;
};

TEST_F(FaultInjectorTest, CpmFaultsApplyAndRevert)
{
    const FaultSpec stuck =
        FaultSpec::parse("cpm-stuck:core=1,site=0,mag=9");
    injector_.apply(stuck);
    EXPECT_TRUE(chip_.core(1).cpmBank().site(0).faulted());
    EXPECT_EQ(chip_.core(1).cpmBank().site(0).outputCount(
                  util::Picoseconds{210.0}, util::Volts{1.25},
                  util::Celsius{40.0}),
              9);
    EXPECT_EQ(injector_.activeCount(), 1);
    injector_.revert(stuck);
    EXPECT_FALSE(chip_.core(1).cpmBank().site(0).faulted());
    EXPECT_EQ(injector_.activeCount(), 0);

    const FaultSpec skip =
        FaultSpec::parse("cpm-skip:core=1,site=1,mag=4");
    const double before = chip_.core(1)
                              .cpmBank()
                              .site(1)
                              .monitoredDelayPs(util::Volts{1.25},
                                                util::Celsius{40.0})
                              .value();
    injector_.apply(skip);
    EXPECT_LT(chip_.core(1)
                  .cpmBank()
                  .site(1)
                  .monitoredDelayPs(util::Volts{1.25},
                                    util::Celsius{40.0})
                  .value(),
              before);
    injector_.revert(skip);
    EXPECT_DOUBLE_EQ(chip_.core(1)
                         .cpmBank()
                         .site(1)
                         .monitoredDelayPs(util::Volts{1.25},
                                           util::Celsius{40.0})
                         .value(),
                     before);
}

TEST_F(FaultInjectorTest, CpmRevertLeavesOtherCpmFaults)
{
    // Reverting one CPM fault must undo that fault alone: another
    // site's fault, or the other kind on the same site, stays.
    const cpm::CpmBank &bank = chip_.core(2).cpmBank();
    const auto delay = [&](int site) {
        return bank.site(site)
            .monitoredDelayPs(util::Volts{1.25}, util::Celsius{40.0})
            .value();
    };
    const double healthy1 = delay(1);
    const FaultSpec stuck0 =
        FaultSpec::parse("cpm-stuck:core=2,site=0,start=1,dur=4,mag=12");
    const FaultSpec skip1 =
        FaultSpec::parse("cpm-skip:core=2,site=1,start=2,dur=6,mag=3");
    injector_.apply(stuck0);
    injector_.apply(skip1);
    const double skipped1 = delay(1);
    ASSERT_LT(skipped1, healthy1);
    injector_.revert(stuck0);
    EXPECT_FALSE(bank.site(0).stuckActive());
    EXPECT_DOUBLE_EQ(delay(1), skipped1);
    injector_.revert(skip1);
    EXPECT_DOUBLE_EQ(delay(1), healthy1);
    EXPECT_FALSE(bank.site(0).faulted());
    EXPECT_FALSE(bank.site(1).faulted());

    const FaultSpec stuck1 =
        FaultSpec::parse("cpm-stuck:core=2,site=1,mag=9");
    injector_.apply(stuck1);
    injector_.apply(skip1);
    injector_.revert(skip1);
    EXPECT_TRUE(bank.site(1).stuckActive());
    EXPECT_DOUBLE_EQ(delay(1), healthy1);
    injector_.apply(skip1);
    injector_.revert(stuck1);
    EXPECT_FALSE(bank.site(1).stuckActive());
    EXPECT_DOUBLE_EQ(delay(1), skipped1);
}

TEST_F(FaultInjectorTest, SensorDropoutTogglesDpll)
{
    const FaultSpec spec = FaultSpec::parse("dropout:core=4");
    injector_.apply(spec);
    EXPECT_TRUE(chip_.sensorDropout(4));
    injector_.revert(spec);
    EXPECT_FALSE(chip_.sensorDropout(4));
}

TEST_F(FaultInjectorTest, OverlappingDropoutsNest)
{
    // Reverting the inner fault must leave the outer one in force.
    const FaultSpec outer =
        FaultSpec::parse("dropout:core=2,start=1,dur=6");
    const FaultSpec inner =
        FaultSpec::parse("dropout:core=2,start=2,dur=1");
    injector_.apply(outer);
    injector_.apply(inner);
    injector_.revert(inner);
    EXPECT_TRUE(chip_.sensorDropout(2));
    injector_.revert(outer);
    EXPECT_FALSE(chip_.sensorDropout(2));
}

TEST_F(FaultInjectorTest, VrmLoadStepAccumulates)
{
    const FaultSpec spec = FaultSpec::parse("vrm-step:core=-1,mag=5");
    injector_.apply(spec);
    injector_.apply(spec);
    EXPECT_DOUBLE_EQ(chip_.pdn().faultCurrentA().value(), 10.0);
    injector_.revert(spec);
    injector_.revert(spec);
    EXPECT_DOUBLE_EQ(chip_.pdn().faultCurrentA().value(), 0.0);
}

TEST_F(FaultInjectorTest, AgingJumpScalesAndRestoresSilicon)
{
    const double before = chip_.core(2).silicon().speedFactor;
    const FaultSpec spec =
        FaultSpec::parse("aging-jump:core=2,mag=0.03");
    injector_.apply(spec);
    EXPECT_NEAR(chip_.core(2).silicon().speedFactor, before * 1.03,
                1e-12);
    injector_.revert(spec);
    EXPECT_NEAR(chip_.core(2).silicon().speedFactor, before, 1e-12);
}

TEST_F(FaultInjectorTest, ThermalExcursionOffsetsOneCore)
{
    const FaultSpec spec = FaultSpec::parse("thermal:core=5,mag=15");
    const double base = chip_.thermal().coreTempC(5).value();
    injector_.apply(spec);
    EXPECT_DOUBLE_EQ(chip_.thermal().coreTempC(5).value(),
                     base + 15.0);
    EXPECT_DOUBLE_EQ(chip_.thermal().faultOffsetC(4).value(), 0.0);
    injector_.revert(spec);
    EXPECT_DOUBLE_EQ(chip_.thermal().coreTempC(5).value(), base);
}

TEST_F(FaultInjectorTest, DroopStormIsResonantSquareWave)
{
    const FaultSpec spec =
        FaultSpec::parse("droop-storm:core=3,start=0,mag=2");
    EXPECT_FALSE(injector_.stormActive());
    injector_.apply(spec);
    ASSERT_TRUE(injector_.stormActive());
    const double period_ns = 1e9 / chip_.pdn().params().resonanceHz();
    EXPECT_DOUBLE_EQ(injector_.stormCurrentA(3, 0.1 * period_ns), 2.0);
    EXPECT_DOUBLE_EQ(injector_.stormCurrentA(3, 0.6 * period_ns), 0.0);
    EXPECT_DOUBLE_EQ(injector_.stormCurrentA(2, 0.1 * period_ns), 0.0);
    injector_.revert(spec);
    EXPECT_FALSE(injector_.stormActive());
}

TEST_F(FaultInjectorTest, DroopStormRevertRemovesThatStorm)
{
    // Two storms on one core with the same start: reverting the short
    // one must leave the long one flowing.
    const FaultSpec longer =
        FaultSpec::parse("droop-storm:core=1,start=1,dur=6,mag=1");
    const FaultSpec shorter =
        FaultSpec::parse("droop-storm:core=1,start=1,dur=2,mag=3");
    injector_.apply(longer);
    injector_.apply(shorter);
    const double period_ns = 1e9 / chip_.pdn().params().resonanceHz();
    const double burst_ns = longer.startNs() + 0.1 * period_ns;
    EXPECT_DOUBLE_EQ(injector_.stormCurrentA(1, burst_ns), 4.0);
    injector_.revert(shorter);
    EXPECT_DOUBLE_EQ(injector_.stormCurrentA(1, burst_ns), 1.0);
    injector_.revert(longer);
    EXPECT_FALSE(injector_.stormActive());
}

TEST_F(FaultInjectorTest, ApplyValidatesAgainstTheChip)
{
    EXPECT_THROW(injector_.apply(FaultSpec::parse("dropout:core=42")),
                 util::FatalError);
    EXPECT_THROW(FaultInjector(nullptr), util::PanicError);
}

} // namespace
} // namespace atmsim::fault
