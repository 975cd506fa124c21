#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

    EXPECT_DOUBLE_EQ(campaign.nextEdgeNs(), 1000.0);
    campaign.collectActivations(0.0, out);
    EXPECT_TRUE(out.empty());

    campaign.collectActivations(1000.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_DOUBLE_EQ(campaign.nextEdgeNs(), 2000.0); // its expiry

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
    EXPECT_DOUBLE_EQ(campaign.nextEdgeNs(), 4000.0);

    out.clear();
    campaign.collectExpirations(4000.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(campaign.nextEdgeNs(), kInf); // every fault is done
}

TEST(FaultCampaignTest, PermanentFaultExpiresOnlyAtInfinity)
{
    FaultCampaign campaign = FaultCampaign::parse("dropout:core=3");
    campaign.reset();
    std::vector<std::size_t> out;
    campaign.collectActivations(0.0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(campaign.nextEdgeNs(), kInf);
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
    EXPECT_EQ(campaign.nextEdgeNs(), kInf);
    campaign.reset();
    EXPECT_DOUBLE_EQ(campaign.nextEdgeNs(), 0.0);
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
    EXPECT_EQ(campaign.spec(0).kind, FaultKind::CpmStuckAt);
    EXPECT_DOUBLE_EQ(campaign.spec(1).magnitude, 6.0);
    // Each spec formats back to its own text, so the ';'-joined
    // formats replay the same campaign.
    const FaultCampaign back =
        FaultCampaign::parse(campaign.spec(0).format() + ';'
                             + campaign.spec(1).format());
    EXPECT_EQ(back.specs(), campaign.specs());
    EXPECT_EQ(campaign.spec(0).format(),
              "cpm-stuck:core=2,start=1,dur=3,mag=12");
    EXPECT_TRUE(FaultCampaign::parse("").empty());
    EXPECT_TRUE(FaultCampaign::parse(";;").empty());
}

TEST(FaultCampaignTest, ValidateCoversEverySpec)
{
    FaultCampaign campaign =
        FaultCampaign::parse("dropout:core=0;dropout:core=12");
    EXPECT_THROW(campaign.validate(8), util::FatalError);
    EXPECT_THROW(campaign.spec(5), util::FatalError);
}

TEST(FaultCampaignTest, ValidateBoundsTheSummedThermalOffset)
{
    // Each offset alone is legal; the overlay adds the overlap.
    const auto validate = [](const char *text) {
        FaultCampaign::parse(text).validate(8);
    };
    EXPECT_THROW(validate("thermal:core=2,start=1,dur=5,mag=-200;"
                          "thermal:core=2,start=2,dur=3,mag=-200"),
                 util::FatalError);
    // Permanent faults overlap everything after their start.
    EXPECT_THROW(validate("thermal:core=2,start=4,mag=-200;"
                          "thermal:core=2,start=1,mag=-200"),
                 util::FatalError);
    // The sum can fall at an end: a positive offset expiring under a
    // longer negative one.
    EXPECT_THROW(validate("thermal:core=2,start=0,dur=5,mag=100;"
                          "thermal:core=2,start=1,dur=9,mag=-300"),
                 util::FatalError);
    // Back to back (half-open windows), other cores and other kinds
    // never add.
    EXPECT_NO_THROW(validate("thermal:core=2,start=1,dur=1,mag=-200;"
                             "thermal:core=2,start=2,dur=3,mag=-200"));
    EXPECT_NO_THROW(validate("thermal:core=2,start=1,dur=5,mag=-200;"
                             "thermal:core=3,start=2,dur=3,mag=-200"));
    EXPECT_NO_THROW(validate("thermal:core=2,start=1,dur=5,mag=-200;"
                             "thermal:core=2,start=2,dur=3,mag=100;"
                             "thermal:core=2,start=2,dur=3,mag=-150"));
    EXPECT_NO_THROW(validate("thermal:core=2,start=1,dur=5,mag=-200;"
                             "droop-storm:core=2,start=2,dur=3,mag=1"));
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

TEST_F(FaultInjectorTest, SameKindCpmFaultsNestOnOneSite)
{
    // Reverting the inner of two stuck faults on one site must put the
    // outer one back; reverting the outer one leaves the site healthy.
    const cpm::Cpm &site = chip_.core(2).cpmBank().site(0);
    const FaultSpec outer =
        FaultSpec::parse("cpm-stuck:core=2,site=0,start=1,dur=6,mag=12");
    const FaultSpec inner =
        FaultSpec::parse("cpm-stuck:core=2,site=0,start=2,dur=1,mag=24");
    injector_.apply(outer);
    injector_.apply(inner);
    ASSERT_TRUE(site.stuckActive());
    EXPECT_EQ(site.stuckOutputCount(), 24);
    injector_.revert(inner);
    ASSERT_TRUE(site.stuckActive());
    EXPECT_EQ(site.stuckOutputCount(), 12);
    injector_.revert(outer);
    EXPECT_FALSE(site.stuckActive());
    EXPECT_FALSE(site.faulted());

    // The same for skipped segments, reverted outer first.
    const FaultSpec skip_outer =
        FaultSpec::parse("cpm-skip:core=2,site=0,start=1,dur=6,mag=2");
    const FaultSpec skip_inner =
        FaultSpec::parse("cpm-skip:core=2,site=0,start=2,dur=1,mag=5");
    injector_.apply(skip_outer);
    injector_.apply(skip_inner);
    injector_.revert(skip_outer);
    EXPECT_EQ(site.faults().skippedSegments, 5);
    injector_.revert(skip_inner);
    EXPECT_FALSE(site.faulted());
}

TEST_F(FaultInjectorTest, RestoresEverythingWhenItGoesOutOfScope)
{
    const double speed = chip_.core(3).silicon().speedFactor;
    {
        FaultInjector scoped(&chip_);
        scoped.apply(FaultSpec::parse("aging-jump:core=3,mag=0.07"));
        scoped.apply(FaultSpec::parse("thermal:core=3,mag=12.5"));
        scoped.apply(FaultSpec::parse("vrm-step:core=-1,mag=4"));
        scoped.apply(FaultSpec::parse("dropout:core=3"));
        scoped.apply(FaultSpec::parse("cpm-skip:core=3,site=2,mag=3"));
        EXPECT_TRUE(chip_.sensorDropout(3));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  chip_.core(3).silicon().speedFactor),
              std::bit_cast<std::uint64_t>(speed));
    EXPECT_DOUBLE_EQ(chip_.thermal().faultOffsetC(3).value(), 0.0);
    EXPECT_DOUBLE_EQ(chip_.pdn().faultCurrentA().value(), 0.0);
    EXPECT_FALSE(chip_.sensorDropout(3));
    EXPECT_FALSE(chip_.core(3).cpmBank().site(2).faulted());
}

TEST_F(FaultInjectorTest, RevertOfAnInactiveFaultPanics)
{
    const FaultSpec spec = FaultSpec::parse("dropout:core=1");
    EXPECT_THROW(injector_.revert(spec), util::PanicError);
    injector_.apply(spec);
    injector_.revert(spec);
    EXPECT_THROW(injector_.revert(spec), util::PanicError);
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
    // Bit for bit on every core: a jump scales the speed factor by
    // exactly (1 + mag), and its revert restores the saved factor
    // (dividing by 1 + mag leaves some cores an ulp off).
    const auto bits = [&](int core) {
        return std::bit_cast<std::uint64_t>(
            chip_.core(core).silicon().speedFactor);
    };
    for (int core = 0; core < chip_.coreCount(); ++core) {
        for (int k = 0; k < 6; ++k) {
            const double mag = 0.01 + 0.018 * k;
            const double before = chip_.core(core).silicon().speedFactor;
            const std::uint64_t before_bits = bits(core);
            FaultSpec spec;
            spec.kind = FaultKind::AgingJump;
            spec.core = core;
            spec.magnitude = mag;
            injector_.apply(spec);
            EXPECT_EQ(bits(core),
                      std::bit_cast<std::uint64_t>(before * (1.0 + mag)))
                << "core " << core << ", mag " << mag;
            injector_.revert(spec);
            EXPECT_EQ(bits(core), before_bits)
                << "core " << core << ", mag " << mag;
        }
    }
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
