#include <gtest/gtest.h>

#include "chip/chip.h"
#include "circuit/constants.h"
#include "fault/fault_campaign.h"
#include "sim/sim_engine.h"
#include "util/logging.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::sim {
namespace {

class SimEngineTest : public ::testing::Test
{
  protected:
    SimEngineTest() : chip_(variation::makeReferenceChip(0)) {}
    chip::Chip chip_;
};

TEST_F(SimEngineTest, IdleRunTracksSteadyState)
{
    SimEngine engine(&chip_);
    const RunResult result = engine.run(3.0);
    EXPECT_FALSE(result.failed());
    const chip::ChipSteadyState st = chip_.solveSteadyState();
    for (int c = 0; c < chip_.coreCount(); ++c) {
        // The quantized loop sits slightly below the analytic value.
        EXPECT_NEAR(result.meanFreqMhz(c), st.coreFreqMhz[c].value(),
                    45.0)
            << "core " << c;
    }
}

TEST_F(SimEngineTest, PowerAndVoltageReported)
{
    SimEngine engine(&chip_);
    const RunResult result = engine.run(2.0);
    EXPECT_GT(result.chipPowerW.mean(), 25.0);
    EXPECT_LT(result.chipPowerW.mean(), 60.0);
    EXPECT_GT(result.minGridV, 1.1);
    EXPECT_GT(result.maxCoreTempC, 25.0);
}

TEST_F(SimEngineTest, SafeReductionProducesNoViolations)
{
    // One step short of the idle limit must be robustly safe.
    const int idle_limit = variation::referenceTargets(0, 0).idle;
    chip_.core(0).setCpmReduction(util::CpmSteps{idle_limit - 1});
    SimConfig config;
    config.runNoisePs = 1.0;
    SimEngine engine(&chip_, config);
    const RunResult result = engine.run(3.0);
    EXPECT_FALSE(result.failed());
    chip_.core(0).setCpmReduction(util::CpmSteps{0});
}

TEST_F(SimEngineTest, DeepOverReductionViolatesQuickly)
{
    const int idle_limit = variation::referenceTargets(0, 0).idle;
    chip_.core(0).setCpmReduction(util::CpmSteps{idle_limit + 2});
    SimConfig config;
    config.runNoisePs = 1.2; // hostile end of the run-noise range
    SimEngine engine(&chip_, config);
    const RunResult result = engine.run(3.0);
    EXPECT_TRUE(result.failed());
    EXPECT_TRUE(result.stoppedEarly);
    EXPECT_EQ(result.violations.front().core, 0);
    EXPECT_GT(result.violations.front().deficitPs, 0.0);
    chip_.core(0).setCpmReduction(util::CpmSteps{0});
}

TEST_F(SimEngineTest, LoadedRunDropsFrequency)
{
    SimEngine idle_engine(&chip_);
    const RunResult idle = idle_engine.run(2.0);

    const auto &daxpy = workload::findWorkload("daxpy");
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.assignWorkload(c, &daxpy, 4);
    SimEngine loaded_engine(&chip_);
    const RunResult loaded = loaded_engine.run(2.0);
    chip_.clearAssignments();

    EXPECT_GT(loaded.chipPowerW.mean(), idle.chipPowerW.mean() + 40.0);
    for (int c = 0; c < chip_.coreCount(); ++c)
        EXPECT_LT(loaded.meanFreqMhz(c), idle.meanFreqMhz(c) - 60.0);
}

TEST_F(SimEngineTest, DidtEventsEngageTheLoop)
{
    const auto &x264 = workload::findWorkload("x264");
    chip_.assignWorkload(0, &x264);
    SimEngine engine(&chip_);
    const RunResult result = engine.run(5.0);
    chip_.clearAssignments();
    // x264's droops drive the margin below the emergency threshold;
    // the fast path must have engaged at least once.
    EXPECT_GT(result.coreStats[0].emergencies, 0);
    EXPECT_FALSE(result.failed()) << "reduction 0 must be safe";
}

class CountingObserver : public EngineObserver
{
  public:
    void
    onSample(util::Nanoseconds,
             const std::vector<CoreSample> &cores) override
    {
        ++frames;
        coreSamples += static_cast<long>(cores.size());
    }

    long frames = 0;
    long coreSamples = 0;
};

TEST_F(SimEngineTest, ObserverReceivesSampleFrames)
{
    SimEngine engine(&chip_);
    CountingObserver counting;
    engine.addObserver(&counting);
    engine.run(0.5);
    EXPECT_GT(counting.frames, 100);
    EXPECT_EQ(counting.coreSamples,
              counting.frames * chip_.coreCount());
}

TEST_F(SimEngineTest, MultipleObserversAllDispatched)
{
    SimEngine engine(&chip_);
    CountingObserver first, second;
    engine.addObserver(&first);
    engine.addObserver(&second);
    engine.run(0.5);
    EXPECT_GT(first.frames, 0);
    EXPECT_EQ(first.frames, second.frames);

    // setObserver replaces the whole set.
    CountingObserver third;
    engine.setObserver(&third);
    ASSERT_EQ(engine.observers().size(), 1u);
    EXPECT_EQ(engine.observers().front(), &third);
}

TEST_F(SimEngineTest, DeterministicAcrossRuns)
{
    SimConfig config;
    config.seed = 77;
    SimEngine a(&chip_, config);
    const RunResult ra = a.run(1.0);
    SimEngine b(&chip_, config);
    const RunResult rb = b.run(1.0);
    EXPECT_DOUBLE_EQ(ra.meanFreqMhz(0), rb.meanFreqMhz(0));
    EXPECT_DOUBLE_EQ(ra.chipPowerW.mean(), rb.chipPowerW.mean());
}

TEST_F(SimEngineTest, ConfigValidation)
{
    SimConfig config;
    config.dtNs = 0.0;
    EXPECT_THROW(SimEngine(&chip_, config), util::FatalError);
    EXPECT_THROW(SimEngine(nullptr), util::PanicError);
}

TEST_F(SimEngineTest, FailureKindsFollowConfiguredMix)
{
    // Failure injection: far past the limit, every run fails; across
    // seeds, the manifestation mix covers all three observable kinds
    // with the crash/exit/SDC proportions of the model (30/50/20).
    const int idle_limit = variation::referenceTargets(0, 0).idle;
    chip_.core(0).setCpmReduction(util::CpmSteps{idle_limit + 3});
    int crash = 0, exit_ = 0, sdc = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        SimConfig config;
        config.runNoisePs = 1.2;
        config.seed = seed;
        SimEngine engine(&chip_, config);
        const RunResult result = engine.run(0.5);
        ASSERT_TRUE(result.failed()) << "seed " << seed;
        switch (result.violations.front().kind) {
          case FailureKind::SystemCrash: ++crash; break;
          case FailureKind::AbnormalExit: ++exit_; break;
          case FailureKind::SilentDataCorruption: ++sdc; break;
        }
    }
    chip_.core(0).setCpmReduction(util::CpmSteps{0});
    // All three observable kinds occur; the 30/50/20 mix is sampled,
    // so only coarse proportions are asserted.
    EXPECT_GT(crash, 5);
    EXPECT_GT(exit_, 12);
    EXPECT_GT(sdc, 2);
    EXPECT_EQ(crash + exit_ + sdc, 60);
}

TEST_F(SimEngineTest, VirusStressesChipWide)
{
    // The synchronized voltage virus produces the deepest droops: the
    // chip-wide minimum grid voltage under the virus must undercut
    // the same cores running an equally-powered unsynchronized load.
    const auto &virus = workload::voltageVirus();
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.assignWorkload(c, &virus);
    SimConfig config;
    config.stopOnViolation = false;
    SimEngine engine(&chip_, config);
    const RunResult virus_run = engine.run(2.0);
    chip_.clearAssignments();

    const auto &daxpy = workload::findWorkload("daxpy");
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.assignWorkload(c, &daxpy, 4);
    SimEngine daxpy_engine(&chip_, config);
    const RunResult daxpy_run = daxpy_engine.run(2.0);
    chip_.clearAssignments();

    EXPECT_LT(virus_run.minGridV, daxpy_run.minGridV - 0.01);
    // And it must be survivable at reduction 0 (the factory default).
    EXPECT_FALSE(virus_run.failed());
}

TEST_F(SimEngineTest, ThreadWorstSurvivesVirusInEngine)
{
    // The deployment guarantee, demonstrated dynamically: with every
    // core at its thread-worst reduction and the virus running
    // chip-wide, a hostile-noise window completes without violations.
    const auto &virus = workload::voltageVirus();
    for (int c = 0; c < chip_.coreCount(); ++c) {
        chip_.core(c).setCpmReduction(
            util::CpmSteps{variation::referenceTargets(0, c).worst});
        chip_.assignWorkload(c, &virus);
    }
    SimConfig config;
    config.runNoisePs = 1.15;
    SimEngine engine(&chip_, config);
    const RunResult result = engine.run(4.0);
    chip_.clearAssignments();
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.core(c).setCpmReduction(util::CpmSteps{0});
    EXPECT_FALSE(result.failed());
    // The stress pushes power and temperature toward the paper's
    // 160 W / 70 degC test-floor conditions.
    EXPECT_GT(result.chipPowerW.mean(), 120.0);
    EXPECT_GT(result.maxCoreTempC, 55.0);
}

TEST_F(SimEngineTest, RunPastViolationsCountsEveryCoreEpisode)
{
    // With stopOnViolation off, a run must keep accumulating per-core
    // episode counts past the first violation instead of reporting
    // only the earliest offender.
    const int limit0 = variation::referenceTargets(0, 0).idle;
    const int limit5 = variation::referenceTargets(0, 5).idle;
    chip_.core(0).setCpmReduction(util::CpmSteps{limit0 + 2});
    chip_.core(5).setCpmReduction(util::CpmSteps{limit5 + 2});
    SimConfig config;
    config.runNoisePs = 1.2;
    config.stopOnViolation = false;
    SimEngine engine(&chip_, config);
    const RunResult result = engine.run(3.0);
    chip_.core(0).setCpmReduction(util::CpmSteps{0});
    chip_.core(5).setCpmReduction(util::CpmSteps{0});

    EXPECT_FALSE(result.stoppedEarly);
    EXPECT_TRUE(result.failed());
    EXPECT_GE(result.coreStats[0].violations, 1);
    EXPECT_GE(result.coreStats[5].violations, 1);
    EXPECT_EQ(result.totalViolations(),
              result.coreStats[0].violations
              + result.coreStats[5].violations);
    // Every episode is either stored or tallied as dropped overflow.
    EXPECT_EQ(result.totalViolations(),
              static_cast<long>(result.violations.size())
              + result.safety.droppedViolationEvents);
    bool saw0 = false, saw5 = false;
    for (const ViolationEvent &ev : result.violations) {
        saw0 = saw0 || ev.core == 0;
        saw5 = saw5 || ev.core == 5;
        EXPECT_FALSE(ev.detected) << "no observer attached";
    }
    EXPECT_TRUE(saw0);
    EXPECT_TRUE(saw5);
    // Undetected episodes split into silent and noisy manifestations.
    EXPECT_EQ(result.safety.detectedViolations, 0);
    EXPECT_GE(result.safety.silentFailures, 0);
}

TEST_F(SimEngineTest, CampaignStrikesMidRunAndCleansUp)
{
    fault::FaultCampaign campaign = fault::FaultCampaign::parse(
        "vrm-step:core=-1,start=1,dur=1,mag=40");
    SimEngine engine(&chip_);
    engine.setCampaign(&campaign);
    const RunResult faulted = engine.run(3.0);
    // The parasitic load is gone after the run, and the campaign
    // re-arms, so a second run reproduces the same grid sag.
    EXPECT_DOUBLE_EQ(chip_.pdn().faultCurrentA().value(), 0.0);
    const RunResult again = engine.run(3.0);

    SimEngine clean_engine(&chip_);
    const RunResult clean = clean_engine.run(3.0);
    EXPECT_LT(faulted.minGridV, clean.minGridV - 0.005);
    EXPECT_DOUBLE_EQ(faulted.minGridV, again.minGridV);
}

TEST_F(SimEngineTest, PermanentFaultRevertedAtRunEnd)
{
    fault::FaultCampaign campaign = fault::FaultCampaign::parse(
        "dropout:core=1,start=0.5");
    SimEngine engine(&chip_);
    engine.setCampaign(&campaign);
    engine.run(1.0);
    EXPECT_FALSE(chip_.sensorDropout(1));
}

TEST(FailureKinds, Printable)
{
    EXPECT_STREQ(failureKindName(FailureKind::SystemCrash),
                 "system-crash");
    EXPECT_STREQ(failureKindName(FailureKind::SilentDataCorruption),
                 "sdc");
}

} // namespace
} // namespace atmsim::sim
