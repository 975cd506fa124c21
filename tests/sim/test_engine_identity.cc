/**
 * @file
 * The engine identity contract: EngineMode::Soa must reproduce the
 * golden digests (sim::digest) frozen from the reference engine bit
 * for bit -- same violations, same statistics accumulators, same
 * safety counters -- across seeds, fault campaigns, mixed core modes,
 * and attached observers. Sampled mode is held to a looser contract
 * (it is approximate by design): the fast-forward must actually
 * engage on quiet runs and the headline tables must land within 1%
 * of Soa. Its own answers on the identity scenarios are recorded
 * digests as well, so a change to the quiet gate cannot pass
 * silently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "chip/chip.h"
#include "core/safety_monitor.h"
#include "fault/fault_campaign.h"
#include "sim/sim_engine.h"
#include "sim/steady_state.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::sim {
namespace {

struct Scenario
{
    const char *name;
    std::uint64_t seed;
    const char *campaign;   ///< nullptr = no faults.
    bool mixedModes;        ///< Fixed-frequency core 1, gated core 3.
    bool monitored;         ///< Attach a SafetyMonitor.
    bool stopOnViolation;
    int reduction;          ///< CPM reduction on every ATM core.
    double runNoisePs;
    std::uint64_t golden;   ///< digest() of the 8 us run.
};

/** One engine run of a scenario under the given mode, on a fresh
 *  chip, so the two modes never share mutable state. */
RunResult
runScenario(const Scenario &sc, EngineMode mode, double duration_us)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    const auto &x264 = workload::findWorkload("x264");
    chip.assignWorkload(2, &x264);
    for (int c = 0; c < chip.coreCount(); ++c)
        chip.core(c).setCpmReduction(util::CpmSteps{sc.reduction});
    if (sc.mixedModes) {
        chip.core(1).setMode(chip::CoreMode::FixedFrequency);
        chip.core(3).setMode(chip::CoreMode::Gated);
    }

    SimConfig config;
    config.mode = mode;
    config.seed = sc.seed;
    config.runNoisePs = sc.runNoisePs;
    config.stopOnViolation = sc.stopOnViolation;
    SimEngine engine(&chip, config);

    fault::FaultCampaign campaign;
    if (sc.campaign != nullptr) {
        campaign = fault::FaultCampaign::parse(sc.campaign);
        engine.setCampaign(&campaign);
    }
    std::vector<int> targets(
        static_cast<std::size_t>(chip.coreCount()), sc.reduction);
    core::SafetyMonitor monitor(&chip, targets);
    if (sc.monitored)
        engine.setObserver(&monitor);
    return engine.run(duration_us);
}

/**
 * The identity scenarios with their golden digests. The digests were
 * recorded from the object-per-core reference engine before it was
 * removed, and EngineMode::Soa reproduced every one of them bit for
 * bit; they are now the oracle. Regenerate them only in a change that
 * justifies the new answers.
 */
const Scenario kScenarios[] = {
    {"idle", 1, nullptr, false, false, true, 0, 0.0,
     0x87402b2cb8ec0878ULL},
    {"noise-seed7", 7, nullptr, false, false, true, 0, 1.1,
     0xec142a1458da9fc3ULL},
    {"mixed-modes", 3, nullptr, true, false, true, 2, 0.5,
     0x0cc44a09e52f5d93ULL},
    {"cpm-stuck", 7,
     "cpm-stuck:core=2,site=0,start=1,dur=4,mag=24",
     false, false, false, 6, 1.1, 0xa27335a32ac9c53aULL},
    {"cpm-stuck-monitored", 7,
     "cpm-stuck:core=2,site=0,start=1,dur=4,mag=24",
     false, true, false, 6, 1.1, 0x38e3c0d33f943daeULL},
    {"droop-storm-mixed", 17,
     "droop-storm:core=2,start=1,dur=3,mag=2.5",
     true, true, false, 6, 1.1, 0x24ab2bade66d37dbULL},
    {"vrm-step-stop", 17,
     "vrm-step:start=2,dur=4,mag=40",
     false, false, true, 4, 1.1, 0x3c789fd24b3832b9ULL},
    {"two-faults", 11,
     "thermal:core=2,start=1,dur=5,mag=25;"
     "aging-jump:core=0,start=3,dur=6,mag=0.05",
     false, true, false, 5, 1.1, 0xda733693635b93b9ULL},
};

// The golden digests are the removed reference (legacy) engine's
// answers, so this holds SoA to that engine bit for bit.
TEST(EngineIdentity, SoaMatchesLegacyBitwise)
{
    for (const Scenario &sc : kScenarios) {
        EXPECT_EQ(digest(runScenario(sc, EngineMode::Soa, 8.0)),
                  sc.golden)
            << sc.name;
    }
}

/** Sampled mode's answers for kScenarios, in the same order. */
struct SampledGolden
{
    std::uint64_t digest;
    long fastForwardedSteps;
};

// Recorded from the sampled engine as it stood when the identity
// scenarios were first run in sampled mode. They pin the quiet gate
// and the fast-forward exactly, where SampledStaysWithinOnePercent
// only bounds the tables.
const SampledGolden kSampledGoldens[] = {
    {0x51a5a10a4b0ca901ULL, 26484}, // idle
    {0xe1a0e95ca0876f5eULL, 27636}, // noise-seed7
    {0xa29e553f0b2f16e9ULL, 27261}, // mixed-modes
    {0x8f66a0a168e81febULL, 1471},  // cpm-stuck
    {0x22c22eb114bb03c2ULL, 24645}, // cpm-stuck-monitored
    {0x4647be50509d8e30ULL, 13669}, // droop-storm-mixed
    {0x3c789fd24b3832b9ULL, 0},     // vrm-step-stop
    {0xb29b3744f7611ca0ULL, 24055}, // two-faults
};
static_assert(std::size(kSampledGoldens) == std::size(kScenarios));

TEST(EngineIdentity, SampledMatchesRecordedDigests)
{
    for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
        const RunResult result =
            runScenario(kScenarios[i], EngineMode::Sampled, 8.0);
        EXPECT_EQ(digest(result), kSampledGoldens[i].digest)
            << kScenarios[i].name;
        EXPECT_EQ(result.fastForwardedSteps,
                  kSampledGoldens[i].fastForwardedSteps)
            << kScenarios[i].name;
    }
}

TEST(EngineIdentity, SoaIsDeterministicAcrossRepeats)
{
    const Scenario &sc = kScenarios[4]; // monitored fault replay
    const std::uint64_t first =
        digest(runScenario(sc, EngineMode::Soa, 8.0));
    const std::uint64_t second =
        digest(runScenario(sc, EngineMode::Soa, 8.0));
    EXPECT_EQ(first, second);
}

TEST(EngineIdentity, SampledFastForwardsQuietRuns)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    SimConfig config;
    config.mode = EngineMode::Sampled;
    SimEngine engine(&chip, config);
    const RunResult result = engine.run(4.0);
    EXPECT_FALSE(result.failed());
    EXPECT_GT(result.fastForwardedSteps, result.steps / 2)
        << "detector never armed on an idle run";
    EXPECT_LE(result.fastForwardedSteps, result.steps);
}

// The chip's control loops outlive a run. A sampled run on a chip
// that has already run must still settle exactly as on a fresh chip:
// the detector's DPLL-activity gate counts this run's adjustments
// only. With every core at a fixed frequency the DPLLs never act, so
// the first step of the second run is quiet only if the first run's
// adjustments were forgotten.
TEST(EngineIdentity, SampledRunOnReusedChipMatchesFreshChip)
{
    SimConfig config;
    config.mode = EngineMode::Sampled;
    config.seed = 7;
    chip::Chip fresh(variation::makeReferenceChip(0));
    chip::Chip reused(variation::makeReferenceChip(0));
    const auto &x264 = workload::findWorkload("x264");
    reused.assignWorkload(2, &x264);
    SimEngine(&reused, config).run(2.0); // leaves DPLL activity behind
    reused.clearAssignments();
    for (chip::Chip *chip : {&fresh, &reused}) {
        for (int c = 0; c < chip->coreCount(); ++c)
            chip->core(c).setMode(chip::CoreMode::FixedFrequency);
    }

    const RunResult expected = SimEngine(&fresh, config).run(4.0);
    const RunResult actual = SimEngine(&reused, config).run(4.0);
    ASSERT_GT(expected.fastForwardedSteps, 0);
    EXPECT_EQ(actual.fastForwardedSteps, expected.fastForwardedSteps);
    EXPECT_EQ(digest(actual), digest(expected));
}

TEST(EngineIdentity, SampledStaysWithinOnePercent)
{
    const auto run = [](EngineMode mode) {
        chip::Chip chip(variation::makeReferenceChip(0));
        const auto &gcc = workload::findWorkload("gcc");
        chip.assignWorkload(0, &gcc);
        SimConfig config;
        config.mode = mode;
        SimEngine engine(&chip, config);
        return engine.run(6.0);
    };
    const RunResult exact = run(EngineMode::Soa);
    const RunResult fast = run(EngineMode::Sampled);
    EXPECT_EQ(exact.steps, fast.steps);
    ASSERT_EQ(exact.coreStats.size(), fast.coreStats.size());
    for (std::size_t c = 0; c < exact.coreStats.size(); ++c) {
        EXPECT_EQ(exact.coreStats[c].freqMhz.count(),
                  fast.coreStats[c].freqMhz.count());
        EXPECT_NEAR(fast.coreStats[c].freqMhz.mean(),
                    exact.coreStats[c].freqMhz.mean(),
                    exact.coreStats[c].freqMhz.mean() * 0.01)
            << "core " << c;
        EXPECT_NEAR(fast.coreStats[c].voltageV.mean(),
                    exact.coreStats[c].voltageV.mean(),
                    exact.coreStats[c].voltageV.mean() * 0.01)
            << "core " << c;
    }
    EXPECT_NEAR(fast.chipPowerW.mean(), exact.chipPowerW.mean(),
                exact.chipPowerW.mean() * 0.01);
}

TEST(EngineIdentity, SampledNeverFastForwardsPastFaultEdges)
{
    // A campaign strike must be hit by cycle stepping, not jumped
    // over: the faulted core still violates, starting at the same
    // strike. Episode *counts* may differ by a step or two of
    // re-quantization (control actions land on the slow cadence
    // while fast-forwarding), so they are held to 90%, not equality.
    const Scenario &sc = kScenarios[3]; // cpm-stuck, unmonitored
    const RunResult exact = runScenario(sc, EngineMode::Soa, 8.0);
    const RunResult fast =
        runScenario(sc, EngineMode::Sampled, 8.0);
    long exact_eps = 0, fast_eps = 0;
    for (const CoreRunStats &cs : exact.coreStats)
        exact_eps += cs.violations;
    for (const CoreRunStats &cs : fast.coreStats)
        fast_eps += cs.violations;
    ASSERT_GT(exact_eps, 0);
    ASSERT_GT(fast_eps, 0);
    EXPECT_NEAR(static_cast<double>(fast_eps),
                static_cast<double>(exact_eps),
                std::max(2.0, static_cast<double>(exact_eps) * 0.1));
    // Both runs must see the strike land at the same first episode.
    ASSERT_FALSE(exact.violations.empty());
    ASSERT_FALSE(fast.violations.empty());
    EXPECT_EQ(exact.violations.front().core,
              fast.violations.front().core);
    EXPECT_NEAR(exact.violations.front().timeNs,
                fast.violations.front().timeNs, 50.0);
}

TEST(EngineIdentity, ModeNamesRoundTrip)
{
    for (EngineMode mode : {EngineMode::Soa, EngineMode::Sampled}) {
        EngineMode parsed = mode == EngineMode::Soa ? EngineMode::Sampled
                                                    : EngineMode::Soa;
        EXPECT_TRUE(engineModeFromName(engineModeName(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    // The object-per-core reference loop is gone; its name is no
    // longer a mode.
    for (const char *name : {"warp", "legacy"}) {
        EngineMode out = EngineMode::Soa;
        EXPECT_FALSE(engineModeFromName(name, out)) << name;
        EXPECT_EQ(out, EngineMode::Soa) << name;
    }
}

TEST(SteadyStateDetectorTest, ArmsAfterWindowAndResets)
{
    SteadyStateConfig config;
    config.windowSteps = 4;
    SteadyStateDetector detect(config);
    EXPECT_FALSE(detect.armed());
    for (int i = 0; i < 3; ++i)
        detect.note(true);
    EXPECT_FALSE(detect.armed());
    detect.note(true);
    EXPECT_TRUE(detect.armed());
    detect.note(false); // any disturbance restarts the window
    EXPECT_FALSE(detect.armed());
    EXPECT_EQ(detect.quietStreak(), 0L);
    detect.reset();
    EXPECT_FALSE(detect.armed());
}

} // namespace
} // namespace atmsim::sim
