#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/characterizer.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::core {
namespace {

using Marks = std::vector<const workload::WorkloadTraits *>;

/** Every (mark, rep) upward scan run to cap; the lowest result. */
int
lowestFullScan(Characterizer &characterizer, int core, const Marks &marks,
               int cap)
{
    int lowest = cap;
    for (const workload::WorkloadTraits *mark : marks) {
        for (int rep = 0; rep < characterizer.config().reps; ++rep) {
            int k = 0;
            while (k < cap && characterizer.trialSafe(core, k + 1, *mark, rep))
                ++k;
            lowest = std::min(lowest, k);
        }
    }
    return lowest;
}

class CharacterizerTest : public ::testing::Test
{
  protected:
    CharacterizerTest()
        : chip_(variation::makeReferenceChip(0)),
          characterizer_(&chip_)
    {
    }

    chip::Chip chip_;
    Characterizer characterizer_;
};

TEST_F(CharacterizerTest, IdleLimitMatchesReference)
{
    for (int c = 0; c < chip_.coreCount(); ++c) {
        EXPECT_EQ(characterizer_.idleLimit(c).limit(),
                  variation::referenceTargets(0, c).idle)
            << chip_.core(c).name();
    }
}

TEST_F(CharacterizerTest, IdleDistributionCoversAtMostTwoConfigs)
{
    // Fig. 7: run-to-run distributions are tight.
    for (int c = 0; c < chip_.coreCount(); ++c) {
        const LimitDistribution dist = characterizer_.idleLimit(c);
        EXPECT_LE(dist.maxSafe.maxValue() - dist.maxSafe.minValue(), 1)
            << chip_.core(c).name();
    }
}

TEST_F(CharacterizerTest, UbenchLimitMatchesReference)
{
    for (int c = 0; c < chip_.coreCount(); ++c) {
        const int idle = variation::referenceTargets(0, c).idle;
        EXPECT_EQ(characterizer_.ubenchLimit(c, idle).limit(),
                  variation::referenceTargets(0, c).ubench)
            << chip_.core(c).name();
    }
}

TEST_F(CharacterizerTest, AppLimitsOrderedByStress)
{
    const auto &gcc = workload::findWorkload("gcc");
    const auto &x264 = workload::findWorkload("x264");
    for (int c : {0, 3, 5}) {
        const int ub = variation::referenceTargets(0, c).ubench;
        const int gcc_limit = characterizer_.appLimit(c, ub, gcc).limit();
        const int x264_limit =
            characterizer_.appLimit(c, ub, x264).limit();
        EXPECT_LE(x264_limit, gcc_limit) << "core " << c;
    }
}

TEST_F(CharacterizerTest, MeanRollbackNonNegativeAndOrdered)
{
    const auto &gcc = workload::findWorkload("gcc");
    const auto &x264 = workload::findWorkload("x264");
    for (int c : {0, 1, 4}) {
        const int ub = variation::referenceTargets(0, c).ubench;
        const double r_gcc = characterizer_.meanRollback(c, ub, gcc);
        const double r_x264 = characterizer_.meanRollback(c, ub, x264);
        EXPECT_GE(r_gcc, 0.0);
        EXPECT_GE(r_x264, r_gcc) << "core " << c;
    }
}

TEST_F(CharacterizerTest, FullCoreMatchesTableOneColumn)
{
    const CoreLimits limits = characterizer_.characterizeCore(3);
    const auto &t = variation::referenceTargets(0, 3);
    EXPECT_EQ(limits.idle, t.idle);
    EXPECT_EQ(limits.ubench, t.ubench);
    EXPECT_EQ(limits.normal, t.normal);
    EXPECT_EQ(limits.worst, t.worst);
    EXPECT_NEAR(limits.idleLimitFreqMhz, t.idleLimitMhz, 2.0);
}

TEST_F(CharacterizerTest, TrialSafeMonotoneInReduction)
{
    const auto &ferret = workload::findWorkload("ferret");
    for (int rep : {0, 3}) {
        bool was_safe = true;
        for (int k = 0; k <= chip_.core(2).silicon().presetSteps; ++k) {
            const bool safe = characterizer_.trialSafe(2, k, ferret, rep);
            if (!was_safe) {
                EXPECT_FALSE(safe) << "non-monotonic at " << k;
            }
            was_safe = safe;
        }
    }
}

TEST_F(CharacterizerTest, ScanFloorIsLowestFullScanInEitherMarkOrder)
{
    // The idle scan ends above the virus scan, so the analytic running
    // cap binds in one order and not in the other.
    const workload::WorkloadTraits *idle = &workload::idleWorkload();
    const workload::WorkloadTraits *virus = &workload::voltageVirus();
    for (const Marks &marks : {Marks{idle, virus}, Marks{virus, idle}}) {
        for (int c = 0; c < chip_.coreCount(); ++c) {
            const int cap = chip_.core(c).silicon().presetSteps;
            EXPECT_EQ(characterizer_.scanFloor(c, marks, cap),
                      lowestFullScan(characterizer_, c, marks, cap))
                << chip_.core(c).name();
        }
    }
}

TEST(CharacterizerEngineTest, ScanFloorIsLowestFullScanAtEveryJobCount)
{
    CharacterizerConfig config;
    config.mode = CharacterizerConfig::Mode::Engine;
    config.reps = 2;
    config.engineWindowUs = 1.0;
    const Marks marks = {&workload::idleWorkload(),
                         &workload::voltageVirus()};
    chip::Chip reference_chip(variation::makeReferenceChip(0));
    Characterizer reference(&reference_chip, config);
    const int cap = reference_chip.core(2).silicon().presetSteps;
    const int want = lowestFullScan(reference, 2, marks, cap);
    for (int jobs : {1, 4}) {
        chip::Chip chip(variation::makeReferenceChip(0));
        config.jobs = jobs;
        Characterizer characterizer(&chip, config);
        EXPECT_EQ(characterizer.scanFloor(2, marks, cap), want)
            << "jobs " << jobs;
    }
}

/** A counter's value in the registry, or -1 when it has no entry. */
long
counterOrAbsent(const obs::MetricsRegistry &registry, const char *name)
{
    const obs::MetricsSnapshot snap = registry.snapshot();
    const obs::MetricSnapshotEntry *entry = snap.find(name);
    return entry ? entry->counter : -1;
}

TEST(CharacterizerCountersTest, DirectTrialIsCountedAtOnce)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    Characterizer characterizer(&chip);
    obs::MetricsRegistry registry;
    characterizer.setObservability({&registry, nullptr});
    const auto &ferret = workload::findWorkload("ferret");
    (void)characterizer.trialSafe(2, 1, ferret, 0);
    EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials"), 1);
    (void)characterizer.trialSafe(2, 2, ferret, 1);
    EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials"), 2);
}

TEST(CharacterizerCountersTest, NoUnsafeTrialMeansNoUnsafeEntry)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    Characterizer characterizer(&chip);
    obs::MetricsRegistry registry;
    characterizer.setObservability({&registry, nullptr});
    const auto &idle = workload::idleWorkload();
    long trials = 0;
    for (int c = 0; c < chip.coreCount(); ++c) {
        for (int rep = 0; rep < characterizer.config().reps; ++rep) {
            EXPECT_TRUE(characterizer.trialSafe(c, 0, idle, rep));
            ++trials;
        }
    }
    EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials"), trials);
    EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials.unsafe"), -1);
    EXPECT_EQ(counterOrAbsent(registry, "characterizer.cores"), -1);
}

TEST(CharacterizerCountersTest, ChipCountsArePinnedAtEveryJobCount)
{
    // Pinned: other counts mean the procedure ran other trials.
    for (int jobs : {1, 4}) {
        chip::Chip chip(variation::makeReferenceChip(0));
        CharacterizerConfig config;
        config.jobs = jobs;
        Characterizer characterizer(&chip, config);
        obs::MetricsRegistry registry;
        characterizer.setObservability({&registry, nullptr});
        (void)characterizer.characterizeChip();
        EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials"), 3384)
            << "jobs " << jobs;
        EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials.unsafe"),
                  1288)
            << "jobs " << jobs;
        EXPECT_EQ(counterOrAbsent(registry, "characterizer.cores"),
                  chip.coreCount())
            << "jobs " << jobs;
        EXPECT_EQ(counterOrAbsent(registry, "characterizer.trials.engine"),
                  -1)
            << "jobs " << jobs;
    }
}

TEST(CharacterizerConfigTest, RejectsBadReps)
{
    chip::Chip chip(variation::makeReferenceChip(1));
    CharacterizerConfig config;
    config.reps = 0;
    EXPECT_THROW(Characterizer(&chip, config), util::FatalError);
    EXPECT_THROW(Characterizer(nullptr), util::PanicError);
}

TEST(LimitDistributionTest, EmptyIsFatal)
{
    LimitDistribution dist;
    EXPECT_THROW((void)dist.limit(), util::FatalError);
}

} // namespace
} // namespace atmsim::core
