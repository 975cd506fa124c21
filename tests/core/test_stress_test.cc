#include <gtest/gtest.h>

#include <algorithm>

#include "core/stress_test.h"
#include "util/logging.h"
#include "variation/chip_generator.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::core {
namespace {

/**
 * Reference stress limit: every mark and repeat scanned serially from
 * 0 up to the preset, on the shared chip.
 */
int
fullScanLimit(chip::Chip &chip, const CharacterizerConfig &config,
              int core)
{
    Characterizer characterizer(&chip, config);
    const int ceiling = chip.core(core).silicon().presetSteps;
    int limit = ceiling;
    for (const workload::WorkloadTraits *mark :
         {&workload::voltageVirus(), &workload::findWorkload("power_virus"),
          &workload::findWorkload("isa_suite")}) {
        for (int rep = 0; rep < config.reps; ++rep) {
            int k = 0;
            while (k < ceiling
                   && characterizer.trialSafe(core, k + 1, *mark, rep))
                ++k;
            limit = std::min(limit, k);
        }
    }
    return limit;
}

class StressTestTest : public ::testing::Test
{
  protected:
    StressTestTest()
        : chip_(variation::makeReferenceChip(0)), tester_(&chip_)
    {
    }

    chip::Chip chip_;
    StressTester tester_;
};

TEST_F(StressTestTest, StressLimitEqualsThreadWorst)
{
    // Sec. VII-A: the thread-worst configurations sustain all
    // stressmarks, and the stress test finds exactly those limits.
    for (int c = 0; c < chip_.coreCount(); ++c) {
        EXPECT_EQ(tester_.stressLimit(c),
                  variation::referenceTargets(0, c).worst)
            << chip_.core(c).name();
    }
}

TEST_F(StressTestTest, ThreadWorstConfirmedSafe)
{
    for (int c = 0; c < chip_.coreCount(); ++c) {
        EXPECT_TRUE(tester_.confirmSafe(
            c, variation::referenceTargets(0, c).worst));
    }
}

TEST_F(StressTestTest, BeyondLimitNotConfirmed)
{
    for (int c : {0, 1, 3}) {
        EXPECT_FALSE(tester_.confirmSafe(
            c, variation::referenceTargets(0, c).worst + 1));
    }
}

TEST_F(StressTestTest, DeployedConfigExposesVariation)
{
    const DeployedConfig config = tester_.deriveDeployedConfig();
    ASSERT_EQ(config.reductionPerCore.size(), 8u);
    // Fig. 11: >200 MHz inter-core differential at the limit.
    EXPECT_GT(config.speedDifferentialMhz(), 200.0);
    EXPECT_EQ(config.slowestCore(), 7); // P0C7 is the slow core
}

TEST_F(StressTestTest, RollbackKeepsVariationTrend)
{
    const DeployedConfig limit = tester_.deriveDeployedConfig(0);
    const DeployedConfig rolled = tester_.deriveDeployedConfig(1);
    for (int c = 0; c < 8; ++c) {
        EXPECT_LE(rolled.reductionPerCore[c],
                  limit.reductionPerCore[c]);
        EXPECT_LE(rolled.idleFreqMhz[c], limit.idleFreqMhz[c] + 1e-9);
    }
    // The fastest/slowest ordering is essentially preserved.
    EXPECT_EQ(limit.slowestCore(), rolled.slowestCore());
    EXPECT_THROW(tester_.deriveDeployedConfig(-1), util::FatalError);
}

TEST_F(StressTestTest, StressEnvironmentMatchesPaper)
{
    // ~160 W chip power and ~70 degC die during the stress test.
    const DeployedConfig config = tester_.deriveDeployedConfig();
    const chip::ChipSteadyState st =
        tester_.stressEnvironment(config.reductionPerCore);
    EXPECT_GT(st.chipPowerW.value(), 130.0);
    EXPECT_LT(st.chipPowerW.value(), 185.0);
    double max_temp = 0.0;
    for (util::Celsius t : st.coreTempC)
        max_temp = std::max(max_temp, t.value());
    EXPECT_GT(max_temp, 60.0);
    EXPECT_LT(max_temp, 80.0);
}

TEST_F(StressTestTest, StressEnvironmentValidatesInput)
{
    EXPECT_THROW(tester_.stressEnvironment({1, 2}), util::FatalError);
}

TEST(StressLimitExactness, AnalyticMatchesFullScanOnEveryCore)
{
    std::vector<variation::ChipSilicon> chips = {
        variation::makeReferenceChip(0), variation::makeReferenceChip(1)};
    for (std::uint64_t seed : {11, 12, 13, 14})
        chips.push_back(variation::generateChip("S", seed));
    for (const variation::ChipSilicon &silicon : chips) {
        chip::Chip chip(silicon);
        StressTester tester(&chip);
        for (int c = 0; c < chip.coreCount(); ++c) {
            EXPECT_EQ(tester.stressLimit(c), fullScanLimit(chip, {}, c))
                << chip.core(c).name();
        }
    }
}

TEST(StressLimitExactness, EngineMatchesFullScanAtEveryJobCount)
{
    CharacterizerConfig config;
    config.mode = CharacterizerConfig::Mode::Engine;
    config.engineWindowUs = 1.0;
    const variation::ChipSilicon silicon =
        variation::generateChip("E", 5);
    for (int c : {0, 3, 7}) {
        chip::Chip reference_chip(silicon);
        config.jobs = 1;
        const int want = fullScanLimit(reference_chip, config, c);
        for (int jobs : {1, 4}) {
            chip::Chip chip(silicon);
            config.jobs = jobs;
            StressTester tester(&chip, config);
            EXPECT_EQ(tester.stressLimit(c), want)
                << "core " << c << " jobs " << jobs;
        }
    }
}

} // namespace
} // namespace atmsim::core
