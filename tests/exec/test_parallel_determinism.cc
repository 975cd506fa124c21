/**
 * @file
 * The determinism contract of the execution layer at its real call
 * sites: characterization tables, rollback matrices, population
 * stats, and merged metric snapshots must be identical at every
 * --jobs value.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/characterizer.h"
#include "core/population.h"
#include "exec/thread_pool.h"
#include "fleet/supervisor.h"
#include "obs/metrics.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::core {
namespace {

std::string
csvOf(const LimitTable &table)
{
    std::ostringstream os;
    table.toCsv(os);
    return os.str();
}

LimitTable
characterizeAt(int jobs, obs::MetricsRegistry *metrics,
               CharacterizerConfig config = {})
{
    chip::Chip chip(variation::makeReferenceChip(0));
    config.jobs = jobs;
    Characterizer characterizer(&chip, config);
    if (metrics)
        characterizer.setObservability({metrics, nullptr});
    return characterizer.characterizeChip();
}

TEST(ParallelDeterminism, AnalyticTableIdenticalAcrossJobCounts)
{
    const LimitTable serial = characterizeAt(1, nullptr);
    for (int jobs : {2, 4, 7}) {
        const LimitTable parallel = characterizeAt(jobs, nullptr);
        EXPECT_EQ(csvOf(serial), csvOf(parallel)) << "jobs " << jobs;
    }
}

TEST(ParallelDeterminism, EngineIdleLimitIdenticalAcrossJobCounts)
{
    // Engine mode is the expensive path the pool exists for; keep the
    // test window small and check one core's full idle distribution.
    CharacterizerConfig config;
    config.mode = CharacterizerConfig::Mode::Engine;
    config.reps = 2;
    config.engineWindowUs = 1.0;

    chip::Chip serial_chip(variation::makeReferenceChip(0));
    config.jobs = 1;
    Characterizer serial(&serial_chip, config);
    const LimitDistribution want = serial.idleLimit(2);

    chip::Chip parallel_chip(variation::makeReferenceChip(0));
    config.jobs = 4;
    Characterizer parallel(&parallel_chip, config);
    const LimitDistribution got = parallel.idleLimit(2);

    EXPECT_EQ(want.limit(), got.limit());
    EXPECT_EQ(want.maxSafe.mean(), got.maxSafe.mean());
    EXPECT_EQ(want.maxSafe.minValue(), got.maxSafe.minValue());
    EXPECT_EQ(want.maxSafe.maxValue(), got.maxSafe.maxValue());
}

TEST(ParallelDeterminism, EngineCoreLimitsIdenticalAcrossJobCounts)
{
    // The whole engine-mode core procedure, whose app sweep is one
    // batch over every (app, rep) pair.
    CharacterizerConfig config;
    config.mode = CharacterizerConfig::Mode::Engine;
    config.reps = 2;
    config.engineWindowUs = 1.0;

    const auto run = [&](int jobs, obs::MetricsRegistry *metrics) {
        chip::Chip chip(variation::makeReferenceChip(0));
        config.jobs = jobs;
        Characterizer characterizer(&chip, config);
        characterizer.setObservability({metrics, nullptr});
        return characterizer.characterizeCore(2);
    };
    obs::MetricsRegistry serial_metrics;
    const CoreLimits want = run(1, &serial_metrics);
    for (int jobs : {2, 4}) {
        obs::MetricsRegistry metrics;
        const CoreLimits got = run(jobs, &metrics);
        EXPECT_EQ(want.coreName, got.coreName) << "jobs " << jobs;
        EXPECT_EQ(want.idle, got.idle) << "jobs " << jobs;
        EXPECT_EQ(want.ubench, got.ubench) << "jobs " << jobs;
        EXPECT_EQ(want.normal, got.normal) << "jobs " << jobs;
        EXPECT_EQ(want.worst, got.worst) << "jobs " << jobs;
        EXPECT_EQ(want.idleDist.items(), got.idleDist.items())
            << "jobs " << jobs;
        EXPECT_EQ(want.ubenchDist.items(), got.ubenchDist.items())
            << "jobs " << jobs;
        EXPECT_EQ(want.idleLimitFreqMhz, got.idleLimitFreqMhz)
            << "jobs " << jobs;
        EXPECT_EQ(want.worstLimitFreqMhz, got.worstLimitFreqMhz)
            << "jobs " << jobs;
        EXPECT_TRUE(serial_metrics.snapshot() == metrics.snapshot())
            << "jobs " << jobs;
    }
}

TEST(ParallelDeterminism, MetricSnapshotsAgreeAfterShardMerge)
{
    obs::MetricsRegistry serial_metrics;
    obs::MetricsRegistry parallel_metrics;
    const LimitTable serial = characterizeAt(1, &serial_metrics);
    const LimitTable parallel = characterizeAt(4, &parallel_metrics);
    EXPECT_EQ(csvOf(serial), csvOf(parallel));
    EXPECT_TRUE(serial_metrics.snapshot() == parallel_metrics.snapshot());
}

TEST(ParallelDeterminism, RollbackMatrixIdenticalAcrossJobCounts)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    CharacterizerConfig config;
    config.jobs = 1;
    Characterizer serial(&chip, config);
    const LimitTable table = serial.characterizeChip();
    const RollbackMatrix want = serial.rollbackMatrix(table);

    config.jobs = 4;
    Characterizer parallel(&chip, config);
    const RollbackMatrix got = parallel.rollbackMatrix(table);

    ASSERT_EQ(want.meanRollback.size(), got.meanRollback.size());
    for (std::size_t a = 0; a < want.meanRollback.size(); ++a)
        EXPECT_EQ(want.meanRollback[a], got.meanRollback[a])
            << want.appNames[a];
}

TEST(ParallelDeterminism, PopulationStatsIdenticalAcrossJobCounts)
{
    // The in-process fleet campaign runs shards in waves of the
    // process default job count.
    fleet::FleetConfig config;
    config.population.chipCount = 4;
    config.shardSize = 1;
    const int before = exec::defaultJobs();
    exec::setDefaultJobs(1);
    const PopulationStats want = fleet::runFleetCampaign(config).stats;
    exec::setDefaultJobs(3);
    const PopulationStats got = fleet::runFleetCampaign(config).stats;
    exec::setDefaultJobs(before);

    EXPECT_EQ(want.differentials, got.differentials);
    EXPECT_EQ(want.idleLimitMhz.mean(), got.idleLimitMhz.mean());
    EXPECT_EQ(want.worstLimitMhz.mean(), got.worstLimitMhz.mean());
    EXPECT_EQ(want.robustCores.mean(), got.robustCores.mean());
    EXPECT_EQ(want.idleLimitSteps.mean(), got.idleLimitSteps.mean());
    EXPECT_EQ(want.idleLimitSteps.minValue(),
              got.idleLimitSteps.minValue());
    EXPECT_EQ(want.idleLimitSteps.maxValue(),
              got.idleLimitSteps.maxValue());
}

} // namespace
} // namespace atmsim::core
