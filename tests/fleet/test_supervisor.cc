#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/population.h"
#include "exec/thread_pool.h"
#include "fleet/checkpoint.h"
#include "fleet/supervisor.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace atmsim::fleet {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory per test, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_((fs::path(::testing::TempDir()) / ("fleet_sup_" + tag))
                    .string())
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    [[nodiscard]] const std::string &path() const { return path_; }

  private:
    std::string path_;
};

FleetConfig
smallCampaign()
{
    FleetConfig config;
    config.population.chipCount = 8;
    config.population.seedBase = 800;
    config.shardSize = 3;
    config.backoffSeconds = 0.01;
    return config;
}

/** The exact-result document two identical campaigns must share. */
std::string
resultDoc(const FleetResult &result)
{
    std::ostringstream os;
    {
        util::JsonWriter json(os);
        json.beginObject();
        json.key("stats");
        result.stats.writeJson(json);
        json.key("metrics");
        result.metrics.writeJson(json);
        json.endObject();
    }
    return os.str();
}

std::string
statsDoc(const core::PopulationStats &stats)
{
    std::ostringstream os;
    {
        util::JsonWriter json(os);
        stats.writeJson(json);
    }
    return os.str();
}

TEST(Supervisor, InProcessMatchesStudyPopulationBitwise)
{
    const FleetConfig config = smallCampaign();
    const FleetResult result = runFleetCampaign(config);
    EXPECT_EQ(statsDoc(result.stats),
              statsDoc(core::studyPopulation(config.population)));
    EXPECT_EQ(result.coverage.shardsTotal, 3);
    EXPECT_EQ(result.coverage.shardsCompleted, 3);
    EXPECT_EQ(result.coverage.shardsFailed, 0);
    EXPECT_EQ(result.coverage.chipsDone, 8);
    EXPECT_EQ(result.coverage.chipsSkipped, 0);
    EXPECT_FALSE(result.halted);
}

TEST(Supervisor, ForkedWorkersMatchInProcessBitwise)
{
    // The tentpole contract: any worker count, same bits -- stats
    // AND metric snapshot, which ride pipes and JSON in the forked
    // case.
    const FleetConfig serial = smallCampaign();
    const std::string reference = resultDoc(runFleetCampaign(serial));
    for (const int workers : {1, 2, 4}) {
        FleetConfig config = smallCampaign();
        config.workers = workers;
        EXPECT_EQ(resultDoc(runFleetCampaign(config)), reference)
            << workers << " workers";
    }
}

TEST(Supervisor, CrashInjectionRetriesAndStaysExact)
{
    const std::string reference =
        resultDoc(runFleetCampaign(smallCampaign()));
    FleetConfig config = smallCampaign();
    config.workers = 2;
    config.maxRetries = 2;
    config.failInject =
        FailInject::parse("shard=1,chip=1,times=2,mode=exit");
    const FleetResult result = runFleetCampaign(config);
    EXPECT_EQ(resultDoc(result), reference);
    EXPECT_EQ(result.coverage.shardsFailed, 0);
    EXPECT_EQ(result.coverage.retries, 2);
    ASSERT_EQ(result.coverage.shardRetries.size(), 1u);
    EXPECT_EQ(result.coverage.shardRetries[0].first, 1);
    EXPECT_EQ(result.coverage.shardRetries[0].second, 2);
}

TEST(Supervisor, HangInjectionTripsWatchdogAndRecovers)
{
    const std::string reference =
        resultDoc(runFleetCampaign(smallCampaign()));
    FleetConfig config = smallCampaign();
    config.workers = 2;
    config.maxRetries = 1;
    config.watchdogSeconds = 0.3;
    config.failInject =
        FailInject::parse("shard=0,chip=1,times=1,mode=hang");
    const FleetResult result = runFleetCampaign(config);
    EXPECT_EQ(resultDoc(result), reference);
    EXPECT_EQ(result.coverage.retries, 1);
}

TEST(Supervisor, ExhaustedRetriesDegradeGracefully)
{
    FleetConfig config = smallCampaign();
    config.workers = 2;
    config.maxRetries = 1;
    config.failInject =
        FailInject::parse("shard=1,chip=0,times=5,mode=exit");
    // Degradation is a normal return, not an error.
    const FleetResult result = runFleetCampaign(config);
    EXPECT_EQ(result.coverage.shardsCompleted, 2);
    EXPECT_EQ(result.coverage.shardsFailed, 1);
    ASSERT_EQ(result.coverage.failedShards.size(), 1u);
    EXPECT_EQ(result.coverage.failedShards[0], 1);
    EXPECT_EQ(result.coverage.chipsDone, 5);
    EXPECT_EQ(result.coverage.chipsSkipped, 3);
    EXPECT_EQ(result.stats.chipCount, 5);
    EXPECT_EQ(result.coverage.retries, 1);

    // The surviving shards still fold to the serial values: chips 0-2
    // and 6-7 of the same population, in order.
    core::PopulationStats expected;
    core::PopulationConfig population = config.population;
    for (const core::ChipSummary &chip :
         core::studyShard(population, 0, 3))
        core::foldChipSummary(expected, chip, population.robustSpread);
    for (const core::ChipSummary &chip :
         core::studyShard(population, 6, 8))
        core::foldChipSummary(expected, chip, population.robustSpread);
    EXPECT_EQ(statsDoc(result.stats), statsDoc(expected));
}

TEST(Supervisor, HaltAndResumeIsBitwiseExactAtEveryCut)
{
    const std::string reference =
        resultDoc(runFleetCampaign(smallCampaign()));
    // The process default, and in-process shards in waves of 4.
    const int before = exec::defaultJobs();
    for (const int jobs : {before, 4}) {
        exec::setDefaultJobs(jobs);
        for (const long cut : {1L, 2L}) {
            ScratchDir dir("cut" + std::to_string(cut));
            FleetConfig halted = smallCampaign();
            halted.checkpointDir = dir.path();
            halted.haltAfterShards = cut;
            const FleetResult partial = runFleetCampaign(halted);
            EXPECT_TRUE(partial.halted);
            EXPECT_EQ(partial.coverage.shardsCompleted, cut);

            FleetConfig resumed = smallCampaign();
            resumed.checkpointDir = dir.path();
            resumed.resume = true;
            const FleetResult full = runFleetCampaign(resumed);
            EXPECT_FALSE(full.halted);
            EXPECT_TRUE(full.coverage.resumed);
            EXPECT_EQ(resultDoc(full), reference)
                << "jobs " << jobs << ", cut at " << cut;
        }
    }
    exec::setDefaultJobs(before);
}

TEST(Supervisor, ForkedHaltAndResumeIsBitwiseExact)
{
    const std::string reference =
        resultDoc(runFleetCampaign(smallCampaign()));
    ScratchDir dir("forked");
    FleetConfig halted = smallCampaign();
    halted.workers = 2;
    halted.checkpointDir = dir.path();
    halted.haltAfterShards = 1;
    const FleetResult partial = runFleetCampaign(halted);
    EXPECT_TRUE(partial.halted);
    // Exactly at the cut, even when later shards report first.
    EXPECT_EQ(partial.coverage.shardsCompleted, 1);

    FleetConfig resumed = smallCampaign();
    resumed.workers = 2;
    resumed.checkpointDir = dir.path();
    resumed.resume = true;
    EXPECT_EQ(resultDoc(runFleetCampaign(resumed)), reference);
}

TEST(Supervisor, ResumeOfFinishedCampaignIsANoOp)
{
    ScratchDir dir("finished");
    FleetConfig config = smallCampaign();
    config.checkpointDir = dir.path();
    const std::string reference = resultDoc(runFleetCampaign(config));
    FleetConfig resumed = config;
    resumed.resume = true;
    const FleetResult again = runFleetCampaign(resumed);
    EXPECT_TRUE(again.coverage.resumed);
    EXPECT_EQ(resultDoc(again), reference);
    EXPECT_EQ(again.coverage.chipsDone, 8);
}

TEST(Supervisor, CorruptCheckpointFallsBackToFreshStart)
{
    ScratchDir dir("corrupt");
    std::ofstream(checkpointPath(dir.path())) << "garbage{";
    FleetConfig config = smallCampaign();
    config.checkpointDir = dir.path();
    config.resume = true;
    const FleetResult result = runFleetCampaign(config);
    EXPECT_FALSE(result.coverage.resumed);
    EXPECT_EQ(result.coverage.chipsDone, 8);
    EXPECT_EQ(statsDoc(result.stats),
              statsDoc(runFleetCampaign(smallCampaign()).stats));
}

TEST(Supervisor, StrictResumeRefusesBadCheckpoints)
{
    ScratchDir dir("strict");
    FleetConfig config = smallCampaign();
    config.checkpointDir = dir.path();
    config.resume = true;
    config.strictResume = true;
    // Missing checkpoint.
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    // Corrupt checkpoint.
    std::ofstream(checkpointPath(dir.path())) << "garbage{";
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    // Mismatched campaign.
    FleetConfig other = smallCampaign();
    other.population.seedBase = 801;
    other.checkpointDir = dir.path();
    (void)runFleetCampaign(other);
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
}

TEST(Supervisor, CheckpointCadenceIsRespected)
{
    ScratchDir dir("cadence");
    FleetConfig config = smallCampaign();
    config.checkpointDir = dir.path();
    config.checkpointEvery = 2;
    const FleetResult result = runFleetCampaign(config);
    // 3 shards at a cadence of 2: one periodic write plus the final
    // forced one.
    EXPECT_EQ(result.coverage.checkpointsWritten, 2);
}

TEST(Supervisor, ValidatesConfiguration)
{
    FleetConfig config = smallCampaign();
    config.workers = -1;
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    config = smallCampaign();
    config.shardSize = 0;
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    config = smallCampaign();
    config.resume = true; // no checkpoint dir
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    config = smallCampaign();
    config.strictResume = true; // without --resume
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    config = smallCampaign();
    config.maxRetries = -1;
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
    config = smallCampaign(); // in process: nothing to inject into
    config.failInject = FailInject::parse("shard=1");
    EXPECT_THROW((void)runFleetCampaign(config), util::FatalError);
}

} // namespace
} // namespace atmsim::fleet
