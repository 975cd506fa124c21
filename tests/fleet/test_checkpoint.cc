#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/population.h"
#include "fleet/checkpoint.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace atmsim::fleet {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory per test, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_((fs::path(::testing::TempDir()) / ("fleet_ckpt_" + tag))
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

CampaignFingerprint
fingerprint()
{
    CampaignFingerprint fp;
    fp.chipCount = 6;
    fp.shardSize = 2;
    fp.seedBase = 900;
    fp.robustSpread = 1;
    return fp;
}

CheckpointData
sampleData()
{
    CheckpointData data;
    data.fingerprint = fingerprint();
    data.decidedShards = 2;
    data.failedShards = {1};
    data.shardRetries = {{1, 2}, {2, 1}};
    data.totalRetries = 3;

    core::PopulationConfig config;
    config.chipCount = 6;
    config.seedBase = 900;
    const std::vector<core::ChipSummary> chips =
        core::studyShard(config, 0, 2);
    for (const core::ChipSummary &chip : chips)
        core::foldChipSummary(data.stats, chip, config.robustSpread);

    obs::MetricsRegistry registry;
    registry.counter("fleet.chips_done").inc(2);
    registry.histogram("spread", obs::Histogram::linear(0.0, 8.0, 4))
        .record(1.5);
    data.metrics = registry.snapshot();

    ShardResult pending;
    pending.shard = 2;
    pending.chips = core::studyShard(config, 4, 6);
    pending.metrics = registry.snapshot();
    data.pending.push_back(pending);
    return data;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

TEST(Checkpoint, SaveLoadRoundTrip)
{
    ScratchDir dir("roundtrip");
    const CheckpointData data = sampleData();
    saveCheckpoint(dir.path(), data);
    const CheckpointLoadResult loaded =
        loadCheckpoint(dir.path(), fingerprint());
    ASSERT_EQ(loaded.status, CheckpointStatus::Loaded)
        << loaded.message;
    EXPECT_EQ(loaded.data.decidedShards, 2);
    EXPECT_EQ(loaded.data.failedShards, data.failedShards);
    EXPECT_EQ(loaded.data.shardRetries, data.shardRetries);
    EXPECT_EQ(loaded.data.totalRetries, 3);
    EXPECT_TRUE(loaded.data.metrics == data.metrics);
    ASSERT_EQ(loaded.data.pending.size(), 1u);
    EXPECT_EQ(loaded.data.pending[0].shard, 2);
    EXPECT_EQ(loaded.data.pending[0].chips.size(), 2u);
    EXPECT_EQ(loaded.data.stats.chipCount, data.stats.chipCount);
    EXPECT_EQ(loaded.data.stats.differentials,
              data.stats.differentials);
}

TEST(Checkpoint, SaveIsAtomic)
{
    ScratchDir dir("atomic");
    saveCheckpoint(dir.path(), sampleData());
    // No temp file survives a successful save.
    EXPECT_FALSE(fs::exists(checkpointPath(dir.path()) + ".tmp"));
    // Overwriting in place keeps the file loadable throughout.
    saveCheckpoint(dir.path(), sampleData());
    EXPECT_EQ(loadCheckpoint(dir.path(), fingerprint()).status,
              CheckpointStatus::Loaded);
}

TEST(Checkpoint, MissingFileIsNoCheckpoint)
{
    ScratchDir dir("missing");
    const CheckpointLoadResult loaded =
        loadCheckpoint(dir.path(), fingerprint());
    EXPECT_EQ(loaded.status, CheckpointStatus::NoCheckpoint);
    EXPECT_EQ(loadCheckpoint(dir.path() + "/nonexistent", fingerprint())
                  .status,
              CheckpointStatus::NoCheckpoint);
}

TEST(Checkpoint, TruncationAtEveryRegionIsCorrupt)
{
    // Kill-during-write corruption matrix: a checkpoint cut anywhere
    // must load as Corrupt (diagnostic, fresh start), never crash,
    // never half-load.
    ScratchDir dir("truncate");
    saveCheckpoint(dir.path(), sampleData());
    const std::string full = readFile(checkpointPath(dir.path()));
    ASSERT_GT(full.size(), 64u);
    for (const double fraction : {0.05, 0.25, 0.5, 0.75, 0.95}) {
        const std::size_t keep = static_cast<std::size_t>(
            static_cast<double>(full.size()) * fraction);
        writeFile(checkpointPath(dir.path()), full.substr(0, keep));
        const CheckpointLoadResult loaded =
            loadCheckpoint(dir.path(), fingerprint());
        EXPECT_EQ(loaded.status, CheckpointStatus::Corrupt)
            << "cut at " << keep << " of " << full.size();
        EXPECT_FALSE(loaded.message.empty());
    }
}

TEST(Checkpoint, EmptyAndGarbageFilesAreCorrupt)
{
    ScratchDir dir("garbage");
    writeFile(checkpointPath(dir.path()), "");
    EXPECT_EQ(loadCheckpoint(dir.path(), fingerprint()).status,
              CheckpointStatus::Corrupt);
    writeFile(checkpointPath(dir.path()), "not json at all \x01\x02");
    EXPECT_EQ(loadCheckpoint(dir.path(), fingerprint()).status,
              CheckpointStatus::Corrupt);
    writeFile(checkpointPath(dir.path()), "[1, 2, 3]");
    EXPECT_EQ(loadCheckpoint(dir.path(), fingerprint()).status,
              CheckpointStatus::Corrupt);
}

TEST(Checkpoint, SchemaDriftIsCorrupt)
{
    ScratchDir dir("schema");
    saveCheckpoint(dir.path(), sampleData());
    std::string text = readFile(checkpointPath(dir.path()));
    const std::size_t pos = text.find(kCheckpointSchema);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string(kCheckpointSchema).size(),
                 "atmsim-fleet-ckpt-v9");
    writeFile(checkpointPath(dir.path()), text);
    const CheckpointLoadResult loaded =
        loadCheckpoint(dir.path(), fingerprint());
    EXPECT_EQ(loaded.status, CheckpointStatus::Corrupt);
    EXPECT_NE(loaded.message.find("atmsim-fleet-ckpt-v9"),
              std::string::npos);
}

TEST(Checkpoint, DifferentCampaignIsMismatch)
{
    ScratchDir dir("mismatch");
    saveCheckpoint(dir.path(), sampleData());
    CampaignFingerprint other = fingerprint();
    other.seedBase = 901;
    const CheckpointLoadResult loaded =
        loadCheckpoint(dir.path(), other);
    EXPECT_EQ(loaded.status, CheckpointStatus::Mismatch);
    EXPECT_NE(loaded.message.find("different campaign"),
              std::string::npos);

    other = fingerprint();
    other.shardSize = 3;
    EXPECT_EQ(loadCheckpoint(dir.path(), other).status,
              CheckpointStatus::Mismatch);
}

TEST(Checkpoint, StructuralViolationsAreCorrupt)
{
    ScratchDir dir("structure");
    // A pending shard inside the decided prefix would double-fold.
    CheckpointData data = sampleData();
    data.pending[0].shard = 0;
    saveCheckpoint(dir.path(), data);
    EXPECT_EQ(loadCheckpoint(dir.path(), fingerprint()).status,
              CheckpointStatus::Corrupt);

    // A failed shard outside the decided prefix is incoherent.
    data = sampleData();
    data.failedShards = {5};
    saveCheckpoint(dir.path(), data);
    EXPECT_EQ(loadCheckpoint(dir.path(), fingerprint()).status,
              CheckpointStatus::Corrupt);
}

TEST(Checkpoint, NegativeStatsCountsAreCorrupt)
{
    // A negative count must not wrap to a huge unsigned one and
    // resume folding into garbage.
    ScratchDir dir("negative");
    saveCheckpoint(dir.path(), sampleData());
    const std::string text = readFile(checkpointPath(dir.path()));
    const std::size_t stats = text.find("\"stats\":");
    ASSERT_NE(stats, std::string::npos);

    // Welford sample count of a running-stats accumulator.
    const std::string n_key = "\"idle_limit_mhz\":{\"n\":";
    const std::size_t n_at = text.find(n_key, stats);
    ASSERT_NE(n_at, std::string::npos);
    std::string bad = text;
    bad.insert(n_at + n_key.size(), "-");
    writeFile(checkpointPath(dir.path()), bad);
    CheckpointLoadResult loaded = loadCheckpoint(dir.path(), fingerprint());
    EXPECT_EQ(loaded.status, CheckpointStatus::Corrupt);
    EXPECT_NE(loaded.message.find("negative"), std::string::npos);

    // Count of the first [value, count] pair of the idle histogram.
    const std::size_t pair_at =
        text.find("\"idle_limit_steps\":[[", stats);
    ASSERT_NE(pair_at, std::string::npos);
    const std::size_t comma = text.find(',', pair_at);
    ASSERT_NE(comma, std::string::npos);
    bad = text;
    bad.insert(comma + 1, "-");
    writeFile(checkpointPath(dir.path()), bad);
    loaded = loadCheckpoint(dir.path(), fingerprint());
    EXPECT_EQ(loaded.status, CheckpointStatus::Corrupt);
    EXPECT_NE(loaded.message.find("negative"), std::string::npos);
}

TEST(Checkpoint, StatusNamesArePrintable)
{
    EXPECT_STREQ(checkpointStatusName(CheckpointStatus::Loaded),
                 "loaded");
    EXPECT_STREQ(checkpointStatusName(CheckpointStatus::NoCheckpoint),
                 "no-checkpoint");
    EXPECT_STREQ(checkpointStatusName(CheckpointStatus::Corrupt),
                 "corrupt");
    EXPECT_STREQ(checkpointStatusName(CheckpointStatus::Mismatch),
                 "mismatch");
}

} // namespace
} // namespace atmsim::fleet
