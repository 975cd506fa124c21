/**
 * @file
 * Fleet campaign supervisor: crash-resilient sharded population
 * studies.
 *
 * The supervisor partitions a chip population into contiguous shards
 * (fleet/protocol.h) and drives them to completion across a pool of
 * forked worker processes, owning every piece of failure policy:
 *
 *  - liveness: workers heartbeat after every chip; a shard whose
 *    worker goes silent past the watchdog timeout is killed and
 *    treated exactly like a crash;
 *  - retry: a crashed or hung shard is re-assigned (to any worker)
 *    with exponential backoff, at most maxRetries times -- only the
 *    failed shard re-runs, never the campaign, and re-runs are
 *    deterministic because every chip derives from seedBase + index;
 *  - checkpointing: the fold state is persisted every
 *    checkpointEvery decided shards (fleet/checkpoint.h), so
 *    `--resume` continues a killed campaign exactly where it stopped;
 *  - graceful degradation: when a shard exhausts its retries the
 *    campaign still completes with the surviving shards, and the
 *    coverage record states truthfully what was lost.
 *
 * Determinism contract: shard results fold through
 * core::foldChipSummary and MetricsRegistry::mergeFrom in strict
 * shard-index order, so the aggregate of a fleet run -- any worker
 * count, any crash/retry/resume history short of abandoned shards --
 * is bitwise-identical to the serial core::studyPopulation fold.
 */

#pragma once

#include <string>

#include "core/population.h"
#include "fleet/protocol.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace atmsim::fleet {

/** Campaign parameters. */
struct FleetConfig
{
    /** Population under study (chip identity, seeds, robustness). */
    core::PopulationConfig population;

    /**
     * Forked worker processes. 0 runs the campaign in-process
     * through the identical shard/fold path, in waves of the process
     * default job count (no fork, so no fault injection).
     */
    int workers = 0;

    /** Chips per shard (the retry/checkpoint granule). */
    int shardSize = 4;

    /** Checkpoint directory; empty disables checkpointing. */
    std::string checkpointDir;

    /** Checkpoint after every N decided shards. */
    int checkpointEvery = 1;

    /** Continue from the checkpoint in checkpointDir. */
    bool resume = false;

    /**
     * Refuse to fall back to a fresh start when resume finds a
     * missing, corrupt, or mismatched checkpoint (fatal instead).
     */
    bool strictResume = false;

    /** Re-assignments allowed per shard before it is abandoned. */
    int maxRetries = 2;

    /** Silence (no heartbeat) after which a worker counts as hung. */
    double watchdogSeconds = 30.0;

    /** Base retry backoff; doubles per failed attempt of a shard. */
    double backoffSeconds = 0.25;

    /** Deterministic worker fault injection (forked workers only;
     *  fatal with workers == 0). */
    FailInject failInject;

    /**
     * Test hook: stop the campaign once this many shards are
     * decided (checkpoint written, FleetResult::halted set). -1
     * disables. This makes "kill the campaign at an arbitrary
     * point" a deterministic operation for the resume tests.
     */
    long haltAfterShards = -1;
};

/** Campaign outcome. */
struct FleetResult
{
    /** Aggregate over every completed shard, in shard order. */
    core::PopulationStats stats;

    /** Metric fold over every completed shard, in shard order. */
    obs::MetricsSnapshot metrics;

    /** Truthful coverage record (feeds the run manifest). */
    obs::FleetManifest coverage;

    /**
     * Streamed worker spans of completed shards, ascending by shard,
     * spans in arrival (sequence) order -- ready for the merged
     * Chrome trace's pid/tid lanes. Empty for in-process campaigns;
     * a resumed campaign carries only the spans of shards completed
     * after the resume (span batches are not checkpointed). The
     * name/arg sequence is deterministic; wall-clock fields vary run
     * to run like every other trace timestamp.
     */
    std::vector<obs::ProcessSpans> spanBatches;

    /** Stopped early by FleetConfig::haltAfterShards. */
    bool halted = false;
};

/**
 * Run a campaign to completion (or to the halt hook). Degraded
 * completion -- shards abandoned after exhausted retries -- is a
 * normal return with the loss recorded in `coverage`; only
 * configuration errors and checkpoint I/O failures are fatal.
 */
[[nodiscard]] FleetResult runFleetCampaign(const FleetConfig &config);

} // namespace atmsim::fleet
