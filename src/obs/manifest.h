/**
 * @file
 * Run-provenance manifests.
 *
 * A manifest is the machine-readable record of one harness run: what
 * binary ran, with which seed, chip, configuration and fault
 * campaign, how much wall time it took, how many engine steps it
 * advanced (and therefore the steps/sec throughput), the wall-clock
 * breakdown per engine phase, the end-of-run safety counters, and a
 * full metrics snapshot. Checked-in manifests are the repo's perf
 * baseline: CI regenerates one and rejects a >30% steps/sec
 * regression (tools/bench/check_regression.py), and any two
 * manifests are directly diffable because every field is named and
 * the metrics snapshot is sorted.
 *
 * The schema is documented in docs/OBSERVABILITY.md and validated by
 * tools/bench/validate_manifest.py.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase.h"

namespace atmsim::obs {

/** Manifest schema identifier (bump on breaking changes). */
inline constexpr const char *kManifestSchema = "atmsim-run-manifest-v2";

/**
 * Last-streamed observations of shards a worker slot abandoned. When
 * retries are exhausted (or a worker is SIGKILLed and never retried)
 * the shard's results are lost to the campaign fold -- but the
 * worker streamed periodic partial snapshots while it ran, and this
 * block preserves the last one per shard so degraded campaigns
 * report what was actually observed instead of silently dropping it.
 * Kept separate from the campaign metrics: folding partials into the
 * main registry would break the bitwise serial-equivalence contract.
 */
struct WorkerPartialManifest
{
    bool present = false;
    std::vector<long> shards; ///< Abandoned shards, ascending.
    long chipsObserved = 0;   ///< Chips observed before abandonment.
    MetricsSnapshot metrics;  ///< Folded last partial snapshots.
};

/** Observability record of one fleet worker slot. */
struct WorkerManifest
{
    long worker = 0;          ///< Worker slot index.
    long pid = 0;             ///< Last pid in the slot (0 = unknown).
    long shardsCompleted = 0; ///< Shards this slot folded.
    long chipsObserved = 0;   ///< Chips streamed via obs messages.
    long obsMessages = 0;     ///< Obs messages received.
    long spanEvents = 0;      ///< Spans merged into the fleet trace.
    long spansDropped = 0;    ///< Spans dropped at the worker's cap.
    WorkerPartialManifest partial;
};

/**
 * Coverage record of a fleet campaign (bench/fleet_study). The
 * robustness contract requires the manifest to be *truthful* under
 * degradation: when retries are exhausted the campaign still
 * completes, and these fields record exactly which coverage was lost
 * instead of pretending the run was whole.
 */
struct FleetManifest
{
    bool present = false;     ///< Emitted only when a campaign ran.

    long shardsTotal = 0;     ///< Shards the population partitioned into.
    long shardsCompleted = 0; ///< Shards folded into the results.
    long shardsFailed = 0;    ///< Shards abandoned after max retries.
    long chipsTotal = 0;      ///< Chips in the configured population.
    long chipsDone = 0;       ///< Chips covered by completed shards.
    long chipsSkipped = 0;    ///< Chips lost with failed shards.
    long retries = 0;         ///< Worker re-spawns across all shards.
    long checkpointsWritten = 0; ///< Checkpoints persisted this run.
    bool resumed = false;     ///< Continued from a checkpoint.

    /** (shard index, retry count) for every shard that retried. */
    std::vector<std::pair<long, long>> shardRetries;

    /** Indices of shards abandoned after exhausted retries. */
    std::vector<long> failedShards;

    /** Worker processes requested (--workers; 0 = in-process). */
    long workersConfigured = 0;

    /** Per-worker-slot observability, ordered by slot index. */
    std::vector<WorkerManifest> workers;
};

/** Provenance + performance record of one run. */
struct RunManifest
{
    /** Harness/binary name, e.g. "fig11_stress_test". */
    std::string tool;

    /** Chip under test (reference-chip name), empty when n/a. */
    std::string chip;

    /** Primary random seed of the run. */
    std::uint64_t seed = 0;

    /**
     * Worker threads the harness ran with (--jobs). Provenance only:
     * outputs are jobs-invariant, wall-clock fields are not.
     */
    int jobs = 1;

    /**
     * The --jobs value as given on the command line, before the
     * harness resolved a default; 0 when the flag was absent (the
     * manifest then reports null) so a reader can tell "asked for 2"
     * from "defaulted to 2 on a 2-way machine".
     */
    int jobsRequested = 0;

    /** Command-line arguments (without argv[0]). */
    std::vector<std::string> args;

    /** Fault campaign text, empty when none was attached. */
    std::string faultCampaign;

    /** Free-form configuration key/value pairs (SimConfig, ...). */
    std::vector<std::pair<std::string, std::string>> config;

    /** End-to-end wall time of the harness (seconds). */
    double wallSeconds = 0.0;

    // --- Engine totals (zero when no engine ran) -----------------------

    long engineRuns = 0;      ///< SimEngine::run invocations.
    long engineSteps = 0;     ///< Total engine steps advanced.
    double engineWallSeconds = 0.0; ///< Wall time inside run().
    double engineSimNs = 0.0; ///< Total simulated time (ns).

    /** Engine execution mode ("soa", "sampled"). */
    std::string engineMode = "soa";

    /** Steps covered by sampled-mode fast-forward (subset of
     *  engineSteps; 0 outside sampled mode). */
    long engineFastForwardedSteps = 0;

    /** Engine throughput; the CI regression gate reads this. */
    [[nodiscard]] double stepsPerSec() const;

    /**
     * Cycle-stepping work avoided by fast-forward:
     * steps / (steps - fast_forwarded_steps). 1.0 outside sampled
     * mode (or when the detector never armed).
     */
    [[nodiscard]] double fastForwardSpeedup() const;

    /** Per-phase wall-clock breakdown (engine phases). */
    std::vector<PhaseStat> phases;

    /** Named scalar counters (safety counters, harness totals). */
    std::vector<std::pair<std::string, double>> counters;

    /**
     * True when the run was cut short by SIGINT/SIGTERM and the
     * manifest was flushed from the signal path -- partial totals,
     * honestly labelled.
     */
    bool interrupted = false;

    /** Fleet campaign coverage (present only for fleet harnesses). */
    FleetManifest fleet;

    /** Metrics snapshot taken at the end of the run. */
    MetricsSnapshot metrics;

    /** Append/overwrite one named counter. */
    void setCounter(const std::string &name, double value);

    /** Serialize the manifest as a JSON document. */
    void writeJson(std::ostream &os) const;
};

} // namespace atmsim::obs
