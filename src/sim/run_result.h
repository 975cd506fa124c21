/**
 * @file
 * Results of a time-stepped engine run: per-core frequency traces,
 * power/thermal envelopes, the timing-violation events that manifest
 * as the failures the paper observes (abnormal application exit,
 * silent data corruption, system crash), and the run's own
 * performance record (steps advanced, wall time, per-phase
 * breakdown) feeding the run-provenance manifests.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.h"
#include "util/stats.h"

namespace atmsim::sim {

/** How a timing violation manifested (Sec. III-B). */
enum class FailureKind {
    AbnormalExit,          ///< e.g. segmentation fault
    SilentDataCorruption,  ///< caught by result checking
    SystemCrash,           ///< checkstop / hang
};

/** Printable failure-kind name. */
[[nodiscard]] const char *failureKindName(FailureKind kind);

/**
 * One observed timing-violation episode. An episode starts when a
 * core's real path first misses its cycle and ends when the core
 * meets timing again (e.g. after the control loop stretches the clock
 * or a safety monitor reconfigures the core); contiguous violating
 * steps belong to one episode.
 */
struct ViolationEvent
{
    double timeNs = 0.0;
    int core = -1;
    double deficitPs = 0.0; ///< How far the path missed the cycle.
    FailureKind kind = FailureKind::AbnormalExit;
    bool detected = false;  ///< A safety monitor caught this episode.
};

/**
 * Safety counters of one engine run: how the chip and the (optional)
 * safety monitor fared under faults. The engine fills the violation
 * accounting; an attached monitor merges its quarantine/recovery
 * bookkeeping at the end of the run.
 */
struct SafetyCounters
{
    /** DPLL emergency engagements, summed over cores. */
    long emergencies = 0;

    /** Violation episodes a monitor observed and reacted to. */
    long detectedViolations = 0;

    /**
     * Silent failures: violation episodes nobody detected whose
     * manifestation is silent data corruption. Crashes and abnormal
     * exits are loud even without a monitor; SDC is not.
     */
    long silentFailures = 0;

    /** Anomalous-sensor detections (caught before a violation). */
    long anomalies = 0;

    /** Cores pulled back to the safe default configuration. */
    long quarantines = 0;

    /** Escalations from quarantine to the static-margin fallback. */
    long fallbacks = 0;

    /** Staged re-entry steps taken toward fine-tuned limits. */
    long reentrySteps = 0;

    /** Cores fully recovered to their fine-tuned deployment. */
    long recoveries = 0;

    /** Core-time spent below the fine-tuned deployment (ns). */
    double degradedTimeNs = 0.0;

    /** Violation events not stored in RunResult (cap exceeded). */
    long droppedViolationEvents = 0;

    /** Render one line per non-zero counter. */
    void print(std::ostream &os) const;

    /**
     * Named (counter, value) view, in declaration order -- the
     * manifest writer and metric exporters iterate this instead of
     * hand-copying every field.
     */
    [[nodiscard]] std::vector<std::pair<const char *, double>> named() const;
};

/**
 * Exact-path fallbacks of the engine's delay-factor filter in one run
 * (DESIGN.md, engine architecture): how often a bracket from
 * DelayModel::factorBracket could not decide and DelayModel::factor
 * ran. Host-side bookkeeping, like the wall time: the results are the
 * same bits either way, so digest() leaves it out.
 */
struct FactorFallbacks
{
    long control = 0; ///< CPM scans whose bracketed counts differed.
    long deficit = 0; ///< Violation tests with a deficit maybe > 0.
};

/** Per-core statistics of one run. */
struct CoreRunStats
{
    util::RunningStats freqMhz;
    util::RunningStats voltageV;
    double minVoltageV = 0.0;
    long emergencies = 0;
    long violations = 0; ///< Violation episodes (not violating steps).
};

/** Aggregate result of one engine run. */
struct RunResult
{
    double durationNs = 0.0;
    std::vector<CoreRunStats> coreStats;
    util::RunningStats chipPowerW;
    double maxCoreTempC = 0.0;
    double minGridV = 0.0;

    /**
     * Stored violation episodes, capped at kMaxStoredViolations; the
     * per-core episode counts in coreStats and the safety counters
     * keep accumulating past the cap (the overflow is tallied in
     * safety.droppedViolationEvents).
     */
    std::vector<ViolationEvent> violations;
    bool stoppedEarly = false;

    /** Safety accounting (violation detection, monitor activity). */
    SafetyCounters safety;

    // --- Run performance record ----------------------------------------

    /** Engine steps actually advanced. */
    long steps = 0;

    /**
     * Steps covered by sampled-mode fast-forward (a subset of steps:
     * they were skipped over with closed-form updates instead of
     * being cycle-stepped). 0 in Soa mode.
     */
    long fastForwardedSteps = 0;

    /** Delay-factor filter fallbacks (not part of digest()). */
    FactorFallbacks factorFallbacks;

    /** Wall-clock time spent inside run() (seconds; always filled). */
    double wallSeconds = 0.0;

    /**
     * Per-phase wall-clock breakdown. Filled only when observability
     * is attached to the engine (profiling is off otherwise).
     */
    std::vector<obs::PhaseStat> phaseStats;

    /** Steps/sec throughput of this run (0 when unmeasured). */
    [[nodiscard]] double stepsPerSecond() const;

    /** True when any violation occurred. */
    [[nodiscard]] bool failed() const { return !violations.empty(); }

    /** Sum of per-core violation episodes. */
    [[nodiscard]] long totalViolations() const;

    /** Mean frequency of one core over the run (MHz). */
    [[nodiscard]] double meanFreqMhz(int core) const;
};

/** Cap on stored ViolationEvent entries per run. */
inline constexpr std::size_t kMaxStoredViolations = 4096;

/**
 * Digest of everything a run simulated: FNV-1a-64 over a hexfloat
 * rendering of every accumulator, violation event and safety counter
 * (host-time fields -- wall time, phase stats -- excluded). Equal
 * digests mean bitwise-equal results; the engine's golden identity
 * constants are values of this function.
 */
[[nodiscard]] std::uint64_t digest(const RunResult &result);

} // namespace atmsim::sim
