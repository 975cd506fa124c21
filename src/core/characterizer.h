/**
 * @file
 * The systematic ATM characterization procedure of Sec. III-B /
 * Fig. 6: per core, from the simplest scenario to the most complex --
 * system idle, then uBench (coremark, daxpy, stream), then realistic
 * single-threaded workloads -- with repeated runs per configuration to
 * build distributions of the most aggressive safe CPM setting.
 *
 * Two execution modes:
 *  - Analytic: closed-form safety decision (fast; used by the
 *    benchmark harnesses and the management layer), and
 *  - Engine: full time-stepped simulation with di/dt events racing
 *    the DPLL (slow; validates the analytic mode).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/chip.h"
#include "core/limit_table.h"
#include "obs/phase.h"
#include "workload/workload.h"

namespace atmsim::core {

/** Characterization settings. */
struct CharacterizerConfig
{
    /** Execution mode. */
    enum class Mode { Analytic, Engine };
    Mode mode = Mode::Analytic;

    /**
     * Repeated runs per configuration. Eight stratified repeats cover
     * the whole run-noise range (see variation::runNoisePs).
     */
    int reps = 8;

    /** Engine-mode run window per trial (us). */
    double engineWindowUs = 6.0;

    /** Engine-mode random seed base. */
    std::uint64_t seed = 2024;

    /**
     * Parallelism for the rep/core/cell sweeps (0 = the process
     * default, 1 = inline). Any value produces bitwise-identical
     * tables and metric snapshots: every trial's seed and noise are
     * derived from (core, reduction, rep) alone, results fold in
     * index order, and engine-mode tasks run on private chip clones
     * (trials are history-free, so a clone answers exactly like the
     * shared chip).
     */
    int jobs = 0;
};

/** Distribution of per-run max-safe configurations for one scenario. */
struct LimitDistribution
{
    util::IntHistogram maxSafe;

    /** The scenario limit: the most conservative run's outcome. */
    [[nodiscard]] int limit() const;
};

/** Runs the Fig. 6 characterization methodology on one chip. */
class Characterizer
{
  public:
    /**
     * @param target Chip to characterize (not owned). Engine mode
     *        mutates its assignments and CPM settings during trials
     *        and restores reduction 0 / idle assignments afterwards.
     * @param config Settings.
     */
    Characterizer(chip::Chip *target, const CharacterizerConfig &config = {});

    /**
     * Single trial: is this CPM delay reduction safe for this
     * workload on this core in repetition rep?
     */
    bool trialSafe(int core, int reduction,
                   const workload::WorkloadTraits &traits, int rep);

    /** Step 1: idle-limit distribution (Fig. 7). */
    LimitDistribution idleLimit(int core);

    /**
     * Step 2: uBench limit, starting from the idle limit and rolling
     * back on failure (Fig. 8). The limit is the most conservative
     * outcome across the three uBench programs and all repeats.
     */
    LimitDistribution ubenchLimit(int core, int idle_limit);

    /**
     * Step 3: per-application limit, starting from the uBench limit
     * (Fig. 9).
     */
    LimitDistribution appLimit(int core, int ubench_limit,
                               const workload::WorkloadTraits &app);

    /**
     * Mean CPM rollback from the uBench limit for an app on a core
     * (one cell of Fig. 10).
     */
    double meanRollback(int core, int ubench_limit,
                        const workload::WorkloadTraits &app);

    /**
     * Lowest upward-scan limit over every (mark, rep) pair: the
     * minimum over the pairs of `k = 0; while (k < cap &&
     * trialSafe(core, k + 1, mark, rep)) ++k;`.
     *
     * Engine mode fans the pairs out (one private chip clone each),
     * so the result and metrics are identical at every job count.
     * Analytic mode scans inline and caps each scan at the running
     * minimum -- a scan stopped there cannot lower it -- because its
     * trials cost less than a pool dispatch.
     */
    int scanFloor(int core,
                  const std::vector<const workload::WorkloadTraits *> &marks,
                  int cap);

    /** Full characterization of one core (one Table I column). */
    CoreLimits characterizeCore(int core);

    /** Full characterization of the chip (Table I). */
    LimitTable characterizeChip();

    /** Fig. 10: rollback matrix over the profiled apps. */
    RollbackMatrix rollbackMatrix(const LimitTable &table);

    [[nodiscard]] const CharacterizerConfig &config() const { return config_; }

    /**
     * Attach observability backends (none owned): trials tick
     * `characterizer.*` counters, per-core characterization runs
     * become trace spans, and engine-mode trials propagate the bundle
     * into the spawned SimEngine. The counters are kept as an integer
     * tally and added to the registry when the outermost public call
     * returns; a counter whose tally is zero is not created.
     */
    void setObservability(const obs::Observability &sinks);

  private:
    /** Counts not yet added to obs_.metrics. */
    struct Tally
    {
        long trials = 0;
        long unsafe = 0;
        long engineTrials = 0;
        long cores = 0;

        Tally &operator+=(const Tally &other);
    };

    /** Registry counters, resolved on their first nonzero flush. */
    struct CounterHandles
    {
        obs::Counter *trials = nullptr;
        obs::Counter *unsafe = nullptr;
        obs::Counter *engineTrials = nullptr;
        obs::Counter *cores = nullptr;
    };

    /**
     * Marks a public call; the outermost one adds the tally to the
     * registry when it returns (and drops it when it throws).
     */
    class CallScope;

    /**
     * What a trial needs besides the reduction. The run noise and the
     * analytic scenario delay depend only on (core, traits, rep), so
     * a scan computes them once and reuses them for every trial.
     */
    struct TrialInputs
    {
        const workload::WorkloadTraits &traits;
        int rep;
        double noisePs;  ///< variation::runNoisePs(silicon, rep).
        double extraPs;  ///< variation::scenarioExtraPs (analytic only).
    };

    [[nodiscard]] TrialInputs
    trialInputs(int core, const workload::WorkloadTraits &traits,
                int rep) const;

    /** trialSafe() without the call scope: the per-trial path. */
    bool runTrial(int core, int reduction, const TrialInputs &in);

    /** Add the tally to obs_.metrics (if attached) and zero it. */
    void flushTally();

    /** Largest safe reduction for one repeat, scanning upward. */
    int maxSafeScan(int core, const TrialInputs &in, int start,
                    int ceiling);

    /** Climb from a known-safe k while k + 1 is safe, up to cap. */
    int scanUp(int core, const TrialInputs &in, int k, int cap);

    /**
     * maxSafeScan rolling back from `limit` (never above it) for every
     * (workload, rep) pair in one parallel batch; workload-major.
     */
    std::vector<int> rollbackScans(
        int core, int limit,
        const std::vector<const workload::WorkloadTraits *> &workloads);

    /**
     * Deterministic parallel map over `count` independent tasks:
     * out[i] = fn(task_characterizer, i). Each task counts into a
     * zeroed tally of its own, added to this one in index order
     * afterwards. Engine-mode tasks also run on a private chip clone
     * and record their SimEngine metrics into a private registry
     * merged back in index order, at every job count -- including 1
     * -- so floating-point metric sums group identically regardless
     * of --jobs. Analytic tasks get no registry.
     */
    template <typename T, typename Fn>
    std::vector<T> shardedMap(std::size_t count, Fn &&fn);

    chip::Chip *chip_;
    CharacterizerConfig config_;

    obs::Observability obs_;
    int traceTrack_ = -1;

    Tally tally_;
    CounterHandles handles_;

    /** Public calls in progress on this object. */
    int callDepth_ = 0;
};

} // namespace atmsim::core
