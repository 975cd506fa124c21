#include "core/characterizer.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "util/logging.h"
#include "variation/calibration.h"
#include "workload/catalog.h"

namespace atmsim::core {

using util::CpmSteps;
using util::Picoseconds;

int
LimitDistribution::limit() const
{
    if (maxSafe.empty())
        util::fatal("limit() on an empty distribution");
    return static_cast<int>(maxSafe.minValue());
}

Characterizer::Tally &
Characterizer::Tally::operator+=(const Tally &other)
{
    trials += other.trials;
    unsafe += other.unsafe;
    engineTrials += other.engineTrials;
    cores += other.cores;
    return *this;
}

class Characterizer::CallScope
{
  public:
    explicit CallScope(Characterizer &owner)
        : owner_(owner), exceptions_(std::uncaught_exceptions())
    {
        ++owner_.callDepth_;
    }

    CallScope(const CallScope &) = delete;
    CallScope &operator=(const CallScope &) = delete;

    // Registering a counter can throw; this never runs while unwinding.
    ~CallScope() noexcept(false)
    {
        if (--owner_.callDepth_ > 0)
            return;
        if (std::uncaught_exceptions() > exceptions_)
            owner_.tally_ = {};
        else
            owner_.flushTally();
    }

  private:
    Characterizer &owner_;
    int exceptions_;
};

void
Characterizer::flushTally()
{
    if (obs_.metrics) {
        const auto add = [this](obs::Counter *&handle, const char *name,
                                long count) {
            if (count == 0)
                return;
            if (!handle)
                handle = &obs_.metrics->counter(name);
            handle->inc(count);
        };
        add(handles_.trials, "characterizer.trials", tally_.trials);
        add(handles_.unsafe, "characterizer.trials.unsafe", tally_.unsafe);
        add(handles_.engineTrials, "characterizer.trials.engine",
            tally_.engineTrials);
        add(handles_.cores, "characterizer.cores", tally_.cores);
    }
    tally_ = {};
}

void
Characterizer::setObservability(const obs::Observability &sinks)
{
    obs_ = sinks;
    handles_ = {};
    traceTrack_ =
        obs_.trace ? obs_.trace->track("characterizer") : -1;
}

Characterizer::Characterizer(chip::Chip *target,
                             const CharacterizerConfig &config)
    : chip_(target), config_(config)
{
    if (!target)
        util::panic("Characterizer constructed with null chip");
    if (config_.reps < 1)
        util::fatal("characterizer needs at least 1 repetition");
    if (config_.reps < 8)
        util::warn("fewer than 8 repetitions does not cover the full "
                   "run-noise range; limits may be optimistic");
}

bool
Characterizer::trialSafe(int core, int reduction,
                         const workload::WorkloadTraits &traits, int rep)
{
    CallScope scope(*this);
    return runTrial(core, reduction, trialInputs(core, traits, rep));
}

Characterizer::TrialInputs
Characterizer::trialInputs(int core, const workload::WorkloadTraits &traits,
                           int rep) const
{
    const variation::CoreSiliconParams &silicon =
        chip_->core(core).silicon();
    TrialInputs in{traits, rep, variation::runNoisePs(silicon, rep), 0.0};
    if (config_.mode == CharacterizerConfig::Mode::Analytic) {
        in.extraPs = variation::scenarioExtraPs(
            silicon, chip::Chip::pathExposurePs(silicon, traits).value(),
            traits.droopMv);
    }
    return in;
}

bool
Characterizer::runTrial(int core, int reduction, const TrialInputs &in)
{
    ++tally_.trials;

    if (config_.mode == CharacterizerConfig::Mode::Analytic) {
        const bool safe = variation::analyticSafe(
            chip_->core(core).silicon(), CpmSteps{reduction},
            Picoseconds{in.extraPs}, Picoseconds{in.noisePs});
        if (!safe)
            ++tally_.unsafe;
        return safe;
    }

    // Engine mode: place the workload on the core under test (the
    // virus loads every core, per the test-time procedure), program
    // the reduction, and race the control loop for a window.
    chip_->clearAssignments();
    const bool chip_wide =
        in.traits.stress == workload::StressClass::Virus;
    for (int c = 0; c < chip_->coreCount(); ++c) {
        chip_->core(c).setMode(chip::CoreMode::AtmOverclock);
        chip_->core(c).setCpmReduction(CpmSteps{0});
        if (chip_wide || c == core)
            chip_->assignWorkload(c, &in.traits);
    }
    chip_->core(core).setCpmReduction(CpmSteps{reduction});

    sim::SimConfig sim_config;
    sim_config.runNoisePs = in.noisePs;
    sim_config.seed = config_.seed
                    ^ (static_cast<std::uint64_t>(core) << 32)
                    ^ (static_cast<std::uint64_t>(reduction) << 16)
                    ^ static_cast<std::uint64_t>(in.rep);
    sim::SimEngine engine(chip_, sim_config);
    engine.setObservability(obs_);
    ++tally_.engineTrials;
    const sim::RunResult result = engine.run(config_.engineWindowUs);

    // Restore a neutral state.
    chip_->clearAssignments();
    chip_->core(core).setCpmReduction(CpmSteps{0});

    for (const auto &ev : result.violations) {
        if (ev.core == core) {
            ++tally_.unsafe;
            return false;
        }
    }
    return true;
}

template <typename T, typename Fn>
std::vector<T>
Characterizer::shardedMap(std::size_t count, Fn &&fn)
{
    // Engine-mode trials mutate chip state (assignments, reductions,
    // clocks), so each task gets a private clone; trials are
    // history-free, so a clone answers exactly like the shared chip.
    // Analytic trials only read silicon and share the chip.
    const bool engine = config_.mode == CharacterizerConfig::Mode::Engine;
    // Only engine tasks record into a registry (their SimEngine's
    // metrics); the characterizer's own counts travel as tallies.
    const bool shard_metrics = engine && obs_.metrics != nullptr;
    // A run the pool executes inline (one job, or nested inside a pool
    // task) merges each shard as soon as its task returns: the same
    // merges in the same order, with one shard alive instead of
    // `count`. A task error is the only difference: the inline run
    // keeps the counts of the tasks that returned.
    const bool merge_each =
        shard_metrics
        && (exec::insideParallelTask()
            || exec::resolveJobs(config_.jobs) == 1);
    std::vector<std::unique_ptr<obs::MetricsRegistry>> shards(
        shard_metrics && !merge_each ? count : 0);

    std::vector<Tally> tallies(count);
    std::vector<T> out(count);
    exec::parallelFor(
        count,
        [&](std::size_t i) {
            Characterizer task = *this;
            // Traces stay on the caller's thread: event order inside
            // a parallel region would depend on scheduling.
            task.obs_.trace = nullptr;
            task.traceTrack_ = -1;
            // The task never flushes: its counts fold in below.
            task.tally_ = {};
            task.callDepth_ = 1;
            std::unique_ptr<chip::Chip> local;
            if (engine) {
                local = std::make_unique<chip::Chip>(
                    chip_->silicon(), chip_->config());
                task.chip_ = local.get();
            }
            std::unique_ptr<obs::MetricsRegistry> shard;
            if (shard_metrics)
                shard = std::make_unique<obs::MetricsRegistry>();
            task.obs_.metrics = shard.get();
            out[i] = fn(task, i);
            tallies[i] = task.tally_;
            if (merge_each)
                obs_.metrics->mergeFrom(*shard);
            else if (shard)
                shards[i] = std::move(shard);
        },
        config_.jobs);

    // Merge the metric shards in task-index order; double-valued
    // sums therefore group the same way at every job count.
    for (const auto &shard : shards)
        obs_.metrics->mergeFrom(*shard);
    for (const Tally &tally : tallies)
        tally_ += tally;
    return out;
}

int
Characterizer::maxSafeScan(int core, const TrialInputs &in, int start,
                           int ceiling)
{
    // Find the largest safe reduction for this repeat. The search
    // either starts at 0 (idle characterization) or at the previous
    // scenario's limit and rolls back on failure (Sec. V-B).
    if (!runTrial(core, start, in)) {
        int k = start;
        while (k > 0 && !runTrial(core, k, in))
            --k;
        return k;
    }
    return scanUp(core, in, start, ceiling);
}

int
Characterizer::scanUp(int core, const TrialInputs &in, int k, int cap)
{
    while (k < cap && runTrial(core, k + 1, in))
        ++k;
    return k;
}

int
Characterizer::scanFloor(
    int core, const std::vector<const workload::WorkloadTraits *> &marks,
    int cap)
{
    CallScope scope(*this);
    const auto reps = static_cast<std::size_t>(config_.reps);
    int lowest = cap;
    if (config_.mode == CharacterizerConfig::Mode::Analytic) {
        // Inline, each scan capped at the running minimum: a scan
        // that stops there cannot change min(lowest, k).
        for (const workload::WorkloadTraits *mark : marks) {
            for (std::size_t rep = 0; rep < reps; ++rep) {
                lowest = scanUp(
                    core, trialInputs(core, *mark, static_cast<int>(rep)),
                    0, lowest);
            }
        }
        return lowest;
    }
    // Engine mode: the pairs are independent, so each scans to cap on
    // its own clone and the minimum folds afterwards.
    const std::vector<int> limits = shardedMap<int>(
        marks.size() * reps, [&](Characterizer &task, std::size_t i) {
            return task.scanUp(
                core,
                task.trialInputs(core, *marks[i / reps],
                                 static_cast<int>(i % reps)),
                0, cap);
        });
    for (int k : limits)
        lowest = std::min(lowest, k);
    return lowest;
}

LimitDistribution
Characterizer::idleLimit(int core)
{
    CallScope scope(*this);
    const workload::WorkloadTraits &idle = workload::idleWorkload();
    const int ceiling = chip_->core(core).silicon().presetSteps;
    // Repeats are independent (the scan inside one repeat is not):
    // fan out one task per rep and fold the outcomes in rep order.
    const std::vector<int> safe = shardedMap<int>(
        static_cast<std::size_t>(config_.reps),
        [&](Characterizer &task, std::size_t rep) {
            return task.maxSafeScan(
                core, task.trialInputs(core, idle, static_cast<int>(rep)),
                0, ceiling);
        });
    LimitDistribution dist;
    for (int s : safe)
        dist.maxSafe.add(s);
    return dist;
}

LimitDistribution
Characterizer::ubenchLimit(int core, int idle_limit)
{
    CallScope scope(*this);
    // Rolls back from the idle limit; uBench never explores above it
    // (the procedure only retreats under stress).
    LimitDistribution dist;
    for (int s : rollbackScans(core, idle_limit, workload::ubenchPrograms()))
        dist.maxSafe.add(s);
    return dist;
}

std::vector<int>
Characterizer::rollbackScans(
    int core, int limit,
    const std::vector<const workload::WorkloadTraits *> &workloads)
{
    // One task per (workload, rep) cell.
    const auto reps = static_cast<std::size_t>(config_.reps);
    return shardedMap<int>(
        workloads.size() * reps, [&](Characterizer &task, std::size_t i) {
            return task.maxSafeScan(
                core,
                task.trialInputs(core, *workloads[i / reps],
                                 static_cast<int>(i % reps)),
                limit, limit);
        });
}

LimitDistribution
Characterizer::appLimit(int core, int ubench_limit,
                        const workload::WorkloadTraits &app)
{
    CallScope scope(*this);
    LimitDistribution dist;
    for (int s : rollbackScans(core, ubench_limit, {&app}))
        dist.maxSafe.add(s);
    return dist;
}

double
Characterizer::meanRollback(int core, int ubench_limit,
                            const workload::WorkloadTraits &app)
{
    CallScope scope(*this);
    // Fold in rep order: the double sum groups exactly like the old
    // sequential accumulation.
    double total = 0.0;
    for (int s : rollbackScans(core, ubench_limit, {&app}))
        total += static_cast<double>(ubench_limit - s);
    return total / static_cast<double>(config_.reps);
}

CoreLimits
Characterizer::characterizeCore(int core)
{
    CallScope scope(*this);
    obs::ScopedSpan span(obs_.trace, "characterize.core", traceTrack_);
    ++tally_.cores;
    CoreLimits limits;
    const variation::CoreSiliconParams &silicon =
        chip_->core(core).silicon();
    limits.coreName = silicon.name;

    LimitDistribution idle = idleLimit(core);
    limits.idle = idle.limit();
    limits.idleDist = idle.maxSafe;

    LimitDistribution ubench = ubenchLimit(core, limits.idle);
    limits.ubench = ubench.limit();
    limits.ubenchDist = ubench.maxSafe;

    // Every (app, rep) pair in one batch; each app's limit is the
    // most conservative of its reps.
    const auto apps = workload::profiledApps();
    const auto reps = static_cast<std::size_t>(config_.reps);
    const std::vector<int> safe = rollbackScans(core, limits.ubench, apps);
    int normal = limits.ubench;
    int worst = limits.ubench;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const workload::WorkloadTraits *app = apps[a];
        const auto first = safe.begin()
                         + static_cast<std::ptrdiff_t>(a * reps);
        const int app_limit = *std::min_element(
            first, first + static_cast<std::ptrdiff_t>(reps));
        worst = std::min(worst, app_limit);
        if (app->stress == workload::StressClass::Light
            || app->stress == workload::StressClass::Medium) {
            normal = std::min(normal, app_limit);
        }
    }
    limits.normal = normal;
    limits.worst = worst;

    limits.idleLimitFreqMhz =
        silicon.atmFrequencyMhz(CpmSteps{limits.idle}, 1.0).value();
    limits.worstLimitFreqMhz =
        silicon.atmFrequencyMhz(CpmSteps{limits.worst}, 1.0).value();
    return limits;
}

LimitTable
Characterizer::characterizeChip()
{
    CallScope scope(*this);
    obs::ScopedSpan span(obs_.trace, "characterize.chip", traceTrack_);
    LimitTable table;
    table.chipName = chip_->name();
    // Cores are fully independent: one task per core, results placed
    // in core order. Nested sweeps inside characterizeCore run
    // inline on the task's thread (see exec::insideParallelTask).
    table.cores = shardedMap<CoreLimits>(
        static_cast<std::size_t>(chip_->coreCount()),
        [](Characterizer &task, std::size_t c) {
            return task.characterizeCore(static_cast<int>(c));
        });
    return table;
}

RollbackMatrix
Characterizer::rollbackMatrix(const LimitTable &table)
{
    CallScope scope(*this);
    RollbackMatrix matrix;
    const auto apps = workload::profiledApps();
    for (const auto *app : apps)
        matrix.appNames.push_back(app->name);
    for (const auto &core : table.cores)
        matrix.coreNames.push_back(core.coreName);

    // One task per (app, core) cell of the Fig. 10 grid.
    const std::size_t n_cores = table.cores.size();
    const std::vector<double> cells = shardedMap<double>(
        apps.size() * n_cores,
        [&](Characterizer &task, std::size_t i) {
            const std::size_t a = i / n_cores;
            const std::size_t c = i % n_cores;
            return task.meanRollback(static_cast<int>(c),
                                     table.cores[c].ubench, *apps[a]);
        });
    matrix.meanRollback.resize(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a) {
        auto &row = matrix.meanRollback[a];
        row.assign(cells.begin()
                       + static_cast<std::ptrdiff_t>(a * n_cores),
                   cells.begin()
                       + static_cast<std::ptrdiff_t>((a + 1) * n_cores));
    }
    return matrix;
}

} // namespace atmsim::core
