#include "sim/sim_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/constants.h"
#include "fault/fault_injector.h"
#include "util/logging.h"
#include "workload/catalog.h"

namespace atmsim::sim {

using util::Amps;
using util::Celsius;
using util::Nanoseconds;
using util::Picoseconds;
using util::Seconds;
using util::Volts;
using util::Watts;

namespace {

/** Engine phase ids (indices into kPhaseNames). */
enum EnginePhase : std::size_t {
    kPhaseSettle = 0,
    kPhaseFaults,
    kPhaseThermal,
    kPhasePdn,
    kPhaseAtm,
    kPhaseViolation,
    kPhaseStats,
    kPhaseCount,
};

const char *const kPhaseNames[kPhaseCount] = {
    "engine.settle",    "engine.faults",          "engine.thermal_cadence",
    "engine.pdn_advance", "engine.atm_loop",
    "engine.violation_check", "engine.stats_sample",
};

/**
 * A core counts as drooping while its rail sits this far below its
 * DC operating point. The paper's Sec. III-B droop races live in the
 * tens-of-mV band; 30 mV marks the excursions big enough to matter
 * without flooding the flight recorder with supply ripple. The
 * sampled-mode quiet gate reuses the same threshold: a rail that
 * would not even register as a droop excursion is steady enough to
 * fast-forward over.
 */
constexpr double kFlightDroopThresholdV = 0.03;

/**
 * Times at or beyond this are treated as "never" when converting to a
 * step index (fault campaigns and activity generators report
 * +infinity / 1e30 sentinels when nothing is scheduled).
 */
constexpr double kUnboundedTimeNs = 1e17;

/** Metric instruments the engine updates, resolved once per run. */
struct EngineMetrics
{
    obs::Counter *runs = nullptr;
    obs::Counter *steps = nullptr;
    obs::Counter *samples = nullptr;
    obs::Counter *violations = nullptr;
    obs::Counter *detected = nullptr;
    obs::Counter *silent = nullptr;
    obs::Counter *emergencies = nullptr;
    obs::Counter *stoppedEarly = nullptr;
    obs::Counter *gridClamped = nullptr;
    obs::Counter *faultsActivated = nullptr;
    obs::Counter *faultsReverted = nullptr;
    obs::Counter *slewUps = nullptr;
    obs::Counter *slewDowns = nullptr;
    obs::Histogram *voltage = nullptr;
    obs::Histogram *freq = nullptr;
    obs::Histogram *deficit = nullptr;
    obs::Histogram *cpmWorst = nullptr;

    // Instrument resolution runs once per run(), before the step
    // loop starts; its lookups and allocations are off the hot path.
    // atmlint: contract(cold)
    explicit EngineMetrics(obs::MetricsRegistry *reg)
    {
        if (!reg)
            return;
        runs = &reg->counter("engine.runs");
        steps = &reg->counter("engine.steps");
        samples = &reg->counter("engine.samples");
        violations = &reg->counter("engine.violations.total");
        detected = &reg->counter("engine.violations.detected");
        silent = &reg->counter("engine.violations.silent");
        emergencies = &reg->counter("engine.emergencies");
        stoppedEarly = &reg->counter("engine.stopped_early");
        gridClamped = &reg->counter("engine.grid.clamped_cadences");
        faultsActivated = &reg->counter("engine.faults.activated");
        faultsReverted = &reg->counter("engine.faults.reverted");
        slewUps = &reg->counter("engine.dpll.slew_up");
        slewDowns = &reg->counter("engine.dpll.slew_down");
        voltage = &reg->histogram(
            "engine.core.voltage_v",
            obs::Histogram::linear(0.5, 1.3, 32));
        freq = &reg->histogram(
            "engine.core.freq_mhz",
            obs::Histogram::linear(1000.0, 5000.0, 40));
        deficit = &reg->histogram(
            "engine.violation.deficit_ps",
            obs::Histogram::linear(0.0, 100.0, 25));
        cpmWorst = &reg->histogram(
            "engine.cpm.worst_count",
            obs::Histogram::linear(0.0, 32.0, 32));
    }
};

/**
 * Chunked phase spans: instead of one trace event per step (which
 * would swamp the buffer at a 0.2 ns dt), the run flushes one
 * complete event per phase per flush point, spanning the wall time
 * that phase accumulated since the previous flush. Each phase gets
 * its own track, so Perfetto renders the chunks as parallel
 * swimlanes under the engine process.
 */
class PhaseSpanFlusher
{
  public:
    // Track resolution happens once, outside the step loop.
    // atmlint: contract(cold)
    PhaseSpanFlusher(obs::TraceCollector *trace,
                     const obs::PhaseProfiler &profiler)
        : trace_(trace), profiler_(profiler)
    {
        if (!trace_)
            return;
        for (std::size_t p = 0; p < kPhaseCount; ++p)
            tracks_[p] = trace_->track(kPhaseNames[p]);
    }

    void
    flush(double sim_ns)
    {
        if (!trace_)
            return;
        const double now_us = trace_->nowUs();
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            const double delta_ns =
                profiler_.wallNsSince(p, lastWallNs_[p]);
            if (delta_ns <= 0.0)
                continue;
            lastWallNs_[p] += delta_ns;
            const double dur_us = delta_ns * 1e-3;
            trace_->complete(kPhaseNames[p], tracks_[p],
                             now_us - dur_us, dur_us, sim_ns);
        }
    }

  private:
    obs::TraceCollector *trace_;
    const obs::PhaseProfiler &profiler_;
    int tracks_[kPhaseCount] = {};
    double lastWallNs_[kPhaseCount] = {};
};

// Profiler construction allocates its name table; carved out of the
// contracted run bodies (guaranteed copy elision hands the instance
// straight to the caller's local).
// atmlint: contract(cold)
obs::PhaseProfiler
makeEngineProfiler(bool wants_wall_clock)
{
    return obs::PhaseProfiler(
        std::vector<const char *>(kPhaseNames, kPhaseNames + kPhaseCount),
        wants_wall_clock);
}

/**
 * First step index whose simulation time is at or past `timeNs`.
 * Sentinel times (+inf, the generators' 1e30 "nothing scheduled")
 * map to a huge-but-overflow-safe index instead of tripping the
 * undefined double->long cast.
 */
ATM_HOT_PATH(engine_step)
[[nodiscard]] long
stepAtOrAfter(double timeNs, double dtNs) noexcept
{
    if (!(timeNs < kUnboundedTimeNs))
        return std::numeric_limits<long>::max() / 2;
    return static_cast<long>(std::ceil(timeNs / dtNs));
}

} // namespace

const char *
engineModeName(EngineMode mode)
{
    switch (mode) {
      case EngineMode::Soa:
        return "soa";
      case EngineMode::Sampled:
        return "sampled";
    }
    return "unknown";
}

bool
engineModeFromName(std::string_view name, EngineMode &out)
{
    if (name == "soa") {
        out = EngineMode::Soa;
        return true;
    }
    if (name == "sampled") {
        out = EngineMode::Sampled;
        return true;
    }
    return false;
}

SimEngine::SimEngine(chip::Chip *target, const SimConfig &config)
    : chip_(target), config_(config)
{
    if (!target)
        util::panic("SimEngine constructed with null chip");
    if (config_.dtNs <= 0.0 || config_.dtNs > 1.0)
        util::fatal("engine time step ", config_.dtNs,
                    " ns outside (0, 1]");
}

double
SimEngine::eventCurrentFor(const variation::CoreSiliconParams &core,
                           const workload::WorkloadTraits &traits,
                           int synchronized_cores) const
{
    // Size the current pulse so the core-local excursion equals the
    // workload's characteristic droop: shared-grid droop (superposed
    // across any synchronized co-pulsing cores) plus local-branch IR.
    // Per-core vulnerability is applied on the receiving side, in
    // EngineSoaState::timingDeficitPs().
    (void)core;
    const double droop_v = traits.droopMv * 1e-3;
    const double gain_v_per_a =
        chip_->pdn().stepDroopV(Amps{1.0}).value()
            * std::max(synchronized_cores, 1)
        + chip_->config().pdnParams.coreLocalResOhm;
    // A periodic synchronized wave partially rides the PDN resonance;
    // derate its swing so the built-up excursion matches the
    // characteristic droop (the 1-in-128 issue throttle also never
    // fully idles the pipeline).
    const double swing = synchronized_cores > 1 ? 0.9 : 1.0;
    return droop_v * swing / gain_v_per_a;
}

/**
 * Per-run scratch shared by the step loop, the fast-forward and their
 * phase helpers, sized once in prepareRun() so the hot loops never
 * allocate.
 */
struct SimEngine::RunScratch
{
    std::vector<workload::ActivityGenerator> activity;
    std::vector<Picoseconds> exposurePs;
    std::vector<double> activityW;
    chip::ChipSteadyState steady;
    std::vector<Watts> corePower;
    std::vector<Amps> coreCurrent;
    std::vector<Amps> instantCurrent;
    Amps uncoreCurrent{0.0};
    std::vector<char> inViolation;
    std::vector<char> inDroop;
    std::vector<CoreSample> frame;
    std::vector<std::size_t> faultEdges;
    util::Rng failRng{0};
    Seconds dtStep{0.0};
    Seconds dtSlow{0.0};
    long totalSteps = 0;

    /** Next fault activation or expiration; +inf when the campaign is
     *  exhausted (or absent). The step loop skips the campaign scan
     *  entirely until simulation time reaches this. */
    double nextFaultEdgeNs = std::numeric_limits<double>::infinity();

    // Indexed violation store (the capacity is a true bound, so the
    // hot path writes by index instead of push_back).
    std::size_t violationCap = 0;
    std::size_t violationCount = 0;

    // Sampled-mode steady-state trackers.
    long prevDpllAdjustments = 0;
    double prevPkgC = 0.0;
    bool thermalQuiet = true;
};

/** Loop-invariant references threaded through the phase helpers and
 *  the sampled-mode fast-forward (all owned by run()'s frame). */
struct SimEngine::SoaCtx
{
    chip::Chip &chip;
    EngineSoaState &soa;
    RunScratch &scratch;
    RunResult &result;
    EngineMetrics &met;
    obs::PhaseProfiler &profiler;
    PhaseSpanFlusher &spans;
    obs::FlightRecorder *flight;
    util::WarnThrottle &gridWarn;
};

// Per-run setup: activity generators, DC settle, clock resets,
// campaign arming, result sizing, observer onRunStart. Runs once
// before the step loop; its allocations are off the hot path.
// atmlint: contract(cold)
void
SimEngine::prepareRun(RunScratch &scratch, RunResult &result,
                      double duration_us)
{
    chip::Chip &chip = *chip_;
    const int n = chip.coreCount();
    util::Rng rng(config_.seed);

    // --- Per-core setup from the current assignments.
    scratch.exposurePs.assign(static_cast<std::size_t>(n),
                              Picoseconds{0.0});
    scratch.activityW.assign(static_cast<std::size_t>(n), 0.0);
    scratch.activity.clear();
    scratch.activity.reserve(static_cast<std::size_t>(n));
    int synchronized_cores = 0;
    for (int c = 0; c < n; ++c) {
        const chip::CoreAssignment &slot = chip.assignment(c);
        if (!slot.idle()
            && slot.traits->stress == workload::StressClass::Virus) {
            ++synchronized_cores;
        }
    }
    for (int c = 0; c < n; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const chip::CoreAssignment &slot = chip.assignment(c);
        const workload::WorkloadTraits &traits =
            slot.idle() ? workload::idleWorkload() : *slot.traits;
        const variation::CoreSiliconParams &silicon =
            chip.core(c).silicon();
        scratch.exposurePs[ci] = chip::Chip::pathExposurePs(silicon,
                                                            traits);
        scratch.activityW[ci] = slot.idle()
                              ? 0.0
                              : traits.coreActivityW(slot.threads);
        const int sync =
            traits.stress == workload::StressClass::Virus
                ? synchronized_cores
                : 1;
        scratch.activity.emplace_back(
            &traits, eventCurrentFor(silicon, traits, sync),
            rng.fork(static_cast<std::uint64_t>(c) + 7));
    }

    // --- Settle the DC operating point and start the clocks there.
    scratch.steady = chip.solveSteadyState();
    scratch.corePower = scratch.steady.corePowerW;
    scratch.coreCurrent.assign(static_cast<std::size_t>(n), Amps{0.0});
    {
        std::vector<Amps> dc(static_cast<std::size_t>(n), Amps{0.0});
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            dc[ci] = power::PowerModel::currentA(
                scratch.corePower[ci], scratch.steady.gridVoltageV);
        }
        scratch.uncoreCurrent = power::PowerModel::currentA(
            chip.powerModel().uncoreW(scratch.steady.gridVoltageV),
            scratch.steady.gridVoltageV);
        chip.pdn().settle(dc, scratch.uncoreCurrent);
        chip.thermal().settle(scratch.corePower,
                              chip.powerModel().uncoreW(
                                  scratch.steady.gridVoltageV));
        scratch.coreCurrent = dc;
    }
    for (int c = 0; c < n; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        chip.resetClock(c, scratch.steady.coreVoltageV[ci],
                        scratch.steady.coreTempC[ci]);
    }

    // --- Fault campaign arming. Scratch for edge collection is sized
    // once so the step loop never grows it (a campaign can fire at
    // most every spec at one edge).
    if (campaign_) {
        campaign_->validate(n);
        campaign_->reset();
        scratch.faultEdges.reserve(campaign_->size());
        scratch.nextFaultEdgeNs = campaign_->nextEdgeNs();
    }

    // --- Result sizing and loop constants.
    result.coreStats.resize(static_cast<std::size_t>(n));
    const double duration_ns = duration_us * 1e3;
    scratch.totalSteps =
        static_cast<long>(std::ceil(duration_ns / config_.dtNs));
    const double dt_s = config_.dtNs * 1e-9;
    scratch.dtStep = Seconds{dt_s};
    scratch.dtSlow = Seconds{dt_s * config_.slowCadence};
    scratch.instantCurrent.assign(static_cast<std::size_t>(n),
                                  Amps{0.0});
    scratch.inViolation.assign(static_cast<std::size_t>(n), 0);
    scratch.inDroop.assign(static_cast<std::size_t>(n), 0);
    scratch.frame.resize(static_cast<std::size_t>(n));
    scratch.failRng = rng.fork(0xfa11);

    // Violation episodes are rare, but growing the store inside the
    // loop is avoidable: a stop-on-violation run holds at most one
    // episode per core (the step that fires them is the last), and a
    // ride-through run stores at most the cap. Pre-sizing to the true
    // bound lets the loop write by index.
    scratch.violationCap = config_.stopOnViolation
                               ? static_cast<std::size_t>(n)
                               : kMaxStoredViolations;
    scratch.violationCount = 0;
    result.violations.resize(scratch.violationCap);

    // Tell per-sample recorders how much to expect (stats samples at
    // step 0, statsCadence, 2*statsCadence, ...).
    const std::size_t expected_samples =
        scratch.totalSteps <= 0
            ? 0
            : static_cast<std::size_t>(
                  (scratch.totalSteps - 1) / config_.statsCadence + 1);
    for (EngineObserver *o : observers_)
        o->onRunStart(expected_samples);
}

// The observer fan-outs are the only virtual dispatch reachable from
// the step loop; isolating them gives the hot-path baseline a stable
// symbol to pin (and the optimizer a single outlined cold-ish call).
// atmlint: contract(engine_step)
void
SimEngine::dispatchViolation(ViolationEvent &event)
{
    for (EngineObserver *o : observers_) {
        if (o->onViolation(event))
            event.detected = true;
    }
}

// atmlint: contract(engine_step)
void
SimEngine::dispatchSample(util::Nanoseconds now,
                          const std::vector<CoreSample> &frame)
{
    for (EngineObserver *o : observers_)
        o->onSample(now, frame);
}

// Observer finish fan-out + violation-store trim; runs once after
// the step loop.
// atmlint: contract(cold)
void
SimEngine::finishRun(RunScratch &scratch, RunResult &result)
{
    result.violations.resize(
        std::min(scratch.violationCount, scratch.violationCap));
    for (EngineObserver *o : observers_)
        o->finish(Nanoseconds{result.durationNs}, result.safety);
}

// Slow-cadence refresh: re-evaluate every core's DC power draw at
// its current clock, voltage and temperature, convert it to branch
// currents against the (clamped) grid voltage, and advance the
// thermal stack one slow step. In sampled mode it also updates the
// thermal flatness gate of the steady-state detector.
void
SimEngine::refreshPowerThermal(SoaCtx &ctx, double now_ns)
{
    chip::Chip &chip = ctx.chip;
    EngineSoaState &soa = ctx.soa;
    RunScratch &scratch = ctx.scratch;
    const int n = chip.coreCount();
    const Volts grid_v = chip.pdn().gridV();
    const Watts uncore_w = chip.powerModel().uncoreW(grid_v);
    const Volts grid_floor = std::max(grid_v, Volts{0.6});
    if (grid_v < Volts{0.6}) {
        if (ctx.met.gridClamped)
            ctx.met.gridClamped->inc();
        ctx.gridWarn.warn("grid voltage ", grid_v.value(),
                          " V clamped to 0.6 V at t=", now_ns, " ns");
    }
    for (int c = 0; c < n; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        Watts p;
        if (soa.gated(ci)) {
            p = Watts{0.25};
        } else {
            const chip::CoreAssignment &slot = chip.assignment(c);
            const double phase_scale =
                slot.idle() ? 1.0
                            : slot.traits->phaseActivityScale(now_ns
                                                              * 1e-3);
            p = chip.powerModel().coreTotalW(
                Watts{scratch.activityW[ci] * phase_scale},
                util::frequencyOf(Picoseconds{soa.periodPs(ci)}),
                std::max(Volts{soa.coreV(ci)}, Volts{0.6}),
                Celsius{soa.tempC(ci)});
        }
        scratch.corePower[ci] = p;
        scratch.coreCurrent[ci] = power::PowerModel::currentA(p, grid_floor);
    }
    scratch.uncoreCurrent =
        power::PowerModel::currentA(uncore_w, grid_floor);
    chip.thermal().step(scratch.dtSlow, scratch.corePower, uncore_w);
    soa.refreshTemps(chip);
    if (config_.mode == EngineMode::Sampled) {
        const double pkg = chip.thermal().packageTempC().value();
        scratch.thermalQuiet = std::fabs(pkg - scratch.prevPkgC)
                               <= config_.steady.thermalFlatC;
        scratch.prevPkgC = pkg;
    }
}

// Stats-cadence fold: build the observer frame and fold it into the
// run statistics, the metric histograms and the flight recorder.
// Observer dispatch stays with the caller (fast-forward decimates it).
void
SimEngine::foldStats(SoaCtx &ctx, double now_ns)
{
    chip::Chip &chip = ctx.chip;
    EngineSoaState &soa = ctx.soa;
    RunScratch &scratch = ctx.scratch;
    RunResult &result = ctx.result;
    EngineMetrics &met = ctx.met;
    obs::FlightRecorder *const flight = ctx.flight;
    const int n = chip.coreCount();
    double chip_power =
        chip.powerModel().uncoreW(chip.pdn().gridV()).value();
    for (int c = 0; c < n; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const Volts v{soa.coreV(ci)};
        const util::Mhz f = util::frequencyOf(Picoseconds{soa.periodPs(ci)});
        const bool gated = soa.gated(ci);
        scratch.frame[ci] = {f, v, gated};
        auto &cs = result.coreStats[ci];
        if (!gated) {
            cs.freqMhz.add(f.value());
            cs.voltageV.add(v.value());
            cs.minVoltageV = cs.voltageV.count() == 1
                           ? v.value()
                           : std::min(cs.minVoltageV, v.value());
            if (met.voltage || flight) {
                const int worst = soa.lastWorstCount(ci);
                if (met.voltage) {
                    met.voltage->record(v.value());
                    met.freq->record(f.value());
                    if (worst >= 0)
                        met.cpmWorst->record(worst);
                }
                if (flight) {
                    flight->record(c, obs::FlightEventKind::Fmax, now_ns,
                                   f.value());
                    if (worst >= 0)
                        flight->record(c, obs::FlightEventKind::Margin,
                                       now_ns, worst);
                }
            }
        }
        chip_power += scratch.corePower[ci].value();
    }
    result.chipPowerW.add(chip_power);
    result.maxCoreTempC = std::max(result.maxCoreTempC,
                                   chip.thermal().maxCoreTempC().value());
    if (met.samples)
        met.samples->inc();
}

// The step loop sits under the engine_step hot-path contract: at a
// 0.2 ns dt a millisecond of sim time is five million iterations, so
// nothing reachable from here may allocate, lock, stream, or read a
// wall clock (per-run setup that must do those things is carved out
// with contract(cold) markers on the helpers above). The four
// per-core inner loops index the contiguous arrays of EngineSoaState,
// and the control advance and the violation race run as branch-light
// kernels over them. Sampled mode rides the same loop and
// fast-forwards through detected steady state.
// atmlint: contract(engine_step)
RunResult
SimEngine::run(double duration_us)
{
    chip::Chip &chip = *chip_;
    const int n = chip.coreCount();
    const double run_start_wall_ns = obs::monotonicWallNs();

    // --- Observability wiring (all optional). The profiler charges
    // two clock reads per phase, so it keys off the backends that
    // consume wall time -- a flight-recorder-only attachment stays on
    // the sim-time-only fast path.
    obs::PhaseProfiler profiler =
        makeEngineProfiler(obs_.wantsWallClock());
    EngineMetrics met(obs_.metrics);
    obs::FlightRecorder *const flight = obs_.flight;
    PhaseSpanFlusher spans(obs_.trace, profiler);
    int trk_violations = 0;
    int trk_faults = 0;
    if (obs_.trace) {
        trk_violations = obs_.trace->track("engine.violations");
        trk_faults = obs_.trace->track("engine.fault_edges");
    }
    if (met.runs)
        met.runs->inc();
    util::WarnThrottle grid_warn("engine.grid");

    RunScratch scratch;
    RunResult result;
    double t0 = profiler.begin();
    prepareRun(scratch, result, duration_us);
    profiler.end(kPhaseSettle, t0);

    // Restores what its faults touched when the run ends.
    fault::FaultInjector injector(chip_);

    EngineSoaState soa;
    soa.build(chip, scratch.exposurePs, scratch.steady.coreVoltageV,
              config_.runNoisePs);

    const bool sampled = config_.mode == EngineMode::Sampled;
    SteadyStateDetector detect(config_.steady);
    const bool have_observers = !observers_.empty();
    scratch.prevPkgC = chip.thermal().packageTempC().value();

    SoaCtx ctx{chip,     soa,   scratch, result, met,
               profiler, spans, flight,  grid_warn};

    long step = 0;
    for (; step < scratch.totalSteps; ++step) {
        const double now_ns = static_cast<double>(step) * config_.dtNs;

        // True when anything this step reconfigured the chip (fault
        // edge, observer action): kills the quiet streak in sampled
        // mode.
        bool config_edge = false;

        // Fire and expire armed faults. The scan is skipped entirely
        // until simulation time reaches the next known edge -- a
        // campaign's effects happen only at edges, so the gate is
        // behavior-preserving. The kernels read the reconfigured
        // cores in place; only the cached temperatures are refreshed
        // after.
        if (campaign_ && now_ns >= scratch.nextFaultEdgeNs) {
            t0 = profiler.begin();
            scratch.faultEdges.clear();
            campaign_->collectActivations(now_ns, scratch.faultEdges);
            for (std::size_t f : scratch.faultEdges) {
                injector.apply(campaign_->spec(f));
                if (met.faultsActivated)
                    met.faultsActivated->inc();
                if (obs_.trace) {
                    obs_.trace->instant("fault.activate", trk_faults,
                                        now_ns,
                                        static_cast<long>(f));
                }
                if (flight && campaign_->spec(f).core >= 0) {
                    flight->record(campaign_->spec(f).core,
                                   obs::FlightEventKind::FaultInject,
                                   now_ns, static_cast<double>(f));
                }
            }
            scratch.faultEdges.clear();
            campaign_->collectExpirations(now_ns, scratch.faultEdges);
            for (std::size_t f : scratch.faultEdges) {
                injector.revert(campaign_->spec(f));
                if (met.faultsReverted)
                    met.faultsReverted->inc();
                if (obs_.trace) {
                    obs_.trace->instant("fault.revert", trk_faults,
                                        now_ns,
                                        static_cast<long>(f));
                }
                if (flight && campaign_->spec(f).core >= 0) {
                    flight->record(campaign_->spec(f).core,
                                   obs::FlightEventKind::FaultRevert,
                                   now_ns, static_cast<double>(f));
                }
            }
            scratch.nextFaultEdgeNs = campaign_->nextEdgeNs();
            soa.refreshTemps(chip);
            config_edge = true;
            profiler.end(kPhaseFaults, t0);
        }

        // Slow cadence: refresh DC power draw and temperatures.
        if (step % config_.slowCadence == 0) {
            t0 = profiler.begin();
            refreshPowerThermal(ctx, now_ns);
            profiler.end(kPhaseThermal, t0);
            spans.flush(now_ns);
        }

        // Electrical step. The summed |transient| doubles as the
        // sampled-mode quiet signal: any nonzero di/dt injection this
        // step means the rails are in motion.
        t0 = profiler.begin();
        double transient_total = 0.0;
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            const double transient =
                soa.gated(ci)
                    ? 0.0
                    : scratch.activity[ci].transientCurrentA(now_ns);
            transient_total += std::fabs(transient);
            scratch.instantCurrent[ci] =
                scratch.coreCurrent[ci] + Amps{transient};
            if (injector.stormActive())
                scratch.instantCurrent[ci] +=
                    Amps{injector.stormCurrentA(c, now_ns)};
        }
        chip.pdn().step(scratch.dtStep, scratch.instantCurrent,
                        scratch.uncoreCurrent);
        soa.refreshCoreV(chip, scratch.instantCurrent);
        profiler.end(kPhasePdn, t0);

        // Flight-recorder droop edges: one event per excursion below
        // the DC operating point, one on recovery. Edge-triggered so
        // a sustained droop costs two ring slots, not one per step.
        if (flight) {
            for (int c = 0; c < n; ++c) {
                const auto ci = static_cast<std::size_t>(c);
                const double v = soa.coreV(ci);
                const double limit =
                    scratch.steady.coreVoltageV[ci].value()
                    - kFlightDroopThresholdV;
                if (v < limit) {
                    if (!scratch.inDroop[ci]) {
                        scratch.inDroop[ci] = 1;
                        flight->record(
                            c, obs::FlightEventKind::DroopEnter,
                            now_ns, v);
                    }
                } else if (scratch.inDroop[ci]) {
                    scratch.inDroop[ci] = 0;
                    flight->record(c, obs::FlightEventKind::DroopExit,
                                   now_ns, v);
                }
            }
        }

        // Per-core ATM control loops, as one kernel over the arrays.
        t0 = profiler.begin();
        soa.controlStepAll(now_ns);
        profiler.end(kPhaseAtm, t0);

        // The timing race, against the array state. A violation is
        // counted once per episode: contiguous violating steps are one
        // event, and the episode ends when the core meets timing again
        // (gated cores always do). A monitor that reconfigures a core
        // (quarantine, fallback) moves the chip's configuration
        // generation, which marks the step as a configuration edge.
        t0 = profiler.begin();
        bool violated = false;
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            double deficit = 0.0;
            if (!soa.gated(ci))
                deficit = soa.timingDeficitPs(ci);
            if (deficit <= 0.0) {
                scratch.inViolation[ci] = 0;
                continue;
            }
            if (scratch.inViolation[ci])
                continue;
            scratch.inViolation[ci] = 1;
            ViolationEvent ev;
            ev.timeNs = now_ns;
            ev.core = c;
            ev.deficitPs = deficit;
            const double u = scratch.failRng.uniform();
            ev.kind = u < 0.3 ? FailureKind::SystemCrash
                    : u < 0.8 ? FailureKind::AbnormalExit
                              : FailureKind::SilentDataCorruption;
            if (have_observers) {
                const long generation = chip.configGeneration();
                dispatchViolation(ev);
                if (chip.configGeneration() != generation)
                    config_edge = true;
            }
            if (ev.detected) {
                ++result.safety.detectedViolations;
            } else if (ev.kind
                       == FailureKind::SilentDataCorruption) {
                ++result.safety.silentFailures;
            }
            if (met.violations) {
                met.violations->inc();
                if (ev.detected)
                    met.detected->inc();
                else if (ev.kind
                         == FailureKind::SilentDataCorruption)
                    met.silent->inc();
                met.deficit->record(ev.deficitPs);
            }
            if (obs_.trace) {
                obs_.trace->instant("violation", trk_violations,
                                    now_ns, c);
            }
            if (flight) {
                flight->record(c, obs::FlightEventKind::Violation,
                               now_ns, ev.deficitPs);
                // A timing violation is exactly what the black box
                // exists for: latch the dump request so the session
                // flushes the ring even on a clean exit.
                flight->requestDump();
            }
            if (scratch.violationCount < scratch.violationCap)
                result.violations[scratch.violationCount] = ev;
            else
                ++result.safety.droppedViolationEvents;
            ++scratch.violationCount;
            ++result.coreStats[ci].violations;
            violated = true;
        }
        profiler.end(kPhaseViolation, t0);
        if (violated && config_.stopOnViolation) {
            result.stoppedEarly = true;
            ++step;
            break;
        }

        // Statistics cadence.
        if (step % config_.statsCadence == 0) {
            t0 = profiler.begin();
            foldStats(ctx, now_ns);
            if (have_observers) {
                const long generation = chip.configGeneration();
                dispatchSample(Nanoseconds{now_ns}, scratch.frame);
                if (chip.configGeneration() != generation)
                    config_edge = true;
            }
            profiler.end(kPhaseStats, t0);
        }

        // Sampled mode: feed the steady-state detector and, once
        // armed, fast-forward to just before the next scheduled event
        // (fault edge, di/dt pulse, end of run).
        if (sampled) {
            const bool quiet =
                !violated && !config_edge
                && soa.dpllAdjustments() == scratch.prevDpllAdjustments
                && transient_total <= 0.0
                && !injector.stormActive()
                && scratch.thermalQuiet
                && soa.railsQuiet(kFlightDroopThresholdV);
            scratch.prevDpllAdjustments = soa.dpllAdjustments();
            detect.note(quiet);
            if (detect.armed()) {
                const long from = step + 1;
                const long guard = config_.steady.guardSteps;
                long wake = scratch.totalSteps;
                if (campaign_) {
                    wake = std::min(
                        wake, stepAtOrAfter(scratch.nextFaultEdgeNs,
                                            config_.dtNs)
                                  - guard);
                }
                for (int c = 0; c < n; ++c) {
                    const auto ci = static_cast<std::size_t>(c);
                    if (soa.gated(ci)
                        || scratch.activity[ci].eventCurrentA()
                               <= 0.0) {
                        continue;
                    }
                    wake = std::min(
                        wake,
                        stepAtOrAfter(
                            scratch.activity[ci].nextEventNs(),
                            config_.dtNs)
                            - guard);
                }
                if (wake - from
                    >= static_cast<long>(config_.steady.minChunkSteps))
                {
                    if (flight) {
                        flight->record(
                            0, obs::FlightEventKind::FastForwardEnter,
                            now_ns, static_cast<double>(from));
                    }
                    const long resumed =
                        fastForwardSoa(ctx, from, wake);
                    result.fastForwardedSteps += resumed - from;
                    if (flight) {
                        flight->record(
                            0, obs::FlightEventKind::FastForwardExit,
                            static_cast<double>(resumed)
                                * config_.dtNs,
                            static_cast<double>(resumed - from));
                    }
                    detect.reset();
                    step = resumed - 1;
                }
            }
        }
    }

    for (int c = 0; c < n; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        result.coreStats[ci].emergencies = chip.emergencyCount(c);
        result.safety.emergencies += result.coreStats[ci].emergencies;
    }
    result.minGridV = chip.pdn().minGridV().value();
    result.durationNs = static_cast<double>(step) * config_.dtNs;
    finishRun(scratch, result);

    // --- Run performance record + final observability flush.
    result.steps = step;
    result.factorFallbacks = soa.factorFallbacks();
    result.wallSeconds =
        (obs::monotonicWallNs() - run_start_wall_ns) * 1e-9;
    if (profiler.enabled())
        result.phaseStats = profiler.snapshot();
    spans.flush(result.durationNs);
    if (met.steps) {
        met.steps->inc(step);
        met.emergencies->inc(result.safety.emergencies);
        if (result.stoppedEarly)
            met.stoppedEarly->inc();
        const dpll::DpllBankSoa &bank = chip.loops().dpll;
        for (std::size_t c = 0; c < bank.slewUps.size(); ++c) {
            met.slewUps->inc(bank.slewUps[c]);
            met.slewDowns->inc(bank.slewDowns[c]);
        }
    }
    return result;
}

// Sampled-mode fast-forward: with the PDN frozen at its settled
// state, only the cadence points do any work -- thermal/power and the
// control loops at the slow cadence, the statistics fold at the stats
// cadence -- so the steps between cadence points are skipped in O(1).
// Exits (returning the step where cycle stepping resumes) on any sign
// the steady state broke: a DPLL adjustment, a positive timing
// deficit, a thermal drift past the flatness gate, or an observer
// reconfiguration.
// atmlint: contract(engine_step)
long
SimEngine::fastForwardSoa(SoaCtx &ctx, long from_step, long to_step)
{
    chip::Chip &chip = ctx.chip;
    EngineSoaState &soa = ctx.soa;
    RunScratch &scratch = ctx.scratch;
    const int n = static_cast<int>(soa.coreCount());
    const long slow = config_.slowCadence;
    const long stats = config_.statsCadence;
    const bool have_observers = !observers_.empty();

    long s = from_step;
    while (s < to_step) {
        // Jump to the next cadence point; nothing happens between
        // them while the electrical state is frozen.
        const long next_slow = ((s + slow - 1) / slow) * slow;
        const long next_stats = ((s + stats - 1) / stats) * stats;
        const long target = std::min(next_slow, next_stats);
        if (target >= to_step)
            return to_step;
        s = target;
        const double now_ns = static_cast<double>(s) * config_.dtNs;
        bool wake = false;

        if (s % slow == 0) {
            double t0 = ctx.profiler.begin();
            refreshPowerThermal(ctx, now_ns);
            if (!scratch.thermalQuiet)
                wake = true;

            // Control advance + violation probe at the slow cadence:
            // any control action or developing deficit hands back to
            // cycle stepping immediately.
            const long before_adjustments = soa.dpllAdjustments();
            soa.controlStepAll(now_ns);
            scratch.prevDpllAdjustments = soa.dpllAdjustments();
            if (soa.dpllAdjustments() != before_adjustments)
                wake = true;
            for (int c = 0; c < n && !wake; ++c) {
                const auto ci = static_cast<std::size_t>(c);
                if (!soa.gated(ci) && soa.timingDeficitPs(ci) > 0.0)
                    wake = true;
            }
            ctx.profiler.end(kPhaseThermal, t0);
            ctx.spans.flush(now_ns);
        }

        if (s % stats == 0) {
            double t0 = ctx.profiler.begin();
            foldStats(ctx, now_ns);
            // Observer dispatch is decimated to the slow-cadence
            // points while fast-forwarding: the frame is frozen, so
            // the skipped dispatches would hand observers identical
            // samples, and any observer deadline lands within one
            // slow cadence (~10 ns) of its exact step. The stats
            // folds above still run at full cadence, so sample
            // counts and table means are unaffected. EXPERIMENTS.md
            // documents this as part of the sampled-mode envelope.
            if (have_observers && s % slow == 0) {
                const long generation = chip.configGeneration();
                dispatchSample(Nanoseconds{now_ns}, scratch.frame);
                if (chip.configGeneration() != generation)
                    wake = true;
            }
            ctx.profiler.end(kPhaseStats, t0);
        }

        ++s;
        if (wake)
            return s;
    }
    return s;
}

} // namespace atmsim::sim
