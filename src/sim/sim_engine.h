/**
 * @file
 * Fixed-timestep simulation engine for one chip.
 *
 * Each step advances the PDN (sub-nanosecond electrical state), the
 * thermal stack (on a coarser cadence), the workload activity
 * generators (di/dt current events), the per-core ATM control loops,
 * and the timing-violation check that races the real critical path
 * against the instantaneous clock period. This is the detailed-mode
 * counterpart of the closed-form analytic model; the two agree on
 * characterization limits to within one CPM step.
 *
 * The step loop runs structure-of-arrays kernels over
 * sim/soa_state.h in two modes (SimConfig::mode; DESIGN.md, engine
 * architecture): Soa cycle-steps every step and is held bit for bit
 * to the golden identity digests (sim::digest); Sampled adds a
 * steady-state detector that fast-forwards through quiet stretches
 * and re-enters cycle stepping around di/dt events, fault edges, and
 * governor actions (approximate -- see EXPERIMENTS.md for the
 * validity envelope).
 *
 * Observability: attach an obs::Observability bundle to record
 * engine metrics (violation counters, sampled voltage/frequency
 * histograms) and per-phase Chrome-trace spans. When nothing is
 * attached the instrumentation reduces to pointer tests -- the hot
 * loop never reads a clock.
 */

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "chip/chip.h"
#include "fault/fault_campaign.h"
#include "obs/phase.h"
#include "sim/observer.h"
#include "sim/run_result.h"
#include "sim/soa_state.h"
#include "sim/steady_state.h"
#include "util/rng.h"
#include "workload/activity.h"

namespace atmsim::sim {

/** Step-loop implementation (see file header). */
enum class EngineMode {
    Soa,     ///< Exact cycle stepping; matches the golden digests.
    Sampled, ///< Soa + steady-state fast-forward (approximate).
};

/** Printable mode name ("soa", "sampled"). */
[[nodiscard]] const char *engineModeName(EngineMode mode);

/** Parse a mode name written by engineModeName(). Returns false
 *  (leaving `out` untouched) for unknown names. */
[[nodiscard]] bool engineModeFromName(std::string_view name,
                                      EngineMode &out);

/** Engine configuration. */
struct SimConfig
{
    /** Electrical time step (ns). Must resolve the PDN resonance. */
    double dtNs = 0.2;

    /** Steps between thermal/power re-evaluations. */
    int slowCadence = 50;

    /** Steps between statistics samples. */
    int statsCadence = 10;

    /** Per-run timing noise added to the real path (ps). The
     *  characterizer sets this from the stratified noise draw. */
    double runNoisePs = 0.0;

    /** Stop the run at the first timing violation. */
    bool stopOnViolation = true;

    /** Random seed (event timing, failure kinds). */
    std::uint64_t seed = 1;

    /** Step-loop implementation. */
    EngineMode mode = EngineMode::Soa;

    /** Steady-state detector tuning (Sampled mode only). */
    SteadyStateConfig steady;
};

/** Time-stepped simulator for one chip and its assignments. */
class SimEngine
{
  public:
    /**
     * @param target Chip to simulate (not owned). Its workload
     *        assignments and core configurations are read at run().
     * @param config Engine configuration.
     */
    SimEngine(chip::Chip *target, const SimConfig &config = {});

    /**
     * Run the engine for a duration, starting from the settled steady
     * state of the current assignments.
     *
     * @param duration_us Simulated time (microseconds).
     * @return Run statistics and any violations.
     */
    RunResult run(double duration_us);

    /**
     * Attach a fault campaign (not owned; may outlive several runs).
     * run() re-arms it, applies each fault when its start time passes
     * and reverts it when its window closes, so faults strike mid-run
     * instead of only shaping the initial state.
     */
    void setCampaign(fault::FaultCampaign *campaign)
    {
        campaign_ = campaign;
    }

    /**
     * Attach one observer, replacing any already attached (not owned).
     * nullptr detaches everything.
     */
    void
    setObserver(EngineObserver *observer)
    {
        observers_.clear();
        if (observer)
            observers_.push_back(observer);
    }

    /** Attach an additional observer (not owned). */
    void
    addObserver(EngineObserver *observer)
    {
        if (observer)
            observers_.push_back(observer);
    }

    /** Currently attached observers, in attachment order. */
    [[nodiscard]] const std::vector<EngineObserver *> &observers() const
    {
        return observers_;
    }

    /**
     * Attach observability backends (none owned). Null members are
     * "off"; a default-constructed bundle detaches everything and
     * returns the hot loop to its uninstrumented cost.
     */
    void setObservability(const obs::Observability &sinks)
    {
        obs_ = sinks;
    }

    [[nodiscard]]
    const obs::Observability &observability() const { return obs_; }

    [[nodiscard]] const SimConfig &config() const { return config_; }

  private:
    /** Per-run scratch state of the step loop; defined in
     *  sim_engine.cc. */
    struct RunScratch;

    /** Loop-invariant references threaded through the step path;
     *  defined in sim_engine.cc. */
    struct SoaCtx;

    /** Per-run setup: activity generators, DC settle, clock resets,
     *  campaign arming, result sizing, observer onRunStart. */
    void prepareRun(RunScratch &scratch, RunResult &result,
                    double duration_us);

    /** Observer violation fan-out (sets event.detected). */
    void dispatchViolation(ViolationEvent &event);

    /** Observer sample fan-out. */
    void dispatchSample(util::Nanoseconds now,
                        const std::vector<CoreSample> &frame);

    /** Observer finish fan-out + violation-store trim. */
    void finishRun(RunScratch &scratch, RunResult &result);

    /** Slow-cadence phase: per-core power and current refresh plus
     *  one thermal step. */
    void refreshPowerThermal(SoaCtx &ctx, double now_ns);

    /** Stats-cadence phase: fold the sample frame into the run
     *  statistics, metrics and flight recorder. */
    void foldStats(SoaCtx &ctx, double now_ns);

    /** Sampled-mode fast-forward from from_step toward to_step;
     *  returns the first step not covered (where cycle stepping
     *  resumes). */
    long fastForwardSoa(SoaCtx &ctx, long from_step, long to_step);

    /**
     * Pulse amplitude that yields a workload's droop at a core.
     *
     * @param core Core silicon (vulnerability scaling).
     * @param traits Workload.
     * @param synchronized_cores For phase-synchronized stressmarks,
     *        the number of cores pulsing together: their currents
     *        superpose on the shared grid, so each carries a share of
     *        the chip-level droop. 1 for ordinary workloads.
     */
    [[nodiscard]]
    double eventCurrentFor(const variation::CoreSiliconParams &core,
                           const workload::WorkloadTraits &traits,
                           int synchronized_cores) const;

    chip::Chip *chip_;
    SimConfig config_;
    fault::FaultCampaign *campaign_ = nullptr;
    std::vector<EngineObserver *> observers_;
    obs::Observability obs_;
};

} // namespace atmsim::sim
