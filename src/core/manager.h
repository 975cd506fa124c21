/**
 * @file
 * The fine-tuned ATM management layer (Sec. VII / Fig. 13): schedule
 * the critical application onto the right core, derive the chip power
 * budget its QoS target implies (through the per-app performance
 * predictor and the per-core frequency predictor), and throttle the
 * co-running background workloads -- fine-tuned ATM, DVFS p-states or
 * power gating -- to keep total chip power under that budget.
 */

#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "chip/chip.h"
#include "core/freq_predictor.h"
#include "core/governor.h"
#include "core/limit_table.h"
#include "core/perf_predictor.h"

namespace atmsim::core {

/** The five evaluation scenarios of Fig. 14. */
enum class Scenario {
    StaticMargin,       ///< 4.2 GHz fixed, the predictable baseline.
    DefaultAtmUnmanaged,///< Factory ATM, no placement or power control.
    FineTunedUnmanaged, ///< Fine-tuned CPMs, careless placement, all
                        ///< background cores at full ATM speed.
    ManagedMax,         ///< Critical on the fastest core, background
                        ///< throttled to the lowest p-state.
    ManagedBalanced,    ///< Critical meets its QoS target; background
                        ///< throttled only as much as necessary.
};

/** Printable scenario name. */
[[nodiscard]] const char *scenarioName(Scenario scenario);

/** A scheduling request: one critical app plus background co-runners. */
struct ScheduleRequest
{
    const workload::WorkloadTraits *critical = nullptr;
    const workload::WorkloadTraits *background = nullptr;

    /** QoS: required critical performance relative to static margin. */
    double qosTarget = 1.10;

    /** Deployment policy for the CPM configurations. */
    GovernorPolicy policy = GovernorPolicy::FineTuned;
};

/** Outcome of evaluating one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    int criticalCore = -1;
    double criticalFreqMhz = 0.0;
    double criticalPerf = 1.0;   ///< Relative to static margin.
    double chipPowerW = 0.0;
    double powerBudgetW = 0.0;   ///< 0 when no budget applies.
    bool qosMet = false;
    std::vector<double> backgroundCapMhz; ///< Per-core cap; 0 = ATM max.
};

/**
 * The managed-balanced throttle (Figs. 13-14): while qos_met rejects
 * the chip's steady state, step the hungriest non-idle core outside
 * protected_cores down one p-state (ATM overclock first drops to the
 * top p-state). Cores already at the p-state floor are skipped; when
 * every candidate is there, the hungriest is gated as the last
 * resort. Returns once QoS is met or nothing is left to shed.
 */
void throttleBackground(
    chip::Chip &chip, const std::vector<int> &protected_cores,
    const std::function<bool(const chip::ChipSteadyState &)> &qos_met);

/** Manages a fine-tuned ATM chip. */
class AtmManager
{
  public:
    /**
     * @param target Chip to manage (not owned).
     * @param limits Characterization results.
     * @param rollback Extra safety rollback on deployed configs.
     */
    AtmManager(chip::Chip *target, LimitTable limits, int rollback = 0);

    /**
     * Evaluate one Fig. 14 scenario for a <critical : background>
     * pair. The chip's assignments and settings are mutated and left
     * in the evaluated state (callers can inspect, then re-evaluate).
     */
    ScenarioResult evaluate(Scenario scenario,
                            const ScheduleRequest &request);

    /**
     * Pick the critical core for a request under the current limits:
     * the fastest deployed core, restricted to robust cores under the
     * Conservative policy.
     */
    [[nodiscard]] int pickCriticalCore(const ScheduleRequest &request) const;

    /**
     * Check the Table II co-location rule: two memory-intensive
     * workloads are not placed together.
     */
    [[nodiscard]]
    static bool colocationAllowed(const workload::WorkloadTraits &critical,
                                  const workload::WorkloadTraits &background);

    [[nodiscard]] const Governor &governor() const { return governor_; }
    [[nodiscard]]
    const FreqPredictor &freqPredictor() const { return freqPredictor_; }

    /** Per-application performance predictor (cached). */
    const PerfPredictor &perfPredictor(
        const workload::WorkloadTraits &traits);

  private:
    /** Place background instances on every core except the critical. */
    void placeBackground(const ScheduleRequest &request, int critical_core);

    /** Solve and package the common result fields. */
    ScenarioResult finish(Scenario scenario,
                          const ScheduleRequest &request,
                          int critical_core, double budget_w);

    chip::Chip *chip_;
    Governor governor_;
    FreqPredictor freqPredictor_;
    std::deque<PerfPredictor> perfCache_; ///< deque: stable references
};

} // namespace atmsim::core
