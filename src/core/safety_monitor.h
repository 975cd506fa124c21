/**
 * @file
 * Runtime safety monitor: the recovery half of the deployment story.
 *
 * The characterize-then-deploy flow (Sec. VII-A of the paper) assumes
 * the fine-tuned limits stay safe forever; the monitor drops that
 * assumption. It watches an engine run for timing violations and for
 * anomalous CPM behaviour (phantom margin from a stuck or
 * mis-programmed sensor), and degrades the offending core alone:
 *
 *   Deployed --violation/anomaly--> Quarantined (safe default-ATM
 *   configuration, reduction 0) --another strike--> Fallback (ATM off,
 *   static-margin p-state) --backoff expires--> probe at reduction 0
 *   --survives--> staged re-entry, one CPM step per stage, back to
 *   --the fine-tuned target--> Deployed.
 *
 * Every escalation doubles the re-entry backoff (exponential), so a
 * persistent fault converges to "park at static margin, retry
 * rarely", while a transient fault costs one quarantine round trip.
 * The rest of the chip keeps its fine-tuned limits throughout.
 */

#pragma once

#include <vector>

#include "chip/chip.h"
#include "obs/phase.h"
#include "sim/sim_engine.h"

namespace atmsim::core {

/** Monitor tuning. */
struct SafetyMonitorConfig
{
    /** First re-entry backoff after a quarantine (us). */
    double backoffBaseUs = 3.0;

    /** Backoff growth per escalation (exponential). */
    double backoffMultiplier = 2.0;

    /** Backoff ceiling (us). */
    double maxBackoffUs = 200.0;

    /** Wait between staged re-entry steps (us). */
    double stageIntervalUs = 0.5;

    /**
     * Anomaly guard: a core running faster than the analytic ATM
     * steady state for its programmed reduction by more than this
     * fraction is treated as a lying sensor.
     */
    double freqGuardFrac = 0.04;

    /**
     * Stuck-sensor window: consecutive samples where a CPM site reads
     * the same at a longer and a much shorter probe period before the
     * sensor is declared dead. A healthy delay-chain quantizer always
     * loses counts when the probe removes that much slack.
     */
    int stuckSampleWindow = 4;

    /**
     * Relative period swing of the stuck-sensor probe: the long probe
     * stretches the period by this fraction, the short probe shrinks
     * it by four times as much (deep enough to pull even a site
     * saturated at the chain length off the clamp).
     */
    double probePeriodFrac = 0.05;
};

/** Per-core monitor state. */
enum class CoreSafetyState {
    Deployed,    ///< Running its fine-tuned limits.
    Quarantined, ///< Pulled back to the safe default (reduction 0).
    Fallback,    ///< ATM off; parked at the static-margin p-state.
    Reentry,     ///< Stepping back up toward the fine-tuned target.
};

/** Printable state name. */
[[nodiscard]] const char *coreSafetyStateName(CoreSafetyState state);

/** Watches an engine run and quarantines misbehaving cores. */
class SafetyMonitor : public sim::EngineObserver
{
  public:
    /**
     * @param target Chip under supervision (not owned).
     * @param target_reductions The deployed fine-tuned per-core CPM
     *        reductions the monitor re-enters toward (e.g. from
     *        Governor::reductions(GovernorPolicy::FineTuned)).
     * @param config Monitor tuning.
     */
    SafetyMonitor(chip::Chip *target, std::vector<int> target_reductions,
                  const SafetyMonitorConfig &config = {});

    // --- EngineObserver ------------------------------------------------

    bool onViolation(const sim::ViolationEvent &event) override;
    void onSample(util::Nanoseconds now,
                  const std::vector<sim::CoreSample> &cores) override;
    void finish(util::Nanoseconds end,
                sim::SafetyCounters &counters) override;

    /**
     * Attach observability backends (none owned): state transitions
     * increment `safety_monitor.*` counters and emit instant trace
     * events on the monitor's own track.
     */
    void setObservability(const obs::Observability &sinks);

    // --- Inspection ----------------------------------------------------

    [[nodiscard]] CoreSafetyState state(int core) const;

    /** Current re-entry backoff of a core (us). */
    [[nodiscard]] double backoffUs(int core) const;

    /** Monitor-side counters (quarantines, recoveries, ...). */
    [[nodiscard]]
    const sim::SafetyCounters &counters() const { return counters_; }

    /** Re-arm for a fresh run: all cores Deployed, counters cleared.
     *  Does not touch the chip configuration. */
    void rearm();

    [[nodiscard]] const SafetyMonitorConfig &config() const { return config_; }

  private:
    struct CoreState
    {
        CoreSafetyState state = CoreSafetyState::Deployed;
        double backoffUs = 0.0;
        double deadlineNs = 0.0;
        int target = 0;       ///< Fine-tuned reduction to re-enter.
        int current = 0;      ///< Reduction the monitor last applied.
        double degradedSinceNs = -1.0;

        // Stuck-sensor tracking: consecutive probe-insensitive samples.
        int insensitiveSamples = 0;

        // Phantom-margin guard memo: honestMhz is the analytic ATM
        // frequency for these inputs (reduction -1: not computed yet).
        int honestReduction = -1;
        double honestTempC = 0.0;
        double honestSpeed = 0.0;
        double honestMhz = 0.0;
    };

    /** Violation/anomaly response: quarantine or escalate. */
    void demote(int core, double now_ns);
    void quarantine(int core, double now_ns);
    void escalate(int core, double now_ns);
    void restartAtm(int core, int reduction);
    void markDegraded(CoreState &cs, double now_ns);

    /** Count a state transition on its pre-resolved counter, trace
     *  it as an instant event, and log it to the flight recorder
     *  under the given event kind. */
    void note(obs::Counter *counter, const char *transition,
              obs::FlightEventKind kind, int core, double now_ns);

    chip::Chip *chip_;
    SafetyMonitorConfig config_;
    std::vector<CoreState> cores_;
    sim::SafetyCounters counters_;

    obs::Observability obs_;
    int traceTrack_ = -1;

    // Transition counters resolved once in setObservability: note()
    // runs inside the engine's step loop, where a registry lookup
    // (name formation, map probe under the registry mutex) is off
    // contract.
    obs::Counter *quarantineCounter_ = nullptr;
    obs::Counter *fallbackCounter_ = nullptr;
    obs::Counter *recoveryCounter_ = nullptr;
    obs::Counter *anomalyCounter_ = nullptr;
};

} // namespace atmsim::core
