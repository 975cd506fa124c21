/**
 * @file
 * One processor chip: eight AtmCores over a shared power delivery
 * network, thermal stack and power model, plus workload assignments.
 * Provides the analytic steady-state solver (the closed-form
 * counterpart of a long engine run) used by the predictors and the
 * scheduler.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chip/atm_core.h"
#include "circuit/delay_model.h"
#include "dpll/dpll.h"
#include "pdn/pdn_network.h"
#include "power/power_model.h"
#include "thermal/thermal_model.h"
#include "variation/core_silicon.h"
#include "workload/workload.h"

namespace atmsim::chip {

/** Electrical, thermal and control configuration of a chip. */
struct ChipConfig
{
    pdn::PdnParams pdnParams;
    thermal::ThermalParams thermalParams;
    power::PowerParams powerParams;
    dpll::DpllParams dpllParams;

    /**
     * VRM setpoint. Slightly above the nominal 1.25 V so that the
     * idle IR drop lands the cores at the nominal voltage, matching
     * the paper's 4.2 GHz p-state operating point.
     */
    util::Volts vrmSetpointV{1.267};

    /** VRM load-line resistance (ohm). */
    double vrmLoadLineOhm = 0.22e-3;
};

/**
 * EWMA coefficient (~150 ns time constant at 0.2 ns steps) of the
 * slow-tracked local voltage reference the timing model measures
 * droop excursions against; the engine's control kernel
 * (sim::EngineSoaState::controlStepAll) applies it every step.
 */
inline constexpr double kVSlowTrackingAlpha = 0.0015;

/**
 * The per-core ATM control-loop state of a chip, one array entry per
 * core. The chip holds the only copy: the engine steps it in place
 * (sim::EngineSoaState), and observers and the fault injector use
 * Chip's clock view.
 */
struct ControlLoops
{
    dpll::DpllBankSoa dpll;

    /** Slow-tracked local voltage (reference for droop excursions). */
    std::vector<double> vSlow;
    std::vector<std::uint8_t> vSlowValid;

    /** Margin the DPLL last acted on (metrics sampling); -1 before
     *  the first control step. */
    std::vector<int> lastWorst;
};

/** Workload assignment of one core. */
struct CoreAssignment
{
    const workload::WorkloadTraits *traits = nullptr; ///< null = idle
    int threads = 0;

    bool idle() const { return traits == nullptr || threads == 0; }
};

/** Steady-state operating point of a chip. */
struct ChipSteadyState
{
    std::vector<Mhz> coreFreqMhz;
    std::vector<Volts> coreVoltageV;
    std::vector<util::Watts> corePowerW;
    std::vector<Celsius> coreTempC;
    Volts gridVoltageV{0.0};
    util::Watts chipPowerW{0.0};
    Celsius packageTempC{0.0};

    /** Frequency of the slowest non-gated core. */
    Mhz minActiveFreqMhz() const;

    /** Frequency of the fastest core. */
    Mhz maxFreqMhz() const;
};

/** A processor chip. */
class Chip
{
  public:
    /**
     * @param silicon Per-core silicon parameters (copied in).
     * @param config Chip configuration.
     */
    explicit Chip(variation::ChipSilicon silicon,
                  const ChipConfig &config = {});

    Chip(const Chip &) = delete;
    Chip &operator=(const Chip &) = delete;

    /** Chip name ("P0", "P1", ...). */
    const std::string &name() const { return silicon_.name; }

    int coreCount() const { return static_cast<int>(cores_.size()); }
    AtmCore &core(int index);
    const AtmCore &core(int index) const;

    /** Every core in index order (the engine reads them in place). */
    std::span<const AtmCore> cores() const { return cores_; }

    /** Per-core silicon. */
    const variation::ChipSilicon &silicon() const { return silicon_; }

    /**
     * Fault injection: set one core's silicon speed factor exactly (an
     * abrupt aging jump, e.g. BTI shift after a thermal event). Both
     * the real paths and the CPM canaries slow together, which is
     * exactly the tracking property ATM relies on. fatal() unless > 0.
     */
    void setCoreSpeedFactor(int core_index, double speed_factor);

    // --- Clock view ----------------------------------------------------

    /**
     * Restart a core's clock at the steady state for the given
     * environment: the period of steadyFrequencyMhz(v, t), clamped to
     * the DPLL bounds, with the loop counters and held margin cleared
     * and the slow rail at `v`. The sensor dropout is left untouched.
     * The engine does this for every core at run start.
     */
    void resetClock(int core_index, Volts v, Celsius t);

    /**
     * Configuration generation: bumped by resetClock() and by every
     * AtmCore setter (mode, fixed frequency, CPM reduction). The
     * engine compares it across an observer dispatch to mark the
     * reconfiguration as an edge for the steady-state detector.
     */
    long configGeneration() const { return configGeneration_; }

    /** Current clock period of a core (DPLL, fixed or gated). */
    Picoseconds periodPs(int core_index) const;

    /** Current clock frequency of a core. */
    Mhz frequencyMhz(int core_index) const;

    /** Emergency engagements since the core's last resetClock(). */
    long emergencyCount(int core_index) const;

    /**
     * Fault injection: set or clear a core's CPM sensor dropout. While
     * it is set the loop holds the last margin it observed (hold-last
     * semantics), so it neither slews nor engages the emergency path
     * in response to fresh droops -- the hazard the fault campaigns
     * probe. Overlapping dropout faults nest in fault::FaultInjector.
     */
    void setSensorDropout(int core_index, bool dropped);
    bool sensorDropout(int core_index) const;

    /** The per-core loop arrays the engine steps in place. */
    ControlLoops &loops() { return loops_; }
    const ControlLoops &loops() const { return loops_; }

    // --- Workload placement --------------------------------------------

    /**
     * Assign a workload to a core.
     *
     * @param core_index Core to run on.
     * @param traits Workload (nullptr to idle the core).
     * @param threads SMT threads (0 uses the workload's default).
     */
    void assignWorkload(int core_index,
                        const workload::WorkloadTraits *traits,
                        int threads = 0);

    /** Idle all cores. */
    void clearAssignments();

    const CoreAssignment &assignment(int core_index) const;

    // --- Analytics ------------------------------------------------------

    /**
     * Solve the coupled frequency/voltage/power/temperature fixed
     * point for the current assignments and core configurations.
     * This is the closed-form steady state an engine run converges
     * to between di/dt events.
     */
    ChipSteadyState solveSteadyState() const;

    // --- Shared infrastructure -------------------------------------------

    pdn::PdnNetwork &pdn() { return pdn_; }
    const pdn::PdnNetwork &pdn() const { return pdn_; }
    thermal::ThermalModel &thermal() { return thermal_; }
    const power::PowerModel &powerModel() const { return power_; }
    const circuit::DelayModel &delayModel() const { return *model_; }
    const ChipConfig &config() const { return config_; }

    /**
     * Scenario path exposure of a workload on a core: which of the
     * core's manufactured exposures the workload's instruction stream
     * activates (none when idle, the uBench exposure for uBench, the
     * full load exposure for realistic workloads and stressmarks).
     */
    static Picoseconds
    pathExposurePs(const variation::CoreSiliconParams &core,
                   const workload::WorkloadTraits &traits);

  private:
    /** Array index of a core; fatal() naming `what` if out of range. */
    std::size_t checkedIndex(int core_index, const char *what) const;

    variation::ChipSilicon silicon_;
    ChipConfig config_;
    std::unique_ptr<circuit::DelayModel> model_;
    std::vector<AtmCore> cores_;
    ControlLoops loops_;
    long configGeneration_ = 0;
    std::vector<CoreAssignment> assignments_;
    pdn::PdnNetwork pdn_;
    thermal::ThermalModel thermal_;
    power::PowerModel power_;
};

} // namespace atmsim::chip
