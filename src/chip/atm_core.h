/**
 * @file
 * One out-of-order core with its ATM machinery: the five-site CPM
 * bank, the per-core DPLL, and the real timing paths the canaries
 * protect. This is the unit the paper fine-tunes.
 */

#pragma once

#include "circuit/delay_model.h"
#include "cpm/cpm_bank.h"
#include "dpll/dpll.h"
#include "util/quantity.h"
#include "variation/core_silicon.h"

namespace atmsim::chip {

using util::Celsius;
using util::CpmSteps;
using util::Mhz;
using util::Nanoseconds;
using util::Picoseconds;
using util::Volts;

/** Operating mode of a core. */
enum class CoreMode {
    AtmOverclock,   ///< ATM converts reclaimed margin into frequency.
    FixedFrequency, ///< Static timing margin at a fixed p-state.
    Gated,          ///< Power gated (off).
};

/** Printable mode name. */
const char *coreModeName(CoreMode mode);

/**
 * EWMA coefficient (~150 ns time constant at 0.2 ns steps) of the
 * slow-tracked local voltage reference the timing model measures
 * droop excursions against; the engine's control kernel
 * (EngineSoaState::controlStepAll) applies it every step.
 */
inline constexpr double kVSlowTrackingAlpha = 0.0015;

/**
 * Snapshot of a core's control-loop tracking state (the part of
 * AtmCore the engine's SoA mirror owns between sync points; the DPLL
 * state travels separately via dpll::DpllState).
 */
struct ControlState
{
    double vSlowV = 0.0;
    bool vSlowValid = false;
    int lastWorstCount = -1;
};

/** A core instance: silicon + CPM bank + DPLL. */
class AtmCore
{
  public:
    /**
     * @param silicon Core silicon parameters (not owned; must outlive
     *        this core).
     * @param model Shared delay model (not owned).
     * @param dpll_params Control-loop parameters.
     */
    AtmCore(const variation::CoreSiliconParams *silicon,
            const circuit::DelayModel *model,
            const dpll::DpllParams &dpll_params = {});

    /** Core name, e.g. "P0C3". */
    const std::string &name() const { return silicon_->name; }

    // --- Configuration -------------------------------------------------

    /** Set the operating mode. */
    void setMode(CoreMode mode);
    CoreMode mode() const { return mode_; }

    /** Set the fixed frequency used in FixedFrequency mode. */
    void setFixedFrequencyMhz(Mhz f);
    Mhz fixedFrequencyMhz() const { return fixedMhz_; }

    /**
     * Program the CPM inserted-delay reduction (the fine-tuning knob).
     * 0 restores the factory default ATM behaviour.
     */
    void setCpmReduction(CpmSteps steps);
    CpmSteps cpmReduction() const { return bank_.reduction(); }

    // --- Engine interface ----------------------------------------------

    /**
     * Reset the clock to the steady state for the given environment
     * (used at the start of an engine run).
     */
    void resetClock(Volts v, Celsius t);

    /** Current clock period. */
    Picoseconds periodPs() const;

    /** Current clock frequency. */
    Mhz frequencyMhz() const;

    /** Emergency engagements since the last resetClock(). */
    long emergencyCount() const { return dpll_.emergencyCount(); }

    /** Export the control tracking state (SoA mirror handshake). */
    [[nodiscard]] ControlState exportControlState() const;

    /** Restore a state from exportControlState() (lossless round
     *  trip). */
    void importControlState(const ControlState &state);

    // --- Analytic interface --------------------------------------------

    /**
     * Steady-state frequency under the given environment, from the
     * closed-form ATM model (or the fixed frequency / 0 when gated).
     */
    Mhz steadyFrequencyMhz(Volts v, Celsius t) const;

    const variation::CoreSiliconParams &silicon() const
    {
        return *silicon_;
    }
    cpm::CpmBank &cpmBank() { return bank_; }
    const cpm::CpmBank &cpmBank() const { return bank_; }
    dpll::Dpll &dpll() { return dpll_; }
    const dpll::Dpll &dpll() const { return dpll_; }

  private:
    const variation::CoreSiliconParams *silicon_;
    const circuit::DelayModel *model_;
    cpm::CpmBank bank_;
    dpll::Dpll dpll_;
    CoreMode mode_ = CoreMode::AtmOverclock;
    Mhz fixedMhz_;

    /** Slow-tracked local voltage (reference for droop excursions). */
    Volts vSlow_{0.0};
    bool vSlowValid_ = false;

    /** Margin the DPLL last acted on (metrics sampling); -1 before
     *  the first control step. */
    int lastWorstCount_ = -1;
};

} // namespace atmsim::chip
