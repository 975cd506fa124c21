/**
 * @file
 * One out-of-order core with its ATM machinery: the five-site CPM
 * bank and the real timing paths the canaries protect. This is the
 * unit the paper fine-tunes; its DPLL runs over the chip's per-core
 * loop arrays (chip::Chip).
 */

#pragma once

#include "circuit/delay_model.h"
#include "cpm/cpm_bank.h"
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
 * A core instance: silicon, CPM bank and configuration. The core's
 * DPLL and slow-rail state are per-core arrays owned by chip::Chip.
 * The core is the only copy of its configuration: the engine's
 * kernels read it in place.
 */
class AtmCore
{
  public:
    /**
     * @param silicon Core silicon parameters (not owned; must outlive
     *        this core).
     * @param model Shared delay model (not owned).
     * @param config_generation Counter every configuration setter
     *        bumps (the owning chip's Chip::configGeneration; not
     *        owned).
     */
    AtmCore(const variation::CoreSiliconParams *silicon,
            const circuit::DelayModel *model, long *config_generation);

    /** Core name, e.g. "P0C3". */
    const std::string &name() const { return silicon_->name; }

    // --- Configuration (each setter bumps the chip's generation) ------

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

  private:
    const variation::CoreSiliconParams *silicon_;
    const circuit::DelayModel *model_;
    cpm::CpmBank bank_;
    CoreMode mode_ = CoreMode::AtmOverclock;
    Mhz fixedMhz_;
    long *generation_;
};

} // namespace atmsim::chip
