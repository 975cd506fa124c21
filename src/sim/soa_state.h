/**
 * @file
 * Structure-of-arrays chip-step state for the engine's SoA mode
 * (DESIGN.md, engine architecture). Built from chip::Chip at run
 * start: contiguous per-core arrays for voltage, temperature, clock
 * period, CPM site constants, path exposure, and mode flags, plus a
 * DpllBankSoa for the per-core control loops. The engine's four
 * per-core hot loops (power/current, electrical step, control step,
 * violation scan) index these arrays instead of chasing
 * object-per-core pointers.
 *
 * Sync discipline: configuration state (mode, fixed frequency, CPM
 * programming, speed factors) is authoritative in the chip objects
 * and flows in via loadConfig(); control-loop dynamic state (DPLL
 * state, slow-voltage tracking, last margin) is authoritative in
 * these arrays between sync points and flows back via storeDynamic()
 * before any code that reads the objects (fault injection, observer
 * callbacks). The kernels are the only implementation of the per-step
 * control law and timing race; the engine's golden identity digests
 * (sim::digest) pin their arithmetic bit for bit.
 *
 * The layout static_asserts below pin the util/quantity.h property
 * the views rely on: a strong type is exactly one double, so
 * exporting `Quantity::value()` into a raw array and re-wrapping on
 * the way back is value-preserving by construction.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "chip/atm_core.h"
#include "circuit/delay_model.h"
#include "cpm/cpm_bank.h"
#include "dpll/dpll.h"
#include "util/hotpath_annotations.h"
#include "util/quantity.h"

namespace atmsim::chip {
class Chip;
}

namespace atmsim::sim {

// The SoA views export strong-typed values into raw double arrays
// and re-wrap on the way back; that round trip is only sound while
// a quantity is layout-identical to (and trivially copyable as) a
// plain double.
static_assert(sizeof(util::Volts) == sizeof(double));
static_assert(sizeof(util::Celsius) == sizeof(double));
static_assert(sizeof(util::Picoseconds) == sizeof(double));
static_assert(sizeof(util::Nanoseconds) == sizeof(double));
static_assert(sizeof(util::Amps) == sizeof(double));
static_assert(sizeof(util::Watts) == sizeof(double));
static_assert(sizeof(util::Mhz) == sizeof(double));
static_assert(alignof(util::Volts) == alignof(double));
static_assert(alignof(util::Picoseconds) == alignof(double));
static_assert(std::is_trivially_copyable_v<util::Volts>);
static_assert(std::is_trivially_copyable_v<util::Celsius>);
static_assert(std::is_trivially_copyable_v<util::Picoseconds>);
static_assert(std::is_trivially_copyable_v<util::Nanoseconds>);
static_assert(std::is_trivially_copyable_v<util::Amps>);
static_assert(std::is_trivially_copyable_v<util::Watts>);
static_assert(std::is_trivially_copyable_v<util::Mhz>);

/** Contiguous per-core step state of one chip. */
class EngineSoaState
{
  public:
    // CoreMode flattened to bytes; values pinned to the enum.
    static constexpr std::uint8_t kModeAtm =
        static_cast<std::uint8_t>(chip::CoreMode::AtmOverclock);
    static constexpr std::uint8_t kModeFixed =
        static_cast<std::uint8_t>(chip::CoreMode::FixedFrequency);
    static constexpr std::uint8_t kModeGated =
        static_cast<std::uint8_t>(chip::CoreMode::Gated);

    // --- Lifecycle / sync ----------------------------------------------

    /**
     * Size the arrays and pull the full state from the chip. Called
     * once per run, after the engine has settled the electrical and
     * thermal networks.
     *
     * @param exposure Per-core scenario path exposure.
     * @param steady_v Per-core steady-state voltages (droop
     *        reference).
     * @param noisePs This run's timing noise.
     */
    // atmlint: contract(cold)
    void build(chip::Chip &chip,
               const std::vector<util::Picoseconds> &exposure,
               const std::vector<util::Volts> &steady_v, double noisePs);

    /** Re-pull configuration state (mode, fixed frequency, CPM
     *  programming, speed/vulnerability factors) from the objects. */
    void loadConfig(chip::Chip &chip);

    /** Re-pull control-loop dynamic state from the objects. */
    void loadDynamic(chip::Chip &chip);

    /** Push control-loop dynamic state back into the objects. */
    void storeDynamic(chip::Chip &chip) const;

    /** Refresh the cached per-core temperatures (after a thermal
     *  step or a thermal fault edge). */
    void refreshTemps(chip::Chip &chip);

    /** Refresh the cached per-core voltages after a PDN step, from
     *  the branch currents just passed to it (replicates
     *  PdnNetwork::coreV). */
    ATM_HOT_PATH(engine_step)
    void refreshCoreV(const chip::Chip &chip,
                      const std::vector<util::Amps> &branch_currents);

    /**
     * Reload from the chip after an observer callback and report
     * whether the callback reconfigured anything. The caller must
     * storeDynamic() before the callback; the reload then only
     * differs from the pre-callback arrays if the observer mutated
     * the chip (quarantine, fallback, re-entry, clock reset).
     */
    bool syncAfterDispatch(chip::Chip &chip);

    // --- Hot kernels ----------------------------------------------------

    /**
     * Advance every core's ATM control loop one step: track the slow
     * (post-transient) local voltage -- the gap between it and the
     * instantaneous voltage is the droop excursion -- and, on ATM
     * cores, scan the CPM bank against the current period and let the
     * DPLL act on the worst count.
     */
    ATM_HOT_PATH(engine_step)
    void controlStepAll(double nowNs) noexcept
    {
        const std::size_t n = mode_.size();
        for (std::size_t c = 0; c < n; ++c) {
            const double v = coreV_[c];
            if (!vSlowValid_[c]) {
                vSlow_[c] = v;
                vSlowValid_[c] = 1;
            } else {
                vSlow_[c] += (v - vSlow_[c]) * chip::kVSlowTrackingAlpha;
            }
            if (mode_[c] != kModeAtm)
                continue;
            const double f = model_->factor(util::Volts{v},
                                            util::Celsius{tempC_[c]});
            const double fs = f * speedFactor_[c];
            const int margin = cpm::worstCountSoa(
                siteNominal_.data() + c * siteCount_,
                siteStuck_.data() + c * siteCount_,
                static_cast<int>(siteCount_), dpll_.periodPs[c], f,
                chainStepPs_ * fs, chainLength_);
            lastWorst_[c] = margin;
            dpll_.observe(c, nowNs, margin);
        }
    }

    /**
     * Signed timing deficit of the real critical path against the
     * current period (positive = violation). The transient part of
     * the voltage excursion (relative to the slow-tracked voltage) is
     * amplified by the core's di/dt vulnerability: vulnerable cores'
     * real paths see deeper local droops than the shared grid
     * reports, which is what their larger characterization rollbacks
     * reflect. The caller handles Gated cores (always meet timing).
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] double timingDeficitPs(std::size_t core) const noexcept
    {
        const double v = coreV_[core];
        double vEff = v;
        if (vSlowValid_[core]) {
            vEff = vSlow_[core] - (vSlow_[core] - v) * didtVuln_[core];
            vEff = std::max(vEff, 0.6);
        }
        const double real =
            basePathPs_[core]
                * (speedFactor_[core]
                   * model_->factor(util::Volts{vEff},
                                    util::Celsius{tempC_[core]}))
            + noisePs_;
        return real - periodPs(core);
    }

    /** Current clock period (AtmCore::periodPs over the arrays). */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] double periodPs(std::size_t core) const noexcept
    {
        if (mode_[core] == kModeAtm)
            return dpll_.periodPs[core];
        if (mode_[core] == kModeFixed)
            return fixedPeriodPs_[core];
        return gatedPeriodPs_;
    }

    /** True while every core rail sits within the droop threshold of
     *  its steady-state voltage (sampled-mode quiet gate). */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] bool railsQuiet(double thresholdV) const noexcept
    {
        const std::size_t n = mode_.size();
        for (std::size_t c = 0; c < n; ++c) {
            if (coreV_[c] < steadyV_[c] - thresholdV)
                return false;
        }
        return true;
    }

    // --- Accessors ------------------------------------------------------

    [[nodiscard]] std::size_t coreCount() const { return mode_.size(); }
    [[nodiscard]] bool gated(std::size_t core) const
    {
        return mode_[core] == kModeGated;
    }
    [[nodiscard]] double coreV(std::size_t core) const
    {
        return coreV_[core];
    }
    [[nodiscard]] double tempC(std::size_t core) const
    {
        return tempC_[core];
    }
    [[nodiscard]] double steadyCoreV(std::size_t core) const
    {
        return steadyV_[core];
    }
    [[nodiscard]] int lastWorstCount(std::size_t core) const
    {
        return lastWorst_[core];
    }

    /** Total DPLL period adjustments so far (settling gate). */
    [[nodiscard]] long dpllAdjustments() const { return dpll_.adjustments; }

  private:
    [[nodiscard]] bool differsFromShadow() const;

    // Per-core configuration (loadConfig).
    std::vector<std::uint8_t> mode_;
    std::vector<double> fixedPeriodPs_;
    std::vector<double> speedFactor_;
    std::vector<double> didtVuln_;
    std::vector<double> siteNominal_; ///< cores x sites, row-major.
    std::vector<int> siteStuck_;      ///< cores x sites, -1 = healthy.

    // Per-core control-loop dynamic state (loadDynamic/storeDynamic).
    dpll::DpllBankSoa dpll_;
    std::vector<double> vSlow_;
    std::vector<std::uint8_t> vSlowValid_;
    std::vector<int> lastWorst_;

    // Per-core environment caches.
    std::vector<double> coreV_;
    std::vector<double> tempC_;
    std::vector<double> steadyV_;
    std::vector<double> basePathPs_; ///< realPathIdlePs + exposure.

    // Shadows for syncAfterDispatch change detection.
    std::vector<std::uint8_t> shadowMode_;
    std::vector<double> shadowFixedPeriodPs_;
    std::vector<double> shadowSpeedFactor_;
    std::vector<double> shadowSiteNominal_;
    std::vector<int> shadowSiteStuck_;
    std::vector<double> shadowDpllPeriodPs_;
    std::vector<double> shadowDpllLastUpdateNs_;
    std::vector<double> shadowDpllLastEmergencyNs_;
    std::vector<int> shadowDpllHeldMargin_;
    std::vector<std::uint8_t> shadowDpllHeldValid_;
    std::vector<std::uint8_t> shadowDpllDropout_;
    std::vector<double> shadowVSlow_;
    std::vector<std::uint8_t> shadowVSlowValid_;
    std::vector<int> shadowLastWorst_;

    // Run constants.
    const circuit::DelayModel *model_ = nullptr;
    double chainStepPs_ = 0.0;
    double gatedPeriodPs_ = 0.0;
    double noisePs_ = 0.0;
    std::size_t siteCount_ = 0;
    int chainLength_ = 0;
};

} // namespace atmsim::sim
