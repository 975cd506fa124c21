/**
 * @file
 * Structure-of-arrays chip-step state for the engine (DESIGN.md,
 * engine architecture). Built from chip::Chip at run start:
 * contiguous per-core arrays for voltage, temperature and path
 * exposure. The engine's four per-core hot loops (power/current,
 * electrical step, control step, violation scan) index these arrays.
 *
 * Ownership: every piece of per-core state has one owner, and this
 * state copies none of it. The control-loop state (DPLL bank, slow
 * rail, last worst count) is chip::ControlLoops, which the kernels
 * step in place. The configuration (mode, fixed frequency, CPM
 * programming, silicon factors) lives in the chip's cores, which the
 * kernels read in place, so a fault edge or an observer that
 * reconfigures a core leaves nothing stale. The kernels are the only
 * implementation of the per-step control law and timing race; the
 * engine's golden identity digests (sim::digest) pin their arithmetic
 * bit for bit.
 *
 * The layout static_asserts below pin the util/quantity.h property
 * the views rely on: a strong type is exactly one double, so
 * exporting `Quantity::value()` into a raw array and re-wrapping on
 * the way back is value-preserving by construction.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "chip/chip.h"
#include "circuit/delay_model.h"
#include "cpm/cpm_bank.h"
#include "dpll/dpll.h"
#include "sim/run_result.h"
#include "util/hotpath_annotations.h"
#include "util/quantity.h"

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
    // --- Lifecycle ------------------------------------------------------

    /**
     * Size the arrays and bind to the chip's cores and control
     * loops. Called once per run, after the engine has settled the
     * electrical and thermal networks and reset the clocks.
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

    /** Refresh the cached per-core temperatures (after a thermal
     *  step or a thermal fault edge). */
    void refreshTemps(chip::Chip &chip);

    /** Refresh the cached per-core voltages after a PDN step, from
     *  the branch currents just passed to it (replicates
     *  PdnNetwork::coreV). */
    ATM_HOT_PATH(engine_step)
    void refreshCoreV(const chip::Chip &chip,
                      const std::vector<util::Amps> &branch_currents);

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
        chip::ControlLoops &loops = *loops_;
        const std::size_t n = cores_.size();
        for (std::size_t c = 0; c < n; ++c) {
            const double v = coreV_[c];
            if (!loops.vSlowValid[c]) {
                loops.vSlow[c] = v;
                loops.vSlowValid[c] = 1;
            } else {
                loops.vSlow[c] +=
                    (v - loops.vSlow[c]) * chip::kVSlowTrackingAlpha;
            }
            const chip::AtmCore &core = cores_[c];
            if (core.mode() != chip::CoreMode::AtmOverclock)
                continue;
            // The factor filter: counts at both ends of the bracket
            // that agree are the exact count (CpmBank::
            // worstCountBracket); only a split pays for the pow.
            const util::Volts volts{v};
            const util::Celsius temp{tempC_[c]};
            const double period = loops.dpll.periodPs[c];
            const cpm::CpmBank &bank = core.cpmBank();
            const cpm::CountBracket counts = bank.worstCountBracket(
                period, model_->factorBracket(volts, temp));
            int margin = counts.atHi;
            if (counts.atHi != counts.atLo) {
                ++fallbacks_.control;
                margin = bank.worstCount(period, model_->factor(volts, temp));
            }
            loops.lastWorst[c] = margin;
            loops.dpll.observe(c, nowNs, margin);
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
     *
     * The deficit rises with the delay factor, so it is first taken
     * at the factor bracket's hi end: a value there that is not
     * positive is returned as is (the exact deficit is no larger).
     * Only a deficit that might be positive pays for the exact
     * factor, so a positive return is always the exact deficit.
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] double timingDeficitPs(std::size_t core) noexcept
    {
        const chip::ControlLoops &loops = *loops_;
        const double v = coreV_[core];
        double vEff = v;
        if (loops.vSlowValid[core]) {
            vEff = loops.vSlow[core]
                 - (loops.vSlow[core] - v)
                       * cores_[core].silicon().didtVulnerability;
            vEff = std::max(vEff, 0.6);
        }
        const util::Volts volts{vEff};
        const util::Celsius temp{tempC_[core]};
        const double bound =
            deficitAt(core, model_->factorBracket(volts, temp).hi);
        if (bound <= 0.0)
            return bound;
        ++fallbacks_.deficit;
        return deficitAt(core, model_->factor(volts, temp));
    }

    /** Current clock period (chip::Chip::periodPs over the arrays). */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] double periodPs(std::size_t core) const noexcept
    {
        const chip::AtmCore &c = cores_[core];
        if (c.mode() == chip::CoreMode::AtmOverclock)
            return loops_->dpll.periodPs[core];
        if (c.mode() == chip::CoreMode::FixedFrequency)
            return util::periodOf(c.fixedFrequencyMhz()).value();
        return gatedPeriodPs_;
    }

    /** True while every core rail sits within the droop threshold of
     *  its steady-state voltage (sampled-mode quiet gate). */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] bool railsQuiet(double thresholdV) const noexcept
    {
        const std::size_t n = coreV_.size();
        for (std::size_t c = 0; c < n; ++c) {
            if (coreV_[c] < steadyV_[c] - thresholdV)
                return false;
        }
        return true;
    }

    // --- Accessors ------------------------------------------------------

    [[nodiscard]] std::size_t coreCount() const { return cores_.size(); }
    [[nodiscard]] bool gated(std::size_t core) const
    {
        return cores_[core].mode() == chip::CoreMode::Gated;
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
        return loops_->lastWorst[core];
    }

    /** Delay-factor filter fallbacks this run. */
    [[nodiscard]] FactorFallbacks factorFallbacks() const
    {
        return fallbacks_;
    }

    /** Total DPLL period adjustments this run (settling gate). */
    [[nodiscard]] long dpllAdjustments() const
    {
        return loops_->dpll.adjustments;
    }

  private:
    /** timingDeficitPs at a given delay factor. */
    [[nodiscard]] double deficitAt(std::size_t core,
                                   double factor) const noexcept
    {
        const double real =
            basePathPs_[core]
                * (cores_[core].silicon().speedFactor * factor)
            + noisePs_;
        return real - periodPs(core);
    }

    // The chip's cores (configuration, read in place) and control
    // loops (stepped in place).
    std::span<const chip::AtmCore> cores_;
    chip::ControlLoops *loops_ = nullptr;

    // Per-core environment caches.
    std::vector<double> coreV_;
    std::vector<double> tempC_;
    std::vector<double> steadyV_;
    std::vector<double> basePathPs_; ///< realPathIdlePs + exposure.

    // Run constants.
    const circuit::DelayModel *model_ = nullptr;
    double gatedPeriodPs_ = 0.0;
    double noisePs_ = 0.0;

    FactorFallbacks fallbacks_;
};

} // namespace atmsim::sim
