/**
 * @file
 * The five-CPM bank of one core. The worst (smallest) of the five
 * site measurements is reported every cycle to the DPLL (Sec. II of
 * the paper). Fine-tuning programs all sites of a core by the same
 * reduction from their presets (Sec. III-A).
 */

#pragma once

#include <vector>

#include "cpm/cpm.h"
#include "util/hotpath_annotations.h"

namespace atmsim::cpm {

/** Bank of CPM sites within one core. */
class CpmBank
{
  public:
    /**
     * @param core Core silicon parameters (not owned).
     * @param model Shared delay model (not owned).
     */
    CpmBank(const variation::CoreSiliconParams *core,
            const circuit::DelayModel *model);

    /**
     * Program a uniform delay reduction across all sites relative to
     * their presets. This is exactly the paper's fine-tuning knob.
     *
     * @param steps Reduction steps (>= 0); clamped per site at 0.
     */
    void setReduction(CpmSteps steps);

    /** Current reduction from the preset. */
    CpmSteps reduction() const { return reduction_; }

    /** Largest monitored delay across the bank (controlling site). */
    Picoseconds worstMonitoredDelayPs(Volts v, Celsius t) const;

    /** Access a site. */
    const Cpm &site(int index) const;
    std::size_t siteCount() const { return sites_.size(); }

    // --- Fault injection -----------------------------------------------

    /** Pin one site's output count (stuck quantizer latch). */
    void injectStuckOutput(int site, int count);

    /** Make one site skip enabled inserted-delay segments. */
    void injectSkippedSegments(int site, int segments);

    /** Clear injected faults on every site. */
    void clearFaults();

    /** True while any site carries an injected fault. */
    bool anyFaulted() const;

    const variation::CoreSiliconParams &core() const { return *core_; }

    // --- SoA export ----------------------------------------------------

    /**
     * Flatten the bank for the engine's SoA kernels: per site, the
     * speed-scaled nominal delay (`Cpm::nominalPs() * speedFactor`,
     * the product Cpm::monitoredDelayPs forms) and the pinned output
     * count (-1 while the site is healthy, the stuck count while
     * faulted). Both output arrays receive siteCount() entries. Must
     * be re-exported after setReduction, fault injection, or an aging
     * jump.
     */
    void exportSoa(double *nominal_speed, int *stuck_counts) const;

  private:
    const variation::CoreSiliconParams *core_;
    const circuit::DelayModel *model_;
    std::vector<Cpm> sites_;
    CpmSteps reduction_{0};
};

/**
 * One site's output count over the flattened site state from
 * exportSoa() -- the same quantization as Cpm::outputCount:
 * monitored = nominalSpeed * factor; slack = period - monitored;
 * count = floor(slack / (chainStep * factor * speed)), saturated at
 * the chain length, pinned while the site is stuck.
 *
 * @param nominal_speed   The site's `nominalPs * speedFactor`.
 * @param stuck_count     The site's pinned count, -1 while healthy.
 * @param periodPs        Clock period (raw ps).
 * @param delayFactor     DelayModel::factor(v, t) for this core.
 * @param effectiveStepPs Chain step delay scaled by
 *                        `delayFactor * speedFactor` -- constant
 *                        across the sites of a core, hoisted out.
 * @param chain_length    Quantizer saturation count.
 */
ATM_HOT_PATH(engine_step)
[[nodiscard]] inline int
siteCountSoa(double nominal_speed, int stuck_count, double periodPs,
             double delayFactor, double effectiveStepPs,
             int chain_length) noexcept
{
    if (stuck_count >= 0)
        return stuck_count;
    const double slack = periodPs - nominal_speed * delayFactor;
    if (slack <= 0.0)
        return 0;
    const int count = static_cast<int>(slack / effectiveStepPs);
    return chain_length < count ? chain_length : count;
}

/**
 * Worst (minimum) output count across one core's bank this cycle --
 * the margin the DPLL acts on -- over the flattened site arrays from
 * exportSoa(). See siteCountSoa for the per-site arithmetic and the
 * remaining arguments.
 *
 * @param nominal_speed   Per-site `nominalPs * speedFactor` array.
 * @param stuck_counts    Per-site pinned count, -1 while healthy.
 * @param site_count      Sites per core (>= 1).
 */
ATM_HOT_PATH(engine_step)
[[nodiscard]] inline int
worstCountSoa(const double *nominal_speed, const int *stuck_counts,
              int site_count, double periodPs, double delayFactor,
              double effectiveStepPs, int chain_length) noexcept
{
    int worst = 0;
    for (int s = 0; s < site_count; ++s) {
        const int count =
            siteCountSoa(nominal_speed[s], stuck_counts[s], periodPs,
                         delayFactor, effectiveStepPs, chain_length);
        if (s == 0 || count < worst)
            worst = count;
    }
    return worst;
}

/**
 * Stuck-sensor probe over the same arrays: true when any site reads
 * the same count, above 0, at a longer period `slowPs` and a shorter
 * period `fastPs`. A healthy quantizer loses counts when the probe
 * removes enough slack; a pinned latch does not. Arguments as for
 * worstCountSoa.
 */
ATM_HOT_PATH(engine_step)
[[nodiscard]] inline bool
probeInsensitiveSoa(const double *nominal_speed, const int *stuck_counts,
                    int site_count, double slowPs, double fastPs,
                    double delayFactor, double effectiveStepPs,
                    int chain_length) noexcept
{
    for (int s = 0; s < site_count; ++s) {
        const int slow =
            siteCountSoa(nominal_speed[s], stuck_counts[s], slowPs,
                         delayFactor, effectiveStepPs, chain_length);
        const int fast =
            siteCountSoa(nominal_speed[s], stuck_counts[s], fastPs,
                         delayFactor, effectiveStepPs, chain_length);
        if (slow == fast && slow > 0)
            return true;
    }
    return false;
}

} // namespace atmsim::cpm
