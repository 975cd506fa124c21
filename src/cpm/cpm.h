/**
 * @file
 * Critical Path Monitor: the programmable canary circuit at the heart
 * of the ATM control loop (Fig. 4a of the paper). Three cascaded
 * stages: a programmable inserted delay (an inverter chain whose
 * enabled length is the fine-tuning knob), a synthetic path mimicking
 * real pipeline circuits, and a quantizing inverter chain that counts
 * the leftover slack each cycle.
 */

#pragma once

#include "circuit/delay_model.h"
#include "circuit/inverter_chain.h"
#include "util/quantity.h"
#include "variation/core_silicon.h"

namespace atmsim::cpm {

using util::Celsius;
using util::CpmSteps;
using util::Picoseconds;
using util::Volts;

/** CPM site locations within a core. */
enum class CpmSite {
    Ifu,  ///< Instruction fetch unit.
    Isu,  ///< Instruction scheduling unit.
    Fxu,  ///< Fixed point unit.
    Fpu,  ///< Floating point unit.
    Llc,  ///< Last level cache (separate clock domain on POWER7+).
};

/** Printable name of a CPM site. */
const char *cpmSiteName(CpmSite site);

/** One critical path monitor instance. */
class Cpm
{
  public:
    /**
     * @param core Owning core's silicon parameters (not owned).
     * @param model Shared delay model (not owned).
     * @param site_index Site position (0..kCpmSitesPerCore-1).
     */
    Cpm(const variation::CoreSiliconParams *core,
        const circuit::DelayModel *model, int site_index);

    /**
     * Program the inserted-delay configuration (enabled segments).
     * This is the service-processor command interface the paper uses
     * for fine-tuning.
     */
    void setConfigSteps(CpmSteps steps);

    /** Current inserted-delay configuration. */
    CpmSteps configSteps() const { return configSteps_; }

    /** Site position. */
    int siteIndex() const { return siteIndex_; }

    /**
     * Delay of the monitored structure (inserted delay + synthetic
     * path) under current conditions.
     */
    Picoseconds monitoredDelayPs(Volts v, Celsius t) const;

    /**
     * Same, given the precomputed voltage/temperature delay factor
     * (DelayModel::factor(v, t)). The factor is identical for every
     * site of a core at a given (v, t), so the bank evaluates it
     * once per scan instead of once per site.
     */
    Picoseconds monitoredDelayPs(double delay_factor) const;

    /**
     * The CPM's per-cycle integer output: the inverter count that
     * quantizes the slack.
     */
    int outputCount(Picoseconds period, Volts v, Celsius t) const;

    /** The quantizing chain (for unit conversion). */
    const circuit::InverterChain &chain() const { return chain_; }

    // --- Fault injection -----------------------------------------------

    /**
     * Pin the per-cycle output to a fixed count regardless of the real
     * slack (a stuck latch in the quantizing chain). A high stuck
     * count makes the site report phantom margin; a stuck zero holds
     * the loop in permanent emergency.
     */
    void injectStuckOutput(int count);

    /**
     * Skip enabled inserted-delay segments: the programmed
     * configuration reads back unchanged but the monitored delay is
     * short by the skipped segments, so the site over-reports slack.
     */
    void injectSkippedSegments(int segments);

    /** Release the pinned output (undo injectStuckOutput). */
    void clearStuckOutput();

    /** Restore the skipped segments (undo injectSkippedSegments). */
    void clearSkippedSegments();

    /** True while any fault is injected. */
    bool faulted() const { return stuckActive_ || skippedSegments_ > 0; }

    // --- Kernel view (CpmBank::worstCount) ------------------------------

    /** Cached zero-factor monitored delay (see nominalPs_). */
    double nominalPs() const { return nominalPs_; }

    /** True while the output is pinned by injectStuckOutput(). */
    bool stuckActive() const { return stuckActive_; }

    /** The pinned count while stuckActive() (undefined otherwise). */
    int stuckOutputCount() const { return stuckCount_; }

  private:
    /** Recompute the cached zero-factor monitored delay. */
    void refreshNominal();

    const variation::CoreSiliconParams *core_;
    const circuit::DelayModel *model_;
    circuit::InverterChain chain_;
    int siteIndex_;
    CpmSteps configSteps_;

    /**
     * Cached `synthPathPs * synthScale_ + insertedDelayPs(effective)`.
     * The sum only changes with the configuration or the skipped
     * segments (setConfigSteps / injectSkippedSegments /
     * clearSkippedSegments), yet the engine used to re-accumulate the
     * segment vector every 0.2 ns electrical step on all five sites
     * of every core.
     */
    double nominalPs_ = 0.0;

    // Fault state (see injectStuckOutput / injectSkippedSegments).
    bool stuckActive_ = false;
    int stuckCount_ = 0;
    int skippedSegments_ = 0;

    /**
     * Local synthetic-path scale. Site 0 is the controlling site
     * (scale 1.0); the other sites sit at faster corners, which is
     * why the factory gave them larger preset offsets -- they monitor
     * slightly less delay and do not control the loop.
     */
    double synthScale_;
};

} // namespace atmsim::cpm
