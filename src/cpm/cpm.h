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

#include <optional>

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

/**
 * The faults injected into one site (default: healthy). A stuck latch
 * pins the output at `stuckCount` whatever the slack: a high count is
 * phantom margin, a stuck zero permanent emergency. Skipped enabled
 * inserted-delay segments shorten the monitored delay while the
 * configuration reads back unchanged, so the site over-reports slack.
 */
struct CpmFaults
{
    std::optional<int> stuckCount;
    int skippedSegments = 0;

    bool operator==(const CpmFaults &) const = default;
};

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

    /** Set the site's injected faults; fatal() on a negative count. */
    void setFaults(const CpmFaults &faults);

    /** The site's injected faults. */
    const CpmFaults &faults() const { return faults_; }

    /** True while any fault is injected. */
    bool faulted() const { return faults_ != CpmFaults{}; }

    // --- Kernel view (CpmBank::worstCount) ------------------------------

    /** Cached zero-factor monitored delay (see nominalPs_). */
    double nominalPs() const { return nominalPs_; }

    /** True while the output is pinned by a stuck fault. */
    bool stuckActive() const { return faults_.stuckCount.has_value(); }

    /** The pinned count while stuckActive() (undefined otherwise). */
    int stuckOutputCount() const { return *faults_.stuckCount; }

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
     * segments (setConfigSteps / setFaults), yet the engine used to
     * re-accumulate the segment vector every 0.2 ns electrical step
     * on all five sites of every core.
     */
    double nominalPs_ = 0.0;

    CpmFaults faults_;

    /**
     * Local synthetic-path scale. Site 0 is the controlling site
     * (scale 1.0); the other sites sit at faster corners, which is
     * why the factory gave them larger preset offsets -- they monitor
     * slightly less delay and do not control the loop.
     */
    double synthScale_;
};

} // namespace atmsim::cpm
