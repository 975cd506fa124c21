/**
 * @file
 * A fault campaign: a set of typed faults armed at configured times
 * and cores, plus the runtime bookkeeping the engine uses to fire and
 * expire them mid-run. Campaigns parse from a compact spec string
 * (';'-separated FaultSpec strings) so a specific campaign can be
 * replayed deterministically from a command line.
 */

#pragma once

#include <string>
#include <vector>

#include "fault/fault_spec.h"

namespace atmsim::fault {

/** Ordered collection of armed faults with activation tracking. */
class FaultCampaign
{
  public:
    FaultCampaign() = default;

    /** Arm a fault. Order of addition is preserved. */
    void add(const FaultSpec &spec);

    std::size_t size() const { return faults_.size(); }
    bool empty() const { return faults_.empty(); }

    /** Spec of one armed fault. */
    const FaultSpec &spec(std::size_t index) const;

    /** All armed faults. */
    const std::vector<FaultSpec> &specs() const { return faults_; }

    /**
     * Validate every fault against a chip, and the summed offset of
     * overlapping thermal faults on a core; fatal() on violation.
     */
    void validate(int core_count) const;

    /** Parse a ';'-separated spec string (empty string = no faults). */
    static FaultCampaign parse(const std::string &text);

    // --- Runtime scheduling (driven by the engine) ---------------------

    /** Re-arm every fault (start of a run). */
    void reset();

    /**
     * Collect faults whose activation time has arrived: each index is
     * reported exactly once, the first time now_ns passes its start.
     */
    void collectActivations(double now_ns, std::vector<std::size_t> &out);

    /**
     * Collect active faults whose window has ended: each index is
     * reported exactly once, after it was activated.
     */
    void collectExpirations(double now_ns, std::vector<std::size_t> &out);

    /**
     * Earliest upcoming schedule edge (ns): the soonest pending
     * activation or active-fault expiration. +infinity once every
     * fault is done. The engine skips the fault phase entirely on
     * steps before this time -- the campaign scan (and its
     * profiling span) used to run every 0.2 ns step of a campaign
     * even when nothing could possibly fire.
     */
    [[nodiscard]] double nextEdgeNs() const;

  private:
    enum class Phase { Pending, Active, Done };

    std::vector<FaultSpec> faults_;
    std::vector<Phase> phases_;
};

} // namespace atmsim::fault
