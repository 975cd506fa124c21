/**
 * @file
 * Applies armed faults to a chip's components and reverts them when
 * their window closes. The injector owns the mapping from the typed
 * FaultSpec taxonomy onto the per-component fault hooks (CPM stuck /
 * skip, DPLL dropout, PDN parasitic load, silicon speed, thermal
 * offset) so the engine only has to drive activation times.
 *
 * Faults are an overlay: the injector saves each quantity a fault
 * touches before the first fault does, and every apply or revert
 * recomputes that quantity from its saved base over the active faults
 * in apply order (FaultSpec says how each kind combines). Reverts are
 * exact, and every kind nests by this one rule.
 */

#pragma once

#include <vector>

#include "chip/chip.h"
#include "cpm/cpm.h"
#include "fault/fault_spec.h"

namespace atmsim::fault {

/** Applies and reverts faults on one chip. */
class FaultInjector
{
  public:
    /** @param target Chip to inject into (not owned). */
    explicit FaultInjector(chip::Chip *target);

    /** Restores every quantity a fault touched to its saved base. */
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Apply a fault to the chip. Validates the spec first. */
    void apply(const FaultSpec &spec);

    /** Undo a previously applied fault; panic() if it is not active. */
    void revert(const FaultSpec &spec);

    /**
     * Instantaneous droop-storm current at a core (A): every active
     * DroopStorm on that core contributes a square-wave burst at the
     * PDN's first-droop resonance, the worst-case excitation.
     */
    double stormCurrentA(int core, double now_ns) const;

    /** True while any droop storm is active (engine fast-path gate). */
    bool stormActive() const { return !storms_.empty(); }

    /** Number of currently applied faults. */
    int activeCount() const { return static_cast<int>(active_.size()); }

  private:
    /** The chip quantity a fault acts on. Both CPM kinds act on their
     *  site, which is named by the CpmStuckAt kind. */
    struct Target
    {
        FaultKind kind;
        int core;
        int site;

        bool operator==(const Target &) const = default;
    };

    /** A target's value before the first fault touched it: `value`
     *  for speed, current and temperature, `dropped` for a dropout,
     *  `site` for a CPM site. */
    struct Base
    {
        Target target;
        double value = 0.0;
        bool dropped = false;
        cpm::CpmFaults site;
    };

    static Target targetOf(const FaultSpec &spec);

    /** A target's value as the chip holds it now. */
    Base baseOf(const Target &target) const;

    /** Write a target's base, folded over its active faults. */
    void recompute(const Target &target);

    chip::Chip *chip_;
    std::vector<Base> bases_;
    /** Active faults in apply order. */
    std::vector<FaultSpec> active_;
    /** The active droop storms (the engine reads them every step). */
    std::vector<FaultSpec> storms_;
};

} // namespace atmsim::fault
