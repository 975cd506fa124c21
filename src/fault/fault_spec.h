/**
 * @file
 * Typed fault specifications for injection campaigns.
 *
 * The paper's safety argument (Sec. III-B, Sec. VII-A) rests on the
 * ATM control loop catching droops faster than they can break timing;
 * these specs describe the ways that assumption can fail in the field
 * -- a stuck CPM latch, a mis-programmed inserted-delay chain, a
 * dropped sensor feed, a failing VRM phase, droop storms, abrupt
 * aging, a thermal excursion -- so the campaigns can ask "what happens
 * then?" instead of only simulating the happy path.
 */

#pragma once

#include <string>

namespace atmsim::fault {

/** The fault taxonomy. */
enum class FaultKind {
    /** One CPM site's quantizer output pinned to a fixed count. */
    CpmStuckAt,

    /** One CPM site's inserted-delay chain skips enabled segments. */
    CpmSkippedStep,

    /** DPLL loses its CPM feed and holds the last margin it saw. */
    SensorDropout,

    /** Parasitic load-step current dumped onto the grid (VRM phase). */
    VrmLoadStep,

    /** Burst of resonance-riding transient current at one core. */
    DroopStorm,

    /** Abrupt silicon slowdown; canary and payload age together. */
    AgingJump,

    /** Local junction-temperature excursion on one core. */
    ThermalExcursion,
};

/** Number of distinct fault kinds (for sweeps). */
inline constexpr int kFaultKindCount = 7;

/** Printable (and parseable) fault-kind name. */
const char *faultKindName(FaultKind kind);

/** Inverse of faultKindName(); fatal() on an unknown name. */
FaultKind faultKindFromName(const std::string &name);

/**
 * One armed fault: what breaks, where, when, for how long, how badly.
 *
 * The magnitude is kind-specific:
 *  - CpmStuckAt: the pinned output count (counts, truncated to int).
 *  - CpmSkippedStep: segments the chain skips (steps, truncated).
 *  - SensorDropout: unused.
 *  - VrmLoadStep: parasitic grid current (A).
 *  - DroopStorm: burst current amplitude at the core (A).
 *  - AgingJump: fractional slowdown, e.g. 0.02 for 2% slower.
 *  - ThermalExcursion: junction-temperature offset (degC, > -273.15).
 *
 * Overlapping faults on one target nest (fault::FaultInjector): aging
 * jumps multiply, VRM steps, droop storms and thermal offsets add, a
 * dropout holds while any dropout on the core is active, and a CPM
 * site shows the latest active fault of each kind, so reverting the
 * inner of two faults on a site puts the outer one back.
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::CpmStuckAt;

    /** Target core; -1 means chip-wide (VrmLoadStep only). */
    int core = -1;

    /** CPM site for the CPM faults (0 is the controlling site). */
    int site = 0;

    /** Activation time from the start of the run (us). */
    double startUs = 0.0;

    /** Active window (us); 0 keeps the fault for the rest of the run. */
    double durationUs = 0.0;

    /** Kind-specific intensity (see above). */
    double magnitude = 0.0;

    /** Activation time in engine units (ns). */
    double startNs() const { return startUs * 1e3; }

    /** Expiry time in engine units (ns); +inf for permanent faults. */
    double endNs() const;

    /** Field-wise equality (the injector matches a revert to the
     *  applied fault this way). */
    bool operator==(const FaultSpec &) const = default;

    /** Check internal consistency for a chip; fatal() on violation. */
    void validate(int core_count) const;

    /** Render as a spec string that parse() reads back exactly. */
    std::string format() const;

    /**
     * Parse a spec string of the form
     * "kind:core=3,site=0,start=2,dur=6,mag=12" (times in us; fields
     * other than the kind are optional and default as in the struct).
     */
    static FaultSpec parse(const std::string &text);
};

} // namespace atmsim::fault
