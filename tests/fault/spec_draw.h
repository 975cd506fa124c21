/**
 * @file
 * Seeded draws from the fault-spec grammar, shared by the injector's
 * overlay property test and the spec-parser mutation fuzzer.
 */

#pragma once

#include <cstdint>

#include "fault/fault_spec.h"
#include "util/rng.h"

namespace atmsim::fault::test_support {

/** A uniform integer in [0, n). */
inline int
drawBelow(util::Rng &rng, int n)
{
    return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
}

/**
 * A valid spec of any kind on one of cores [0, cores) and CPM sites
 * [0, sites): a start and window in us (a quarter of the draws are
 * permanent) and a magnitude from the kind's own range, at full
 * double precision so that formatting must be exact to round-trip.
 */
inline FaultSpec
drawSpec(util::Rng &rng, int cores, int sites)
{
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(drawBelow(rng, kFaultKindCount));
    spec.core = spec.kind == FaultKind::VrmLoadStep ? -1
                                                    : drawBelow(rng, cores);
    spec.startUs = rng.uniform(0.0, 10.0);
    spec.durationUs = drawBelow(rng, 4) == 0 ? 0.0 : rng.uniform(0.1, 10.0);
    switch (spec.kind) {
      case FaultKind::CpmStuckAt:
        spec.site = drawBelow(rng, sites);
        spec.magnitude = rng.uniform(0.0, 24.0);
        break;
      case FaultKind::CpmSkippedStep:
        spec.site = drawBelow(rng, sites);
        spec.magnitude = rng.uniform(0.0, 6.0);
        break;
      case FaultKind::SensorDropout:
        break;
      case FaultKind::VrmLoadStep:
        spec.magnitude = rng.uniform(1.0, 60.0);
        break;
      case FaultKind::DroopStorm:
        spec.magnitude = rng.uniform(0.5, 3.0);
        break;
      case FaultKind::AgingJump:
        spec.magnitude = rng.uniform(-0.05, 0.1);
        break;
      case FaultKind::ThermalExcursion:
        spec.magnitude = rng.uniform(-20.0, 40.0);
        break;
    }
    return spec;
}

} // namespace atmsim::fault::test_support
