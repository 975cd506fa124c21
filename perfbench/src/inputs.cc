#include "inputs.h"

#include <utility>
#include <vector>

#include "harness.h"

namespace atmsim::perfbench {

namespace {

// Independent input streams of one workload seed.
enum Stream : std::uint64_t {
    kChipStream = 1,
    kFaultCellStream = 2,
    kSteadyStream = 3,
    kFleetStream = 4,
};

/** Magnitude range of each fault kind: mid-range values that stay
 *  below the quantizer's saturation at the CPM chain length (24). */
struct MagnitudeRange
{
    double lo;
    double hi;
};

MagnitudeRange
magnitudeRange(fault::FaultKind kind)
{
    switch (kind) {
      case fault::FaultKind::CpmStuckAt: return {6.0, 20.0};
      case fault::FaultKind::CpmSkippedStep: return {1.0, 4.0};
      case fault::FaultKind::SensorDropout: return {0.0, 0.0};
      case fault::FaultKind::VrmLoadStep: return {20.0, 60.0};
      case fault::FaultKind::DroopStorm: return {1.5, 3.0};
      case fault::FaultKind::AgingJump: return {0.03, 0.08};
      case fault::FaultKind::ThermalExcursion: return {15.0, 30.0};
    }
    return {0.0, 0.0};
}

/** A fault of the given kind with a seeded core and magnitude; the
 *  caller sets the window. */
fault::FaultSpec
drawFault(InputRng &rng, fault::FaultKind kind, int core_count)
{
    fault::FaultSpec spec;
    spec.kind = kind;
    const int core = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(core_count)));
    spec.core = spec.kind == fault::FaultKind::VrmLoadStep ? -1 : core;
    spec.site = 0;
    const MagnitudeRange range = magnitudeRange(spec.kind);
    spec.magnitude = range.hi > range.lo ? rng.uniform(range.lo, range.hi)
                                         : range.lo;
    return spec;
}

/** Fault kind of unit `index`: the seven kinds in turn. */
fault::FaultKind
stratifiedKind(long index)
{
    return static_cast<fault::FaultKind>(index % fault::kFaultKindCount);
}

} // namespace

std::uint64_t
chipSeed(std::uint64_t seed, long index)
{
    return deriveSeed(seed, kChipStream, static_cast<std::uint64_t>(index));
}

FaultCell
faultCell(std::uint64_t seed, long index, int chip_pool, int core_count)
{
    InputRng rng(deriveSeed(seed, kFaultCellStream,
                            static_cast<std::uint64_t>(index)));
    FaultCell cell;
    cell.chip = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(chip_pool)));
    // Kinds and deployments are stratified over the index, so every
    // run holds each (kind, deployment) pair in equal measure and
    // only the seeded draws differ between seeds.
    cell.deployment = static_cast<int>(
        (index / fault::kFaultKindCount) % kDeploymentCount);
    cell.spec = drawFault(rng, stratifiedKind(index), core_count);
    // A 5 us strike starting inside the first half of the 12 us run.
    cell.spec.startUs = rng.uniform(0.5, 6.0);
    cell.spec.durationUs = 5.0;
    cell.simSeed = rng.next();
    return cell;
}

SteadyReplay
steadyReplay(std::uint64_t seed, long index, int chip_pool, int core_count)
{
    InputRng rng(deriveSeed(seed, kSteadyStream,
                            static_cast<std::uint64_t>(index)));
    SteadyReplay replay;
    replay.chip = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(chip_pool)));
    // Half the cores (a seeded subset) busy, each with a seeded uBench
    // class; the rest idle.
    replay.assignment.assign(static_cast<std::size_t>(core_count),
                             SteadyClass::Idle);
    std::vector<int> order(static_cast<std::size_t>(core_count));
    for (int c = 0; c < core_count; ++c)
        order[static_cast<std::size_t>(c)] = c;
    for (int c = core_count - 1; c > 0; --c) {
        std::swap(order[static_cast<std::size_t>(c)],
                  order[rng.below(static_cast<std::uint64_t>(c + 1))]);
    }
    for (int k = 0; k < core_count / 2; ++k) {
        const auto core =
            static_cast<std::size_t>(order[static_cast<std::size_t>(k)]);
        replay.assignment[core] =
            rng.below(2) == 0 ? SteadyClass::Coremark : SteadyClass::Daxpy;
    }
    // One edge: a fault of a stratified kind that strikes mid-replay
    // and stays.
    replay.spec = drawFault(rng, stratifiedKind(index), core_count);
    replay.spec.startUs = rng.uniform(20.0, 40.0);
    replay.spec.durationUs = 0.0;
    replay.simSeed = rng.next();
    return replay;
}

std::uint64_t
fleetSeedBase(std::uint64_t seed)
{
    // Kept below 2^62 so seedBase + index never wraps.
    return deriveSeed(seed, kFleetStream, 0) >> 2;
}

} // namespace atmsim::perfbench
