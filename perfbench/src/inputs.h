/**
 * @file
 * Seed-to-input generation for every workload. Everything the
 * benchmark feeds atmsim is a pure function of (workload seed, index)
 * defined here, so the same seed always yields the same inputs and
 * the library receives nothing else. Chip seeds are drawn without
 * filtering: a seed on which variation::generateChip fails stays in
 * the input and is counted as a failure.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_spec.h"

namespace atmsim::perfbench {

/** Seed of chip `index` of a workload's chip pool. */
[[nodiscard]] std::uint64_t chipSeed(std::uint64_t seed, long index);

/** One fault_sweep cell. */
struct FaultCell
{
    int chip = 0;        ///< Index into the chip pool.
    int deployment = 0;  ///< 0 fine-tuned+monitor, 1 fine-tuned, 2 default-ATM.
    fault::FaultSpec spec;
    std::uint64_t simSeed = 0;
};

inline constexpr int kDeploymentCount = 3;

/** Cell `index` of a fault_sweep run. */
[[nodiscard]] FaultCell faultCell(std::uint64_t seed, long index,
                                  int chip_pool, int core_count);

/** Per-core assignment classes of a steady_sampled replay. */
enum class SteadyClass { Idle, Coremark, Daxpy };

/** One steady_sampled replay. */
struct SteadyReplay
{
    int chip = 0;
    std::vector<SteadyClass> assignment; ///< One per core.
    fault::FaultSpec spec;               ///< The single fault edge.
    std::uint64_t simSeed = 0;
};

/** Replay `index` of a steady_sampled run. */
[[nodiscard]] SteadyReplay steadyReplay(std::uint64_t seed, long index,
                                        int chip_pool, int core_count);

/** First chip seed of the fleet_population slice. */
[[nodiscard]] std::uint64_t fleetSeedBase(std::uint64_t seed);

} // namespace atmsim::perfbench
