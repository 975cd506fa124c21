/**
 * @file
 * Chip-pool helpers shared by the workloads: seeded generation with
 * failure accounting, and the analytic limit table, each wrapped in
 * its layer's span.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chip/chip.h"
#include "core/limit_table.h"
#include "harness.h"
#include "variation/core_silicon.h"

namespace atmsim::perfbench {

/**
 * Generate chip `index` of a workload's pool from the workload seed.
 * A util::FatalError from the generator is tallied as a generator
 * failure and yields nullopt; the seed is never replaced.
 */
[[nodiscard]] std::optional<variation::ChipSilicon>
generatePoolChip(const std::string &prefix, std::uint64_t seed, long index,
                 Tally &tally);

/** Analytic (default-settings) limit table of a chip, inline. */
[[nodiscard]] core::LimitTable characterizeAnalytic(chip::Chip &chip);

} // namespace atmsim::perfbench
