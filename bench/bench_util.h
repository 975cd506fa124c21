/**
 * @file
 * Shared helpers for the figure-reproduction harnesses.
 */

#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "bench_session.h"
#include "chip/chip.h"
#include "core/characterizer.h"
#include "variation/reference_chips.h"

namespace atmsim::bench {

/** Print a figure/table banner. */
inline void
banner(const std::string &id, const std::string &caption)
{
    std::cout << "\n=== " << id << " ===\n" << caption << "\n\n";
}

/** Build one reference chip wrapped in a Chip instance. */
inline std::unique_ptr<chip::Chip>
makeReferenceChip(int index)
{
    return std::make_unique<chip::Chip>(
        variation::makeReferenceChip(index));
}

/** Characterize a chip with the default (analytic, 8-rep) settings. */
inline core::LimitTable
characterize(chip::Chip &chip)
{
    core::Characterizer characterizer(&chip);
    return characterizer.characterizeChip();
}

/** Same, reporting trials/spans into a session's sinks. */
inline core::LimitTable
characterize(chip::Chip &chip, BenchSession &session)
{
    core::Characterizer characterizer(&chip);
    characterizer.setObservability(session.observability());
    return characterizer.characterizeChip();
}

} // namespace atmsim::bench
