#include "pool.h"

#include "core/characterizer.h"
#include "inputs.h"
#include "util/logging.h"
#include "variation/chip_generator.h"

namespace atmsim::perfbench {

std::optional<variation::ChipSilicon>
generatePoolChip(const std::string &prefix, std::uint64_t seed, long index,
                 Tally &tally)
{
    ScopedSpan span("variation.generate", -1);
    try {
        return variation::generateChip(prefix + std::to_string(index),
                                       chipSeed(seed, index));
    } catch (const util::FatalError &) {
        ++tally.generatorFailures;
        return std::nullopt;
    }
}

core::LimitTable
characterizeAnalytic(chip::Chip &chip)
{
    ScopedSpan span("characterizer.chip", -1);
    core::CharacterizerConfig config;
    config.jobs = 1;
    core::Characterizer characterizer(&chip, config);
    return characterizer.characterizeChip();
}

} // namespace atmsim::perfbench
