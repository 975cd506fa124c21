#include "variation/chip_generator.h"

#include <algorithm>
#include <cmath>

#include "circuit/constants.h"
#include "util/logging.h"
#include "util/units.h"
#include "variation/calibration.h"
#include "variation/process_grid.h"

namespace atmsim::variation {

namespace {

/** Weighted draw of a rollback gap between adjacent limit rows. */
int
sampleGap(util::Rng &rng, std::initializer_list<double> weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double u = rng.uniform() * total;
    int value = 0;
    for (double w : weights) {
        if (u < w)
            return value;
        u -= w;
        ++value;
    }
    return value - 1;
}

} // namespace

ChipSilicon
generateChip(const std::string &name, std::uint64_t seed,
             const ChipGeneratorConfig &config)
{
    ChipSilicon chip;
    chip.name = name;
    util::Rng rng(seed);
    ProcessGrid grid(config.gridResolution, config.gridSmoothing, rng);

    for (int c = 0; c < circuit::kCoresPerChip; ++c) {
        // Cores sit in a 2x4 arrangement on the die.
        const double x = (c % 4) / 3.0;
        const double y = (c / 4) * 1.0;
        const double field = grid.sample(x, y);

        CoreLimitTargets targets;
        targets.idleLimitMhz = std::clamp(
            config.idleLimitMeanMhz + field * config.idleLimitSigmaMhz
                + rng.gaussian(0.0, 25.0),
            config.idleLimitMinMhz, config.idleLimitMaxMhz);

        // The idle limit follows from how much period must be removed
        // to reach the idle-limit frequency at ~2 ps per segment.
        const double removal =
            util::periodOf(circuit::kDefaultAtmIdleMhz).value()
            - util::mhzToPs(targets.idleLimitMhz);
        const int idle_guess = static_cast<int>(
            std::lround(removal / kMeanStepPs + rng.gaussian(0.0, 0.8)));
        targets.idle = std::clamp(idle_guess, 2, 12);
        // buildCoreFromTargets needs >= 0.9 ps of removal per idle
        // segment; the jitter above can overshoot that.
        const double speed = 4950.0 / targets.idleLimitMhz;
        targets.idle = std::min(
            targets.idle,
            static_cast<int>(std::floor(removal / speed / 0.9)));

        targets.ubench = std::max(
            1, targets.idle - sampleGap(rng, {0.60, 0.22, 0.12, 0.06}));
        targets.normal = std::max(
            1, targets.ubench - sampleGap(rng, {0.35, 0.45, 0.20}));
        targets.worst = std::max(
            1, targets.normal - sampleGap(rng, {0.25, 0.30, 0.25, 0.12,
                                                0.08}));

        const int preset = std::max(targets.idle + 4, 7)
                         + static_cast<int>(rng.below(3));
        const std::string core_name = name + "C" + std::to_string(c);
        util::Rng core_rng = rng.fork(static_cast<std::uint64_t>(c) + 101);
        chip.cores.push_back(buildCoreFromTargets(core_name, targets,
                                                  preset, speed, core_rng));
    }
    chip.validate();
    return chip;
}

} // namespace atmsim::variation
