/**
 * @file
 * Full chip characterization on a randomly manufactured chip: run the
 * paper's Fig. 6 procedure (idle -> uBench -> realistic workloads),
 * print the Table-I-style limits, run the test-time stress procedure,
 * and show the deployable per-core configuration.
 *
 *   ./characterize_chip [seed]
 */

#include <cstdint>
#include <iostream>
#include <optional>

#include "chip/chip.h"
#include "core/characterizer.h"
#include "core/stress_test.h"
#include "util/parse.h"
#include "util/table.h"
#include "variation/chip_generator.h"

using namespace atmsim;

int
main(int argc, char **argv)
{
    const std::optional<std::uint64_t> parsed =
        argc > 1 ? util::parseNumber<std::uint64_t>(argv[1]) : 2026;
    if (argc > 2 || !parsed) {
        std::cerr << "usage: characterize_chip [seed]\n"
                     "  seed  non-negative chip generation seed "
                     "(default 2026)\n";
        return 2;
    }
    const std::uint64_t seed = *parsed;
    std::cout << "Manufacturing a random chip (seed " << seed
              << ") and characterizing it...\n\n";

    chip::Chip chip(variation::generateChip("RND", seed));

    // The Fig. 6 methodology: simplest scenario to most complex, with
    // repeated runs per configuration.
    core::Characterizer characterizer(&chip);
    const core::LimitTable table = characterizer.characterizeChip();
    table.print(std::cout);

    // Idle-limit frequencies: the exposed inter-core speed variation.
    util::TextTable freqs;
    freqs.setHeader({"core", "preset", "idle-limit MHz",
                     "thread-worst MHz", "robustness spread"});
    for (int c = 0; c < chip.coreCount(); ++c) {
        const auto &limits = table.byIndex(c);
        freqs.addRow({limits.coreName,
                      std::to_string(
                          chip.core(c).silicon().presetSteps),
                      util::fmtInt(limits.idleLimitFreqMhz),
                      util::fmtInt(limits.worstLimitFreqMhz),
                      std::to_string(limits.rollbackSpread())});
    }
    std::cout << "\n";
    freqs.print(std::cout);

    // Test-time stress procedure: deployable configuration.
    core::StressTester tester(&chip);
    const core::DeployedConfig deployed = tester.deriveDeployedConfig();
    std::cout << "\nDeployable (stress-tested) configuration:\n"
              << "  fastest core  "
              << chip.core(deployed.fastestCore()).name() << " @ "
              << util::fmtInt(deployed.idleFreqMhz[static_cast<
                     std::size_t>(deployed.fastestCore())])
              << " MHz\n"
              << "  slowest core  "
              << chip.core(deployed.slowestCore()).name() << " @ "
              << util::fmtInt(deployed.idleFreqMhz[static_cast<
                     std::size_t>(deployed.slowestCore())])
              << " MHz\n"
              << "  differential  "
              << util::fmtInt(deployed.speedDifferentialMhz())
              << " MHz\n";

    const chip::ChipSteadyState env =
        tester.stressEnvironment(deployed.reductionPerCore);
    double max_temp = 0.0;
    for (util::Celsius t : env.coreTempC)
        max_temp = std::max(max_temp, t.value());
    std::cout << "  stress env    "
              << util::fmtInt(env.chipPowerW.value()) << " W, "
              << util::fmtInt(max_temp) << " degC die\n";
    return 0;
}
