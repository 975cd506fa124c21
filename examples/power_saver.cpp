/**
 * @file
 * Power-saver mode: the other use of reclaimed timing margin. The
 * off-chip voltage controller lowers chip-wide V_dd until the slowest
 * core just sustains a frequency target, converting ATM's margin into
 * power savings instead of frequency. Fine-tuned CPM configurations
 * raise the slowest core, unlocking deeper undervolting at the same
 * target.
 *
 *   ./power_saver [target_mhz]
 */

#include <cmath>
#include <iostream>
#include <optional>

#include "chip/chip.h"
#include "core/characterizer.h"
#include "core/governor.h"
#include "core/undervolt.h"
#include "util/parse.h"
#include "util/table.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

using namespace atmsim;

int
main(int argc, char **argv)
{
    const std::optional<double> parsed =
        argc > 1 ? util::parseNumber<double>(argv[1]) : 4200.0;
    if (argc > 2 || !parsed || !std::isfinite(*parsed) || *parsed <= 0.0) {
        std::cerr << "usage: power_saver [target_mhz]\n"
                     "  target_mhz  positive slowest-core frequency "
                     "target (default 4200)\n";
        return 2;
    }
    const double target = *parsed;

    chip::Chip chip(variation::makeReferenceChip(0));
    core::Characterizer characterizer(&chip);
    core::Governor governor(&chip, characterizer.characterizeChip());

    // A realistic mixed load.
    const char *mix[] = {"gcc", "blackscholes", "xz", "leela",
                         "swaptions", "namd", "raytrace", "freqmine"};
    for (int c = 0; c < chip.coreCount(); ++c)
        chip.assignWorkload(c, &workload::findWorkload(mix[c]));

    std::cout << "Undervolting to a " << target
              << " MHz slowest-core target under a mixed SPEC/PARSEC "
                 "load.\n\n";

    util::TextTable table;
    table.setHeader({"CPM policy", "Vdd (V)", "slowest MHz", "chip W",
                     "saved"});
    for (core::GovernorPolicy policy :
         {core::GovernorPolicy::DefaultAtm,
          core::GovernorPolicy::FineTuned}) {
        governor.apply(policy);
        core::UndervoltController controller(&chip, target);
        const core::UndervoltResult result = controller.solve();
        table.addRow({core::governorPolicyName(policy),
                      util::fmtFixed(result.vrmSetpointV, 3),
                      util::fmtInt(result.slowestCoreMhz),
                      util::fmtInt(result.undervoltPowerW),
                      util::fmtPercent(result.savingFrac())});
        controller.restore();
    }
    table.print(std::cout);

    std::cout << "\nthe paper studies the overclocking configuration; "
                 "this is the same reclaimed margin converted to power "
                 "(Sec. II / Fig. 3's off-chip voltage control), where "
                 "the chip's worst core limits the saving -- which is "
                 "why per-core fine-tuning helps here too.\n";
    return 0;
}
