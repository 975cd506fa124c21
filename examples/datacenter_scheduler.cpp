/**
 * @file
 * QoS-managed scheduling on a fine-tuned ATM chip: place a critical
 * inference workload, derive the power budget its QoS target implies,
 * and throttle co-running background work only as much as necessary
 * (the Fig. 13 flow).
 *
 *   ./datacenter_scheduler [critical] [background] [qos%]
 *   e.g. ./datacenter_scheduler ferret raytrace 10
 */

#include <cmath>
#include <iostream>
#include <optional>

#include "chip/chip.h"
#include "core/characterizer.h"
#include "core/manager.h"
#include "util/parse.h"
#include "util/table.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

using namespace atmsim;

namespace {

int
usage()
{
    std::cerr << "usage: datacenter_scheduler [critical] [background] "
                 "[qos%]\n"
                 "  critical    catalog workload (default squeezenet)\n"
                 "  background  catalog workload (default lu_cb)\n"
                 "  qos%        performance target over the static "
                 "margin, in percent (default 10)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string critical_name = argc > 1 ? argv[1] : "squeezenet";
    const std::string background_name = argc > 2 ? argv[2] : "lu_cb";
    const std::optional<double> parsed =
        argc > 3 ? util::parseNumber<double>(argv[3]) : 10.0;
    if (argc > 4 || !parsed || !std::isfinite(*parsed))
        return usage();
    const double qos_pct = *parsed;

    if (!workload::hasWorkload(critical_name)
        || !workload::hasWorkload(background_name)) {
        std::cerr << "unknown workload; available:\n";
        for (const auto &w : workload::allWorkloads())
            std::cerr << "  " << w.name << "\n";
        return usage();
    }

    chip::Chip chip(variation::makeReferenceChip(0));
    core::Characterizer characterizer(&chip);
    core::AtmManager manager(&chip, characterizer.characterizeChip());

    core::ScheduleRequest req;
    req.critical = &workload::findWorkload(critical_name);
    req.background = &workload::findWorkload(background_name);
    req.qosTarget = 1.0 + qos_pct / 100.0;

    std::cout << "Scheduling critical '" << critical_name
              << "' with background '" << background_name
              << "', QoS target +" << qos_pct << "% over the 4.2 GHz "
              << "static margin.\n\n";

    util::TextTable table;
    table.setHeader({"scenario", "critical core", "freq MHz", "perf",
                     "chip W", "budget W", "QoS"});
    for (core::Scenario scenario :
         {core::Scenario::StaticMargin,
          core::Scenario::DefaultAtmUnmanaged,
          core::Scenario::FineTunedUnmanaged, core::Scenario::ManagedMax,
          core::Scenario::ManagedBalanced}) {
        const core::ScenarioResult r = manager.evaluate(scenario, req);
        table.addRow({core::scenarioName(scenario),
                      chip.core(r.criticalCore).name(),
                      util::fmtInt(r.criticalFreqMhz),
                      util::fmtFixed(r.criticalPerf, 3),
                      util::fmtInt(r.chipPowerW),
                      r.powerBudgetW > 0.0
                          ? util::fmtInt(r.powerBudgetW)
                          : std::string("-"),
                      r.qosMet ? "met" : "missed"});
    }
    table.print(std::cout);

    // Show the balanced plan's throttling decisions.
    const core::ScenarioResult balanced =
        manager.evaluate(core::Scenario::ManagedBalanced, req);
    std::cout << "\nBalanced-mode background plan:\n";
    for (int c = 0; c < chip.coreCount(); ++c) {
        if (c == balanced.criticalCore) {
            std::cout << "  " << chip.core(c).name()
                      << ": critical workload (fastest deployed core)\n";
            continue;
        }
        const double cap = balanced.backgroundCapMhz[static_cast<
            std::size_t>(c)];
        std::cout << "  " << chip.core(c).name() << ": "
                  << background_name << " @ ";
        if (cap < 0.0)
            std::cout << "power-gated\n";
        // atmlint: allow(float-equality) -- 0.0 is the exact
        // "unthrottled" sentinel, never a computed frequency.
        else if (cap == 0.0)
            std::cout << "fine-tuned ATM (unthrottled)\n";
        else
            std::cout << util::fmtInt(cap) << " MHz p-state\n";
    }
    return 0;
}
