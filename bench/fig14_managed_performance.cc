/**
 * @file
 * Fig. 14: critical-application performance (relative to the 4.2 GHz
 * static margin) for <critical : background> pairs under five
 * settings: static margin, default ATM, fine-tuned unmanaged,
 * managed-max, and managed with a 10% QoS target (balanced).
 *
 * Expected shape: default ATM ~ +6% average; fine-tuned unmanaged
 * ~ +10%; managed-max ~ +15%; balanced meets the 10% goal for every
 * pair, throttling co-runners only where necessary.
 */

#include <iostream>
#include <memory>

#include "bench_util.h"
#include "core/manager.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/catalog.h"

using namespace atmsim;

int
main(int argc, char **argv)
{
    std::string csv_path;
    bench::BenchSession session(
        "fig14_managed_performance", argc, argv,
        {{"--csv", &csv_path, "also write the per-pair series as CSV"}});
    bench::banner("Figure 14",
                  "Critical-app performance vs. static margin, "
                  "<critical : background> pairs on chip P0.");

    auto chip = bench::makeReferenceChip(0);
    core::AtmManager manager(chip.get(), bench::characterize(*chip, session));

    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"squeezenet", "lu_cb"},      {"ferret", "raytrace"},
        {"vgg19", "swaptions"},       {"fluidanimate", "x264"},
        {"seq2seq", "streamcluster"}, {"bodytrack", "blackscholes"},
        {"resnet", "x264"},           {"babi", "swaptions"},
        {"vips", "raytrace"},         {"seq2seq", "lu_cb"},
    };

    util::TextTable table;
    table.setHeader({"critical : background", "static", "default ATM",
                     "fine-tuned", "managed-max", "balanced(10%)",
                     "throttled cores"});
    util::RunningStats s_def, s_fine, s_max, s_bal;

    std::unique_ptr<util::CsvWriter> csv;
    if (!csv_path.empty()) {
        csv = std::make_unique<util::CsvWriter>(csv_path);
        csv->writeRow({"critical", "background", "static", "default_atm",
                       "fine_tuned", "managed_max", "balanced",
                       "throttled_cores"});
    }
    for (const auto &[crit, bg] : pairs) {
        core::ScheduleRequest req;
        req.critical = &workload::findWorkload(crit);
        req.background = &workload::findWorkload(bg);
        req.qosTarget = 1.10;

        const auto r_static =
            manager.evaluate(core::Scenario::StaticMargin, req);
        const auto r_def =
            manager.evaluate(core::Scenario::DefaultAtmUnmanaged, req);
        const auto r_fine =
            manager.evaluate(core::Scenario::FineTunedUnmanaged, req);
        const auto r_max =
            manager.evaluate(core::Scenario::ManagedMax, req);
        const auto r_bal =
            manager.evaluate(core::Scenario::ManagedBalanced, req);

        s_def.add(r_def.criticalPerf);
        s_fine.add(r_fine.criticalPerf);
        s_max.add(r_max.criticalPerf);
        s_bal.add(r_bal.criticalPerf);

        int throttled = 0;
        for (double cap : r_bal.backgroundCapMhz) {
            // atmlint: allow(float-equality) -- 0.0 is the exact
            // "unthrottled" sentinel, never a computed frequency.
            if (cap != 0.0)
                ++throttled;
        }
        table.addRow({crit + " : " + bg,
                      util::fmtFixed(r_static.criticalPerf, 3),
                      util::fmtFixed(r_def.criticalPerf, 3),
                      util::fmtFixed(r_fine.criticalPerf, 3),
                      util::fmtFixed(r_max.criticalPerf, 3),
                      util::fmtFixed(r_bal.criticalPerf, 3)
                          + (r_bal.qosMet ? "" : " !"),
                      std::to_string(throttled)});
        if (csv) {
            csv->writeRow({crit, bg,
                           util::fmtFixed(r_static.criticalPerf, 4),
                           util::fmtFixed(r_def.criticalPerf, 4),
                           util::fmtFixed(r_fine.criticalPerf, 4),
                           util::fmtFixed(r_max.criticalPerf, 4),
                           util::fmtFixed(r_bal.criticalPerf, 4),
                           std::to_string(throttled)});
        }
    }
    table.addRule();
    table.addRow({"average", "1.000", util::fmtFixed(s_def.mean(), 3),
                  util::fmtFixed(s_fine.mean(), 3),
                  util::fmtFixed(s_max.mean(), 3),
                  util::fmtFixed(s_bal.mean(), 3), "-"});
    table.print(std::cout);

    std::cout << "\naverage improvement over static margin: default ATM "
              << util::fmtPercent(s_def.mean() - 1.0)
              << ", fine-tuned unmanaged "
              << util::fmtPercent(s_fine.mean() - 1.0)
              << ", managed-max " << util::fmtPercent(s_max.mean() - 1.0)
              << " (paper: 6.1% / 10.2% / 15.2%).\n"
              << "balanced mode meets the 10% QoS goal by throttling "
                 "only the co-runners that threaten the budget.\n";
    return 0;
}
