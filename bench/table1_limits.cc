/**
 * @file
 * Table I: ATM reconfiguration limits (CPM delay-reduction steps from
 * the factory preset) under system idle, uBench, thread-normal and
 * thread-worst, for both eight-core chips -- produced by running the
 * full Fig. 6 characterization procedure.
 */

#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "util/logging.h"

using namespace atmsim;

int
main(int argc, char **argv)
{
    std::string csv_path;
    bench::BenchSession session(
        "table1_limits", argc, argv,
        {{"--csv", &csv_path, "also write both limit tables as CSV"}});
    bench::banner("Table I",
                  "ATM limits from the full characterization procedure "
                  "(idle -> uBench -> realistic workloads).");

    std::ofstream csv;
    if (!csv_path.empty()) {
        csv.open(csv_path);
        if (!csv)
            util::fatal("cannot open '", csv_path, "'");
    }

    for (int p = 0; p < 2; ++p) {
        auto chip = bench::makeReferenceChip(p);
        const core::LimitTable table = bench::characterize(*chip, session);
        table.print(std::cout);
        std::cout << "\n";
        if (csv.is_open())
            table.toCsv(csv);
    }
    if (csv.is_open())
        std::cout << "CSV written to " << csv_path << "\n";

    std::cout << "rows must match the paper's Table I exactly (the "
                 "reference chips are calibrated from it; the "
                 "procedure recovers the calibration -- see "
                 "tests/integration/test_table1_reproduction.cc).\n";
    return 0;
}
