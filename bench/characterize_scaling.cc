/**
 * @file
 * Thread-pool scaling baseline: engine-mode characterizeChip() wall
 * clock, serial versus the session's --jobs setting, on reference
 * chip 0. Prints the speedup, proves the two tables are identical
 * (the determinism contract of exec::parallelFor), and records
 *
 *   characterize.serial_seconds    jobs=1 wall clock
 *   characterize.parallel_seconds  jobs=N wall clock
 *   characterize.speedup           serial / parallel
 *   characterize.cores_per_sec     cores / parallel_seconds
 *
 * in BENCH_characterize.json. CI gates cores_per_sec against the
 * checked-in baseline via
 *   tools/bench/check_regression.py BENCH_characterize.json \
 *       --reference bench/BENCH_characterize.json \
 *       --metric counters:characterize.cores_per_sec
 */

#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "core/limit_table.h"
#include "obs/phase.h"
#include "util/logging.h"
#include "util/table.h"

using namespace atmsim;

namespace {

std::string
tableCsv(const core::LimitTable &table)
{
    std::ostringstream os;
    table.toCsv(os);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 2;
    bench::BenchSession session(
        "characterize", argc, argv,
        {{"--reps", &reps, "characterization repeats (default 2)"}});
    bench::banner("Characterization scaling",
                  "Engine-mode characterizeChip() wall clock, serial "
                  "vs --jobs, reference chip 0.");

    auto chip = bench::makeReferenceChip(0);
    session.setChip(chip->name());
    core::CharacterizerConfig config;
    config.mode = core::CharacterizerConfig::Mode::Engine;
    config.reps = reps; // timing harness: noise coverage not needed
    config.engineWindowUs = 1.0;
    session.setConfig("characterizer.reps", std::to_string(reps));
    session.setConfig("characterizer.window_us", "1.0");
    session.setSeed(config.seed);

    config.jobs = 1;
    core::Characterizer serial(chip.get(), config);
    const double serial_t0 = obs::monotonicWallNs();
    const core::LimitTable serial_table = serial.characterizeChip();
    const double serial_s = (obs::monotonicWallNs() - serial_t0) * 1e-9;

    config.jobs = session.jobs();
    core::Characterizer parallel(chip.get(), config);
    const double par_t0 = obs::monotonicWallNs();
    const core::LimitTable parallel_table = parallel.characterizeChip();
    const double par_s = (obs::monotonicWallNs() - par_t0) * 1e-9;

    // The determinism contract: any job count, the same table.
    if (tableCsv(serial_table) != tableCsv(parallel_table))
        util::fatal("characterizeChip() diverged between jobs=1 and "
                    "jobs=" + std::to_string(session.jobs()));

    const double cores = static_cast<double>(chip->coreCount());
    util::TextTable out;
    out.setHeader({"configuration", "wall s", "cores/s"});
    out.addRow({"jobs=1", util::fmtFixed(serial_s, 3),
                util::fmtFixed(cores / serial_s, 2)});
    out.addRow({"jobs=" + std::to_string(session.jobs()),
                util::fmtFixed(par_s, 3),
                util::fmtFixed(cores / par_s, 2)});
    out.print(std::cout);
    std::cout << "\nspeedup: x" << util::fmtFixed(serial_s / par_s, 2)
              << " (tables bitwise-identical)\n";

    session.setCounter("characterize.serial_seconds", serial_s);
    session.setCounter("characterize.parallel_seconds", par_s);
    session.setCounter("characterize.speedup", serial_s / par_s);
    session.setCounter("characterize.cores_per_sec", cores / par_s);
    return 0;
}
