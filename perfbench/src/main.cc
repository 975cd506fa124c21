/**
 * @file
 * atmbench: the repository's benchmark program.
 *
 *   atmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--spans-out <path>]
 *
 * Workloads: fault_sweep, steady_sampled, deploy_engine,
 * fleet_population (see perfbench/README.md for why each exists).
 *
 * --trace 0 runs units back to back for --seconds of host time, sets
 * the workload up repeatedly before and (clock paused) during that
 * time for setup_s, checks the outputs and prints the end-to-end
 * metrics. --trace 1 runs the same units for half the time untraced
 * and half traced, in alternating blocks, with a span around every
 * public atmsim call, and prints the per-layer metrics instead. The
 * last stdout line is always the JSON result; the exit code is 1 when
 * an output check failed and 2 on bad arguments.
 */

#include <algorithm>
#include <functional>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "harness.h"
#include "workload.h"

using namespace atmsim;
using namespace atmsim::perfbench;

namespace {

/**
 * Set-up is repeated in kSetupBlocks blocks of kSetupBlockS host
 * seconds (at least one repetition each): one before the timed phase
 * and the rest at even intervals inside it, with the timed clock
 * paused. setup_s is the median repetition, so it samples the host
 * over the whole run as the timed metrics do.
 */
constexpr int kSetupBlocks = 5;
constexpr double kSetupBlockS = 0.2;

/**
 * The traced pass's blocks, each a quarter of --seconds: untraced,
 * traced, traced, untraced. A steady drift of host speed over the run
 * then weighs both halves alike and cancels out of
 * trace.overhead_ratio.
 */
constexpr bool kTracedBlocks[] = {false, true, true, false};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "atmbench: " << arg << " needs a value\n";
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    throw std::invalid_argument("trace");
                opt.trace = value == "1";
            } else if (arg == "--spans-out") {
                opt.spansOut = value;
            } else {
                std::cerr << "atmbench: unknown argument " << arg << "\n";
                return false;
            }
        } catch (const std::exception &) {
            std::cerr << "atmbench: bad value '" << value << "' for "
                      << arg << "\n";
            return false;
        }
    }
    if (!have_workload || !(opt.seconds > 0.0)) {
        std::cerr << "usage: atmbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n";
        return false;
    }
    return true;
}

const std::map<std::string, WorkloadFactory> &
workloads()
{
    static const std::map<std::string, WorkloadFactory> table = {
        {"fault_sweep", makeFaultSweep},
        {"steady_sampled", makeSteadySampled},
        {"deploy_engine", makeDeployEngine},
        {"fleet_population", makeFleetPopulation},
    };
    return table;
}

/** Units run back to back for a host-time budget. */
struct Phase
{
    std::vector<double> unitMs;
    double elapsedS = 0.0;
    /** Index of the next unit after the phase. */
    long next = 0;

    /** Completed units per host second of the phase. */
    [[nodiscard]] double
    rate() const
    {
        return elapsedS > 0.0
                   ? static_cast<double>(unitMs.size()) / elapsedS
                   : 0.0;
    }
};

/**
 * Run units back to back, from unit index `phase.next`, until
 * `seconds` of timed host time, and add them to `phase`. `pause`, when given, is
 * called `pauses` times at even intervals of the timed time; the clock
 * stops while it runs.
 */
void
runPhase(Phase &phase, Workload &workload, double seconds,
         const std::function<void()> &pause = {}, int pauses = 0)
{
    const double t0 = nowSeconds();
    double paused_s = 0.0;
    int pauses_done = 0;
    const auto timed = [&] { return nowSeconds() - t0 - paused_s; };
    long &next = phase.next;
    while (timed() < seconds) {
        long consumed = 0;
        const std::vector<double> ms = workload.runBatch(next, consumed);
        phase.unitMs.insert(phase.unitMs.end(), ms.begin(), ms.end());
        next += std::max(consumed, 1L);
        if (pause && pauses_done < pauses
            && timed() >= seconds * (pauses_done + 1) / (pauses + 1)) {
            const double p0 = nowSeconds();
            pause();
            paused_s += nowSeconds() - p0;
            ++pauses_done;
        }
    }
    phase.elapsedS += timed();
}

/** Span summary, per-layer sums and the derived per-layer metrics. */
void
reportLayers(Report &report, const std::vector<Span> &spans,
             const LayerCounters &layers, const Tally &tally,
             double overhead_ratio)
{
    const std::map<std::string, SpanTotals> totals = summarizeSpans(spans);
    const auto span = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
    };
    const auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    std::cout << "spans (traced pass):\n";
    for (const auto &[name, t] : totals) {
        std::cout << "  " << std::left << std::setw(26) << name
                  << std::right << " calls " << std::setw(7) << t.count
                  << "  total " << std::setw(10) << std::fixed
                  << std::setprecision(2) << t.totalNs * 1e-6
                  << " ms  self " << std::setw(10) << t.selfNs * 1e-6
                  << " ms\n";
    }
    std::cout.unsetf(std::ios::floatfield);

    const double runs = layers.get("sim.runs");
    const double steps = layers.get("sim.steps");
    const SpanTotals sim_run = span("sim.run");
    report.set("sim.run_ms", sim_run.meanMs(), "ms");
    report.set("sim.steps_per_host_s", per(steps, sim_run.totalNs * 1e-9),
               "1/s");
    report.set("sim.steps", per(steps, runs), "count");
    report.set("sim.fast_forward_ratio",
               per(layers.get("sim.ff_steps"), steps), "ratio");
    report.set("fault.episodes",
               per(layers.get("fault.episodes"), runs), "count");
    report.set("safety.callback_ms",
               per(layers.get("safety.callback_ns") * 1e-6,
                   layers.get("safety.monitored_runs")),
               "ms");
    report.set("safety.silent_failures",
               layers.get("safety.silent_failures"), "count");
    report.set("governor.apply_ms", span("governor.apply").meanMs(), "ms");
    report.set("obs.metrics_on_ratio", layers.get("obs.metrics_on_ratio"),
               "ratio");
    report.set("obs.merge_ms", span("obs.merge").meanMs(), "ms");
    report.set("characterizer.core_ms", span("characterizer.core").meanMs(),
               "ms");
    report.set("characterizer.chip_ms", span("characterizer.chip").meanMs(),
               "ms");
    report.set("characterizer.trials", layers.get("characterizer.trials"),
               "count");
    report.set("characterizer.engine_runs",
               layers.get("characterizer.engine_runs"), "count");
    report.set("stress_test.limit_ms", span("stress_test.limit").meanMs(),
               "ms");
    report.set("stress_test.trials", layers.get("stress_test.trials"),
               "count");
    report.set("predictor.freq_fit_ms", span("predictor.freq_fit").meanMs(),
               "ms");
    report.set("predictor.perf_fit_ms", span("predictor.perf_fit").meanMs(),
               "ms");
    report.set("manager.evaluate_ms", span("manager.evaluate").meanMs(),
               "ms");
    report.set("system_manager.schedule_ms",
               span("system_manager.schedule").meanMs(), "ms");
    report.set("variation.generate_ms",
               span("variation.generate").meanMs(), "ms");
    report.set("variation.failures",
               static_cast<double>(tally.generatorFailures), "count");
    report.set("exec.speedup", layers.get("exec.speedup"), "ratio");
    const SpanTotals campaign = span("fleet.campaign");
    report.set("fleet.campaign_s", campaign.meanMs() * 1e-3, "s");
    report.set("fleet.compute_share",
               per(layers.get("fleet.compute_share"),
                   static_cast<double>(campaign.count)),
               "ratio");
    report.set("fleet.retries", layers.get("fleet.retries"), "count");
    report.set("fleet.shards_failed", layers.get("fleet.shards_failed"),
               "count");
    report.set("fleet.chips_skipped", layers.get("fleet.chips_skipped"),
               "count");
    report.set("population.fold_ms", span("population.fold").meanMs(),
               "ms");
    report.set("rel_err_max", layers.get("rel_err_max"), "ratio");
    report.set("fail_ratio",
               per(static_cast<double>(tally.failed),
                   static_cast<double>(tally.attempted)),
               "ratio");
    report.set("trace.overhead_ratio", overhead_ratio, "ratio");
}

int
run(const Options &opt)
{
    const auto found = workloads().find(opt.workload);
    if (found == workloads().end()) {
        std::cerr << "atmbench: unknown workload '" << opt.workload
                  << "' (fault_sweep, steady_sampled, deploy_engine, "
                     "fleet_population)\n";
        return 2;
    }
    // At most nproc threads in this process.
    const int jobs = std::min(4, exec::hardwareConcurrency());

    Tracer tracer;
    LayerCounters layers;
    if (opt.trace)
        Tracer::setActive(&tracer);

    // Start the exec pool's workers once, before any set-up is timed,
    // so no set-up or unit pays for thread creation.
    exec::parallelFor(static_cast<std::size_t>(jobs), [](std::size_t) {},
                      jobs);

    std::vector<double> setup_s;
    const auto set_up = [&] {
        const double t0 = nowSeconds();
        std::unique_ptr<Workload> w = found->second(opt.seed, jobs);
        w->setUp();
        setup_s.push_back(nowSeconds() - t0);
        return w;
    };
    // Further set-ups build throwaway copies of the same inputs. The
    // peak resident set is read before each block and reset after it,
    // so the copies, which live beside the workload's own inputs, do
    // not count in peak_rss_mb.
    double peak_rss_mb = 0.0;
    const auto set_up_block = [&] {
        peak_rss_mb = std::max(peak_rss_mb, peakRssMb());
        const double t0 = nowSeconds();
        do {
            set_up();
        } while (nowSeconds() - t0 < kSetupBlockS);
        resetPeakRss();
    };
    const std::unique_ptr<Workload> workload = set_up();

    Report report;
    double overhead_ratio = 0.0;
    Phase timed;
    if (!opt.trace) {
        set_up_block();
        runPhase(timed, *workload, opt.seconds, set_up_block,
                 kSetupBlocks - 1);
        peak_rss_mb = std::max(peak_rss_mb, peakRssMb());
    } else {
        // One set-up (its spans are kept), then the same units in
        // untraced and traced blocks, each kind continuing its own
        // unit sequence.
        Phase plain;
        for (const bool traced : kTracedBlocks) {
            Tracer::setActive(traced ? &tracer : nullptr);
            workload->setLayers(traced ? &layers : nullptr);
            runPhase(traced ? timed : plain, *workload,
                     opt.seconds / std::size(kTracedBlocks));
        }
        Tracer::setActive(&tracer);
        workload->setLayers(&layers);
        overhead_ratio = timed.rate() > 0.0
                             ? plain.rate() / timed.rate()
                             : 0.0;
    }
    workload->check();
    if (opt.trace)
        workload->measureLayers();
    Tracer::setActive(nullptr);

    const Tally &tally = workload->tally();
    const TailValue tail = tailValue(timed.unitMs);
    std::cout << std::setprecision(6) << opt.workload << ": "
              << timed.unitMs.size() << " units in " << timed.elapsedS
              << " s; unit_ms_tail " << tail.value << " ms is p"
              << tail.percentile << " of " << tail.samples
              << " samples with " << tail.beyond << " beyond"
              << (tail.qualified ? "" : " (too few samples)")
              << "; set up " << setup_s.size() << " times (min "
              << *std::min_element(setup_s.begin(), setup_s.end()) * 1e3
              << " ms, median " << median(setup_s) * 1e3 << " ms, max "
              << *std::max_element(setup_s.begin(), setup_s.end()) * 1e3
              << " ms)\n"
              << "attempted " << tally.attempted << " "
              << workload->attemptUnit() << ", failed " << tally.failed
              << " (generator failures " << tally.generatorFailures
              << ", failed checks " << tally.failedChecks.size() << ")\n";
    for (const std::string &what : tally.failedChecks)
        std::cout << "CHECK FAILED: " << what << "\n";

    if (!opt.trace) {
        report.set("setup_s", median(setup_s), "s");
        report.set("units_per_s", timed.rate(), "1/s");
        report.set("unit_ms_p50", median(timed.unitMs), "ms");
        report.set("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        const std::vector<Span> spans = tracer.spans();
        reportLayers(report, spans, layers, tally, overhead_ratio);
        if (!opt.spansOut.empty() && !tracer.writeJson(opt.spansOut))
            std::cerr << "atmbench: could not write " << opt.spansOut
                      << "\n";
    }

    const bool correct = tally.failedChecks.empty();
    std::cout << report.json(correct, tally.attempted, tally.failed)
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::cout.flush();
        std::cerr << "atmbench: " << e.what() << "\n";
        return 1;
    }
}
