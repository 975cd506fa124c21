/**
 * @file
 * Deployment-at-scale study (extends the paper): the complete
 * fine-tuning pipeline over a population of randomly manufactured
 * chips, reporting how much inter-core variation the method exposes
 * across the process distribution -- the paper's two measured parts
 * are individual draws from this population. The chips run through
 * the crash-resilient campaign driver (src/fleet): in-process waves
 * of --jobs shards, or forked workers with supervised retry,
 * watchdog, periodic checkpoints and exact resume. The aggregate is
 * bitwise-identical to the serial core::studyPopulation fold at any
 * job or worker count (--serial-check compares the two).
 */

#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_session.h"
#include "core/population.h"
#include "fleet/supervisor.h"
#include "util/json_writer.h"
#include "util/table.h"

using namespace atmsim;

namespace {

/**
 * The exact result document: full accumulator state plus the metric
 * snapshot. Two campaigns agree iff these strings are equal.
 */
std::string
resultJson(const core::PopulationStats &stats,
           const obs::MetricsSnapshot &metrics)
{
    std::ostringstream os;
    {
        util::JsonWriter json(os);
        json.beginObject();
        json.key("stats");
        stats.writeJson(json);
        json.key("metrics");
        metrics.writeJson(json);
        json.endObject();
    }
    os << '\n';
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetConfig config;
    std::string statsOut;
    bool serialCheck = false;
    bool selfInterrupt = false;
    const auto halt_then_interrupt = [&](const std::string &text) {
        config.haltAfterShards =
            bench::parseFlagNumber<long>("--self-interrupt-after", text);
        selfInterrupt = true;
    };
    bench::BenchSession session(
        "fleet_study", argc, argv,
        {{"--chips", &config.population.chipCount,
          "population size (default 24)"},
         {"--seed", &config.population.seedBase, "seed base (default 1000)"},
         {"--workers", &config.workers,
          "forked workers; 0 = in-process (default)"},
         {"--shard-size", &config.shardSize, "chips per shard (default 4)"},
         {"--checkpoint-dir", &config.checkpointDir,
          "enable checkpointing into this directory"},
         {"--checkpoint-every", &config.checkpointEvery,
          "checkpoint cadence in decided shards"},
         {"--resume", &config.resume,
          "continue from the checkpoint directory"},
         {"--strict-resume", &config.strictResume,
          "fail instead of restarting on a bad checkpoint"},
         {"--max-retries", &config.maxRetries,
          "re-assignments per shard (default 2)"},
         {"--watchdog-seconds", &config.watchdogSeconds,
          "hung-worker timeout (default 30)"},
         {"--backoff-seconds", &config.backoffSeconds,
          "base retry backoff (default 0.25)"},
         {"--fail-inject", "<spec>",
          [&](const std::string &text) {
              config.failInject = fleet::FailInject::parse(text);
          },
          "shard=K[,chip=C][,times=N][,mode=exit|hang]"},
         {"--halt-after", &config.haltAfterShards,
          "stop once n shards are decided"},
         {"--self-interrupt-after", "<n>", halt_then_interrupt,
          "halt at n shards, then raise SIGINT (exits 130)"},
         {"--stats-out", &statsOut,
          "write the exact stats+metrics JSON to this path"},
         {"--serial-check", &serialCheck,
          "re-run single-process and compare bitwise"}});

    session.setSeed(config.population.seedBase);
    session.setConfig("fleet.chips",
                      std::to_string(config.population.chipCount));
    session.setConfig("fleet.workers",
                      std::to_string(config.workers));
    session.setConfig("fleet.shard_size",
                      std::to_string(config.shardSize));
    session.setConfig("fleet.max_retries",
                      std::to_string(config.maxRetries));
    if (config.failInject.enabled())
        session.setConfig("fleet.fail_inject",
                          config.failInject.describe());

    const fleet::FleetResult result = fleet::runFleetCampaign(config);
    // After the campaign, which validates the configuration first:
    // bad input exits 2 before any output.
    std::cout << "\n=== Fleet population study ===\n"
              << config.population.chipCount << " chips in shards of "
              << config.shardSize << ", "
              << (config.workers > 0
                      ? std::to_string(config.workers)
                            + " forked workers"
                      : std::string("in-process"))
              << ".\n\n";

    session.setFleet(result.coverage);
    session.metrics().mergeFrom(result.metrics);
    session.setCounter("fleet.chips_done",
                       static_cast<double>(result.coverage.chipsDone));
    session.setCounter(
        "fleet.chips_skipped",
        static_cast<double>(result.coverage.chipsSkipped));
    session.setCounter("fleet.retries",
                       static_cast<double>(result.coverage.retries));
    long spanEvents = 0;
    long spansDropped = 0;
    for (const obs::WorkerManifest &w : result.coverage.workers) {
        spanEvents += w.spanEvents;
        spansDropped += w.spansDropped;
    }
    session.setCounter("fleet.span_events",
                       static_cast<double>(spanEvents));
    session.setCounter("fleet.spans_dropped",
                       static_cast<double>(spansDropped));
    session.setWorkerSpans(result.spanBatches);

    const obs::FleetManifest &cov = result.coverage;
    std::cout << "shards: " << cov.shardsCompleted << "/"
              << cov.shardsTotal << " completed, " << cov.shardsFailed
              << " failed; chips: " << cov.chipsDone << " done, "
              << cov.chipsSkipped << " skipped; retries: "
              << cov.retries << "; checkpoints: "
              << cov.checkpointsWritten
              << (cov.resumed ? " (resumed)" : "") << "\n";

    if (result.halted) {
        std::cout << "campaign halted after "
                  << (cov.shardsCompleted + cov.shardsFailed)
                  << " decided shards (checkpoint written)\n";
        if (selfInterrupt) {
            // Exercise the interrupted-manifest path for real: the
            // session's SIGINT handler flushes the manifest with
            // interrupted=true and exits 130.
            std::raise(SIGINT);
        }
        return 0;
    }

    if (!statsOut.empty()) {
        std::ofstream os(statsOut, std::ios::binary);
        if (!os)
            util::fatal("cannot open ", statsOut);
        os << resultJson(result.stats, result.metrics);
        std::cout << "exact result written to " << statsOut << "\n";
    }

    const core::PopulationStats &stats = result.stats;
    if (stats.chipCount > 0) {
        util::TextTable table;
        table.setHeader({"quantity", "mean", "min", "max"});
        table.addRow({"idle limit (steps)",
                      util::fmtFixed(stats.idleLimitSteps.mean(), 1),
                      std::to_string(stats.idleLimitSteps.minValue()),
                      std::to_string(stats.idleLimitSteps.maxValue())});
        table.addRow({"idle-limit frequency (MHz)",
                      util::fmtInt(stats.idleLimitMhz.mean()),
                      util::fmtInt(stats.idleLimitMhz.min()),
                      util::fmtInt(stats.idleLimitMhz.max())});
        table.addRow({"deployable (thread-worst) frequency (MHz)",
                      util::fmtInt(stats.worstLimitMhz.mean()),
                      util::fmtInt(stats.worstLimitMhz.min()),
                      util::fmtInt(stats.worstLimitMhz.max())});
        table.addRow({"per-chip speed differential (MHz)",
                      util::fmtInt(stats.differentialMhz.mean()),
                      util::fmtInt(stats.differentialMhz.min()),
                      util::fmtInt(stats.differentialMhz.max())});
        table.addRow({"robust cores per chip",
                      util::fmtFixed(stats.robustCores.mean(), 1),
                      util::fmtInt(stats.robustCores.min()),
                      util::fmtInt(stats.robustCores.max())});
        table.print(std::cout);

        std::cout << "\nchips with a >=200 MHz deployed differential: "
                  << util::fmtPercent(stats.fracAbove200Mhz())
                  << " -- the paper's headline differential is typical "
                     "of the process, not a property of its two parts.\n"
                  << "median differential: "
                  << util::fmtInt(util::percentile(stats.differentials, 50))
                  << " MHz; p90: "
                  << util::fmtInt(util::percentile(stats.differentials, 90))
                  << " MHz\n";
    }

    if (serialCheck) {
        if (cov.shardsFailed > 0) {
            std::cout << "serial check skipped: " << cov.shardsFailed
                      << " shard(s) lost to exhausted retries\n";
            return 0;
        }
        const core::PopulationStats reference =
            core::studyPopulation(config.population);
        std::ostringstream fleetDoc, serialDoc;
        {
            util::JsonWriter json(fleetDoc);
            result.stats.writeJson(json);
        }
        {
            util::JsonWriter json(serialDoc);
            reference.writeJson(json);
        }
        if (fleetDoc.str() != serialDoc.str()) {
            std::cerr << "serial check FAILED: fleet aggregate "
                         "differs from studyPopulation\n";
            return 1;
        }
        std::cout << "serial check passed: fleet aggregate is "
                     "bitwise-identical to studyPopulation\n";
    }
    return 0;
}
