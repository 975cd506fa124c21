/**
 * @file
 * Per-harness observability session.
 *
 * Every figure/table/ablation harness owns one BenchSession. The
 * session parses the command line against one flag table -- the
 * shared observability flags of sessionFlags() plus the harness's
 * own -- carries the metrics registry and (optional) trace collector
 * the harness hands to engines and characterizers, accumulates engine
 * totals across runs, and -- on destruction -- writes the
 * run-provenance manifest (and trace) next to the harness's printed
 * output.
 *
 * Every value flag takes "--flag value" and "--flag=value" alike.
 * The values of --trace and --flight-recorder are optional; the
 * separate form takes one only when the next argument is not a flag.
 * Bad input ends the run with the usage and exit code 2, and so does
 * any util::FatalError the harness lets escape (see onTerminate).
 *
 * The session also installs SIGINT/SIGTERM handlers for its
 * lifetime: an interrupted harness still flushes its manifest (and
 * trace), with the manifest's `interrupted` flag set, so a ^C'd
 * campaign leaves an honest partial record instead of nothing. The
 * process then exits 128+signal, the shell convention for a
 * signal-terminated command.
 */

#pragma once

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "sim/run_result.h"
#include "sim/sim_engine.h"
#include "util/logging.h"
#include "util/parse.h"

namespace atmsim::bench {

/** Parse all of text as a T, or util::fatal naming the flag. */
template <typename T>
T
parseFlagNumber(const std::string &flag, const std::string &text)
{
    const std::optional<T> value = util::parseNumber<T>(text);
    if (!value) {
        util::fatal(flag, " wants ",
                    std::is_integral_v<T> ? "an integer" : "a number",
                    ", got '", text, "'");
    }
    return *value;
}

/** One row of a flag table: a name, where its value goes, and help. */
struct Flag
{
    /** Switch: the flag alone sets *dest. */
    Flag(std::string flag, bool *dest, std::string text)
        : name(std::move(flag)), help(std::move(text)),
          apply([dest](const std::string &) { *dest = true; })
    {
    }

    Flag(std::string flag, std::string *dest, std::string text)
        : name(std::move(flag)), placeholder("<value>"),
          help(std::move(text)),
          apply([dest](const std::string &value) { *dest = value; })
    {
    }

    /** Integer or real value; the whole text must parse and fit. */
    template <typename T>
    Flag(std::string flag, T *dest, std::string text)
        : name(std::move(flag)),
          placeholder(std::is_integral_v<T> ? "<n>" : "<x>"),
          help(std::move(text)),
          apply([dest, flag = name](const std::string &value) {
              *dest = parseFlagNumber<T>(flag, value);
          })
    {
        static_assert(std::is_arithmetic_v<T>,
                      "a flag stores a bool, std::string or number");
    }

    /** Value handed to parse, which stores it or calls util::fatal;
     *  an empty value_name makes the flag a switch. */
    Flag(std::string flag, std::string value_name,
         std::function<void(const std::string &)> parse, std::string text,
         bool value_optional = false)
        : name(std::move(flag)), placeholder(std::move(value_name)),
          help(std::move(text)), apply(std::move(parse)),
          optional(value_optional)
    {
    }

    std::string name;        ///< "--csv"
    std::string placeholder; ///< "<n>" in the usage; empty: a switch
    std::string help;
    std::function<void(const std::string &)> apply;
    bool optional = false; ///< the value may be left out ("" then)
};

/** Observability wrapper for one harness invocation. */
class BenchSession
{
  public:
    /**
     * @param tool Harness name, e.g. "fig11_stress_test"; names the
     *        default output files and the manifest's tool field.
     * @param argc,argv The harness's raw command line.
     * @param flags The harness's own flags, parsed together with the
     *        shared observability flags.
     */
    BenchSession(std::string tool, int argc, char **argv,
                 const std::vector<Flag> &flags = {})
        : tool_(std::move(tool)), startWallNs_(obs::monotonicWallNs())
    {
        previousTerminate_ = std::set_terminate(&BenchSession::onTerminate);
        manifestPath_ = "BENCH_" + tool_ + ".json";
        tracePath_ = "BENCH_" + tool_ + ".trace.json";
        flightPath_ = "BENCH_" + tool_ + ".flight.json";
        parseArgs(argc, argv, flags);
        manifest_.jobsRequested = jobs_; // 0 = flag absent.
        if (jobs_ == 0)
            jobs_ = exec::hardwareConcurrency();
        exec::setDefaultJobs(jobs_); // fatal on jobs < 1
        manifest_.jobs = jobs_;
        util::setLogContext(tool_);
        if (traceEnabled_)
            trace_.emplace();
        if (flightEnabled_)
            flight_.emplace(kFlightCores, flightCapacity_);
        installSignalHandlers();
    }

    ~BenchSession()
    {
        removeSignalHandlers();
        std::set_terminate(previousTerminate_);
        try {
            writeOutputs();
        } catch (const std::exception &e) {
            std::cerr << tool_ << ": manifest write failed: "
                      << e.what() << "\n";
        }
        util::setLogContext("");
    }

    BenchSession(const BenchSession &) = delete;
    BenchSession &operator=(const BenchSession &) = delete;

    // --- Observability backends ----------------------------------------

    obs::MetricsRegistry &metrics() { return metrics_; }

    /** Null unless --trace was given. */
    obs::TraceCollector *trace()
    {
        return traceEnabled_ ? &*trace_ : nullptr;
    }

    /** Null unless --flight-recorder / --flight-dump was given. */
    obs::FlightRecorder *flight()
    {
        return flightEnabled_ ? &*flight_ : nullptr;
    }

    /** Bundle to hand to engines, characterizers, and monitors. */
    obs::Observability
    observability()
    {
        return {&metrics_, trace(), flight()};
    }

    /** Attach this session's sinks to an engine. */
    void observe(sim::SimEngine &engine)
    {
        engine.setObservability(observability());
    }

    // --- Provenance ----------------------------------------------------

    void setChip(const std::string &name) { manifest_.chip = name; }

    void setSeed(std::uint64_t seed) { manifest_.seed = seed; }

    void
    setFaultCampaign(const std::string &text)
    {
        manifest_.faultCampaign = text;
    }

    /** Record one configuration key/value pair. */
    void
    setConfig(const std::string &key, const std::string &value)
    {
        for (auto &kv : manifest_.config) {
            if (kv.first == key) {
                kv.second = value;
                return;
            }
        }
        manifest_.config.emplace_back(key, value);
    }

    /** Record the engine configuration a harness runs with. */
    void
    setConfig(const sim::SimConfig &config)
    {
        setConfig("sim.dt_ns", fmt(config.dtNs));
        setConfig("sim.slow_cadence", fmt(config.slowCadence));
        setConfig("sim.stats_cadence", fmt(config.statsCadence));
        setConfig("sim.run_noise_ps", fmt(config.runNoisePs));
        setConfig("sim.stop_on_violation",
                  config.stopOnViolation ? "true" : "false");
        setConfig("sim.engine_mode", sim::engineModeName(config.mode));
        manifest_.engineMode = sim::engineModeName(config.mode);
        setSeed(config.seed);
    }

    /** Append/overwrite one harness-level counter. */
    void
    setCounter(const std::string &name, double value)
    {
        manifest_.setCounter(name, value);
    }

    /** Record a fleet campaign's coverage in the manifest. */
    void
    setFleet(const obs::FleetManifest &fleet)
    {
        manifest_.fleet = fleet;
    }

    /**
     * Hand over the span batches a fleet campaign streamed from its
     * workers. When --trace is on, the trace written at exit becomes
     * the merged campaign trace: supervisor events plus one pid/tid
     * lane per worker process.
     */
    void
    setWorkerSpans(std::vector<obs::ProcessSpans> spans)
    {
        workerSpans_ = std::move(spans);
    }

    /**
     * Mark the manifest as cut short. The signal path sets this
     * automatically; harnesses with their own early-exit logic can
     * set it explicitly before destruction.
     */
    void markInterrupted() { manifest_.interrupted = true; }

    /**
     * Fold one engine run into the manifest: run/step/wall totals,
     * the per-phase breakdown, and the run's safety counters.
     */
    void
    noteEngineRun(const sim::RunResult &result)
    {
        manifest_.engineRuns += 1;
        manifest_.engineSteps += result.steps;
        manifest_.engineWallSeconds += result.wallSeconds;
        manifest_.engineSimNs += result.durationNs;
        manifest_.engineFastForwardedSteps += result.fastForwardedSteps;
        for (const auto &stat : result.phaseStats)
            mergePhase(stat);
        for (const auto &[name, value] : result.safety.named())
            addCounter(name, value);
    }

    /** Resolved --jobs value (also installed as the process default). */
    int jobs() const { return jobs_; }

    /** Engine step-loop implementation from --engine-mode (default
     *  Soa). Harnesses copy this into their SimConfig. */
    sim::EngineMode engineMode() const { return engineMode_; }

    /** Apply the session's --engine-mode selection to a config. */
    void applyEngineMode(sim::SimConfig &config) const
    {
        config.mode = engineMode_;
    }

    bool manifestEnabled() const { return manifestEnabled_; }
    const std::string &manifestPath() const { return manifestPath_; }
    const std::string &tracePath() const { return tracePath_; }

  private:
    template <typename T>
    static std::string
    fmt(T value)
    {
        std::ostringstream os;
        os << value;
        return os.str();
    }

    /** The shared flags, writing into this session. */
    std::vector<Flag>
    sessionFlags()
    {
        return {
            {"--manifest", &manifestPath_,
             "manifest destination (default BENCH_<tool>.json)"},
            {"--no-manifest", "",
             [this](const std::string &) { manifestEnabled_ = false; },
             "skip the manifest"},
            {"--trace", "<path>",
             [this](const std::string &path) {
                 traceEnabled_ = true;
                 if (!path.empty())
                     tracePath_ = path;
             },
             "also write a Chrome/Perfetto trace "
             "(default BENCH_<tool>.trace.json)",
             true},
            {"--flight-recorder", "<n>",
             [this](const std::string &text) {
                 flightEnabled_ = true;
                 if (!text.empty())
                     flightCapacity_ = atLeastOne("--flight-recorder", text);
             },
             "attach a per-core flight recorder of n events (default "
             "256), dumped to BENCH_<tool>.flight.json on a violation "
             "or interrupt",
             true},
            {"--flight-dump", "",
             [this](const std::string &) {
                 flightEnabled_ = true;
                 flightDumpForced_ = true;
             },
             "always dump the flight ring at exit"},
            {"--jobs", "<n>",
             [this](const std::string &text) {
                 jobs_ = atLeastOne("--jobs", text);
             },
             "worker threads (default: hardware concurrency; outputs "
             "are identical at every n)"},
            {"--engine-mode", "<m>",
             [this](const std::string &text) {
                 if (!sim::engineModeFromName(text, engineMode_))
                     util::fatal("--engine-mode wants soa or sampled, "
                                 "got '", text, "'");
             },
             "engine step loop: soa (default, exact) or sampled "
             "(approximate fast-forward)"},
        };
    }

    static int
    atLeastOne(const std::string &flag, const std::string &text)
    {
        const int value = parseFlagNumber<int>(flag, text);
        if (value < 1)
            util::fatal(flag, " wants an integer >= 1, got '", text, "'");
        return value;
    }

    static std::string
    usage(const char *program, const std::vector<Flag> &harness,
          const std::vector<Flag> &shared)
    {
        std::ostringstream os;
        os << "usage: " << (program ? program : "harness") << " [flags]\n";
        for (const std::vector<Flag> *table : {&harness, &shared}) {
            for (const Flag &flag : *table) {
                std::string lhs = flag.name;
                if (flag.optional)
                    lhs += " [" + flag.placeholder + "]";
                else if (!flag.placeholder.empty())
                    lhs += " " + flag.placeholder;
                os << "  " << std::left << std::setw(24) << lhs << " "
                   << flag.help << "\n";
            }
        }
        return os.str();
    }

    static const Flag *
    findFlag(const std::vector<Flag> &table, const std::string &name)
    {
        const auto it =
            std::find_if(table.begin(), table.end(),
                         [&](const Flag &f) { return f.name == name; });
        return it == table.end() ? nullptr : &*it;
    }

    /**
     * Match every argument against the shared and the harness flags;
     * on bad input, print the usage after util::fatal's message. The
     * harness's arguments, as given, become the manifest's `args`.
     */
    void
    parseArgs(int argc, char **argv, const std::vector<Flag> &harness)
    {
        const std::vector<Flag> shared = sessionFlags();
        try {
            for (int i = 1; i < argc; ++i) {
                const std::string arg = argv[i];
                const std::size_t eq = arg.find('=');
                const std::string name = arg.substr(0, eq);
                const Flag *flag = findFlag(harness, name);
                const bool own = flag != nullptr;
                if (!own)
                    flag = findFlag(shared, name);
                if (!flag)
                    util::fatal("unknown argument '", arg, "'");
                if (own)
                    manifest_.args.push_back(arg);
                std::string value;
                if (eq != std::string::npos) {
                    if (flag->placeholder.empty())
                        util::fatal(name, " takes no value");
                    value = arg.substr(eq + 1);
                } else if (!flag->placeholder.empty()) {
                    const bool has_next = i + 1 < argc;
                    if (!has_next && !flag->optional)
                        util::fatal(name, " wants a value");
                    if (has_next
                        && (!flag->optional || argv[i + 1][0] != '-')) {
                        value = argv[++i];
                        if (own)
                            manifest_.args.push_back(value);
                    }
                }
                flag->apply(value);
            }
        } catch (const util::FatalError &) {
            std::cerr << usage(argc > 0 ? argv[0] : nullptr, harness,
                               shared);
            throw;
        }
    }

    void
    mergePhase(const obs::PhaseStat &stat)
    {
        for (auto &existing : manifest_.phases) {
            if (std::string(existing.name) == stat.name) {
                existing.wallNs += stat.wallNs;
                existing.calls += stat.calls;
                return;
            }
        }
        manifest_.phases.push_back(stat);
    }

    void
    addCounter(const std::string &name, double value)
    {
        for (auto &kv : manifest_.counters) {
            if (kv.first == name) {
                kv.second += value;
                return;
            }
        }
        manifest_.counters.emplace_back(name, value);
    }

    /**
     * The one place bad input becomes an exit code: a util::FatalError
     * that escapes the harness -- a malformed flag, or a bad fault
     * spec found later -- ends the process with exit code 2.
     * util::fatal has already logged the message (and parseArgs the
     * usage). Like the abort it replaces, this writes no manifest;
     * any other exception still reaches the previous handler.
     */
    [[noreturn]] static void
    onTerminate()
    {
        try {
            if (const std::exception_ptr e = std::current_exception())
                std::rethrow_exception(e);
        } catch (const util::FatalError &) {
            std::cout.flush();
            std::_Exit(2);
        } catch (...) {
        }
        if (previousTerminate_)
            previousTerminate_();
        std::abort();
    }

    /**
     * The session whose outputs the signal handlers flush. One
     * harness owns one session at a time; nested sessions keep the
     * outermost one armed.
     */
    static BenchSession *&
    activeSession()
    {
        static BenchSession *session = nullptr;
        return session;
    }

    /**
     * SIGINT/SIGTERM: flush the manifest and trace with the
     * `interrupted` flag set, then exit 128+signal. Writing a file
     * is not async-signal-safe in the letter of the law; for an
     * interactive ^C on a harness the trade -- an honest partial
     * manifest versus none at all -- is worth it, and the exit path
     * never returns into the interrupted code. The flush takes the
     * best-effort route: registry and trace locks are only
     * *try*-acquired, so a signal landing while the interrupted
     * thread holds one skips that section instead of deadlocking.
     */
    // atmlint: contract(signal_handler)
    static void
    onSignal(int sig)
    {
        BenchSession *session = activeSession();
        if (session != nullptr) {
            activeSession() = nullptr;
            session->manifest_.interrupted = true;
            try {
                session->writeOutputsBestEffort();
            } catch (...) {
                // Dying anyway; nothing better to do with it.
            }
        }
        std::_Exit(128 + sig);
    }

    void
    installSignalHandlers()
    {
        if (activeSession() != nullptr)
            return;
        activeSession() = this;
        std::signal(SIGINT, &BenchSession::onSignal);
        std::signal(SIGTERM, &BenchSession::onSignal);
    }

    void
    removeSignalHandlers()
    {
        if (activeSession() != this)
            return;
        activeSession() = nullptr;
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
    }

    /** Normal exit path: blocking snapshots, everything written. */
    void
    writeOutputs()
    {
        if (traceEnabled_) {
            std::ofstream os(tracePath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << tracePath_
                          << "\n";
            } else {
                if (workerSpans_.empty())
                    trace_->writeChromeTrace(os);
                else
                    trace_->writeChromeTrace(os, workerSpans_);
                std::cout << "[" << tool_ << "] trace written to "
                          << tracePath_ << "\n";
            }
        }
        if (flightEnabled_
            && (flightDumpForced_ || flight_->dumpRequested()
                || manifest_.interrupted)) {
            std::ofstream os(flightPath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << flightPath_
                          << "\n";
            } else {
                flight_->writeJson(os);
                std::cout << "[" << tool_ << "] flight ring dumped"
                          << " to " << flightPath_ << "\n";
            }
        }
        if (!manifestEnabled_)
            return;
        // Loss accounting belongs in the metric snapshot the manifest
        // (and any fleet fold upstream) reports -- only on this
        // blocking path; the signal path must not touch the registry
        // lock.
        if (traceEnabled_) {
            metrics_.counter("obs.trace.dropped_events")
                .inc(static_cast<long>(trace_->droppedEvents()));
        }
        if (flightEnabled_) {
            metrics_.counter("obs.flight.wrapped_events")
                .inc(flight_->wrappedEvents());
            metrics_.counter("obs.flight.dropped_events")
                .inc(flight_->droppedEvents());
        }
        manifest_.metrics = metrics_.snapshot();
        writeManifestFile();
    }

    /**
     * Signal path: identical output when the locks are free, but
     * every lock is try-acquired exactly once. A section whose lock
     * the interrupted thread holds is skipped (empty metrics, no
     * trace) rather than deadlocking inside the handler. Kept as a
     * separate function -- not a flag on writeOutputs() -- so the
     * handler's call closure provably never contains a blocking
     * acquire.
     */
    void
    writeOutputsBestEffort()
    {
        if (traceEnabled_) {
            std::ofstream os(tracePath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << tracePath_
                          << "\n";
            } else if (workerSpans_.empty()
                           ? !trace_->tryWriteChromeTrace(os)
                           : !trace_->tryWriteChromeTrace(
                                 os, workerSpans_)) {
                std::cerr << tool_ << ": trace skipped (collector "
                          << "locked at interrupt)\n";
            } else {
                std::cout << "[" << tool_ << "] trace written to "
                          << tracePath_ << "\n";
            }
        }
        // The flight ring is the one backend built for this path:
        // writeJson() takes no lock and reads only atomics, so the
        // black box survives exactly the crashes it exists for.
        if (flightEnabled_) {
            std::ofstream os(flightPath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << flightPath_
                          << "\n";
            } else {
                flight_->writeJson(os);
                std::cout << "[" << tool_ << "] flight ring dumped"
                          << " to " << flightPath_ << "\n";
            }
        }
        if (!manifestEnabled_)
            return;
        if (!metrics_.trySnapshot(manifest_.metrics))
            manifest_.metrics = {};
        writeManifestFile();
    }

    /** Shared tail of both output paths: stamp and write the
     *  manifest JSON. Takes no locks of its own. */
    void
    writeManifestFile()
    {
        manifest_.tool = tool_;
        manifest_.wallSeconds =
            (obs::monotonicWallNs() - startWallNs_) * 1e-9;
        std::ofstream os(manifestPath_);
        if (!os) {
            std::cerr << tool_ << ": cannot open " << manifestPath_
                      << "\n";
            return;
        }
        manifest_.writeJson(os);
        std::cout << "[" << tool_ << "] manifest written to "
                  << manifestPath_ << "\n";
    }

    /**
     * Flight ring width. Sized for the largest chip the harnesses
     * simulate (well past the 12-core POWER9 of the paper); events
     * for cores beyond it are counted as dropped, never written out
     * of bounds.
     */
    static constexpr int kFlightCores = 64;

    /** The handler onTerminate hands any other exception to. */
    static inline std::terminate_handler previousTerminate_ = nullptr;

    std::string tool_;
    double startWallNs_;
    bool manifestEnabled_ = true;
    bool traceEnabled_ = false;
    bool flightEnabled_ = false;
    bool flightDumpForced_ = false;
    int flightCapacity_ = 256;
    int jobs_ = 0; ///< 0 until resolved in the constructor.
    sim::EngineMode engineMode_ = sim::EngineMode::Soa;
    std::string manifestPath_;
    std::string tracePath_;
    std::string flightPath_;
    obs::MetricsRegistry metrics_;
    std::optional<obs::TraceCollector> trace_;
    std::optional<obs::FlightRecorder> flight_;
    std::vector<obs::ProcessSpans> workerSpans_;
    obs::RunManifest manifest_;
};

} // namespace atmsim::bench
