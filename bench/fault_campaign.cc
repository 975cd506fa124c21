/**
 * @file
 * Fault-injection campaign sweep: every fault kind in the taxonomy, at
 * two intensities, against three deployments -- fine-tuned limits with
 * the safety monitor, fine-tuned limits unsupervised, and the factory
 * default ATM configuration. The sweep quantifies the robustness story
 * behind the paper's Sec. VII-A deployment flow: fine-tuning alone
 * trades margin for exposure when hardware misbehaves; the monitor
 * buys the margin back per-core, without touching healthy cores.
 *
 * --serial-check re-runs the sweep serially and fails unless every
 * cell's serial result, its parallel result and its golden digest
 * agree -- one command exercises both the jobs-invariance contract
 * and the engine's identity with its frozen reference answers.
 */

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/governor.h"
#include "core/safety_monitor.h"
#include "exec/thread_pool.h"
#include "fault/fault_campaign.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/table.h"
#include "workload/catalog.h"

using namespace atmsim;

namespace {

struct SweepPoint
{
    fault::FaultKind kind;
    double magnitude;
};

struct Deployment
{
    const char *name;
    core::GovernorPolicy policy;
    bool monitored;
};

std::string
fmt2(double value)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << value;
    return os.str();
}

/** The campaign for one sweep point: a 5 us strike at core 2. */
fault::FaultCampaign
campaignFor(const SweepPoint &point)
{
    fault::FaultSpec spec;
    spec.kind = point.kind;
    spec.core = point.kind == fault::FaultKind::VrmLoadStep ? -1 : 2;
    spec.site = 0;
    spec.startUs = 1.0;
    spec.durationUs = 5.0;
    spec.magnitude = point.magnitude;
    fault::FaultCampaign campaign;
    campaign.add(spec);
    return campaign;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string csv_path;
    bool serial_check = false;
    bench::BenchSession session(
        "fault_campaign", argc, argv,
        {{"--csv", &csv_path, "also write the sweep grid as CSV"},
         {"--serial-check", &serial_check,
          "re-run every cell serially and compare against the parallel "
          "run and the golden digests"}});
    bench::banner("Fault campaign",
                  "Fault kind x intensity x deployment sweep: "
                  "violation episodes, silent failures, and monitor "
                  "recovery on reference chip 0 (fault at P0C2, "
                  "1-6 us window, 12 us runs).");

    const std::vector<SweepPoint> points = {
        {fault::FaultKind::CpmStuckAt, 8.0},
        {fault::FaultKind::CpmStuckAt, 24.0},
        {fault::FaultKind::CpmSkippedStep, 2.0},
        {fault::FaultKind::CpmSkippedStep, 4.0},
        {fault::FaultKind::SensorDropout, 0.0},
        {fault::FaultKind::VrmLoadStep, 20.0},
        {fault::FaultKind::VrmLoadStep, 60.0},
        {fault::FaultKind::DroopStorm, 1.5},
        {fault::FaultKind::DroopStorm, 3.0},
        {fault::FaultKind::AgingJump, 0.03},
        {fault::FaultKind::AgingJump, 0.08},
        {fault::FaultKind::ThermalExcursion, 15.0},
        {fault::FaultKind::ThermalExcursion, 30.0},
    };
    const std::vector<Deployment> deployments = {
        {"fine-tuned+monitor", core::GovernorPolicy::FineTuned, true},
        {"fine-tuned", core::GovernorPolicy::FineTuned, false},
        {"default-atm", core::GovernorPolicy::DefaultAtm, false},
    };

    // Golden digests (sim::digest) of every cell, in cell order: one
    // row per sweep point, one column per deployment. They were
    // recorded from the object-per-core reference engine before it was
    // removed; --serial-check holds the SoA engine to them. Regenerate
    // them only in a change that justifies the new answers.
    constexpr std::uint64_t kGoldenCellDigests[] = {
        // CpmStuckAt 8.0
        0x7a56ed5b56158e5aULL, 0xe82eed457637b2f2ULL, 0x2405ff0d3c78b421ULL,
        // CpmStuckAt 24.0
        0x7a56ed5b56158e5aULL, 0xe82eed457637b2f2ULL, 0x2405ff0d3c78b421ULL,
        // CpmSkippedStep 2.0
        0x0e0411483f39e365ULL, 0xe82eed457637b2f2ULL, 0x2405ff0d3c78b421ULL,
        // CpmSkippedStep 4.0
        0x0e0411483f39e365ULL, 0xe82eed457637b2f2ULL, 0x2405ff0d3c78b421ULL,
        // SensorDropout 0.0
        0xb2d49b0b4cd40fbfULL, 0x1fafe928e950e47bULL, 0xeaf24a20d4627e4cULL,
        // VrmLoadStep 20.0
        0xf177f3100ffe0967ULL, 0xf177f3100ffe0967ULL, 0x4705b3c07ac53392ULL,
        // VrmLoadStep 60.0
        0xe6caa79d4fac36fbULL, 0xe6caa79d4fac36fbULL, 0xd601cdee2a454d53ULL,
        // DroopStorm 1.5
        0x4b3aed66f96e8353ULL, 0x4b3aed66f96e8353ULL, 0x7baa8f2cbec620f0ULL,
        // DroopStorm 3.0
        0xe21bc83d598861feULL, 0xe21bc83d598861feULL, 0x3c1f6ec45ac7c037ULL,
        // AgingJump 0.03
        0x128307c6dbcd5761ULL, 0x128307c6dbcd5761ULL, 0x41b9e51a569b0e83ULL,
        // AgingJump 0.08
        0x7b1b2080ca1988d3ULL, 0x1e123d23c29fe9adULL, 0x16782698e566bfa2ULL,
        // ThermalExcursion 15.0
        0xe88723ca378c1460ULL, 0xe88723ca378c1460ULL, 0x4ed7bd97423d4cfaULL,
        // ThermalExcursion 30.0
        0x87dd96c5d09065b2ULL, 0x87dd96c5d09065b2ULL, 0x5fe285c5d906f86cULL,
    };

    auto chip = bench::makeReferenceChip(0);
    session.setChip(chip->name());
    const core::LimitTable limits = bench::characterize(*chip, session);
    const auto &x264 = workload::findWorkload("x264");

    std::unique_ptr<util::CsvWriter> csv;
    if (!csv_path.empty()) {
        csv = std::make_unique<util::CsvWriter>(csv_path);
        csv->writeRow({"fault", "magnitude", "deployment", "episodes",
                       "detected", "silent", "anomalies", "quarantines",
                       "fallbacks", "recoveries", "degraded_us",
                       "emergencies"});
    }

    // One task per (fault, deployment) cell. Every cell runs on a
    // private chip clone with a private metric shard, so the grid is
    // identical at every --jobs value (the serial loop also leaked a
    // rounding residue from AgingJump revert into later cells; clones
    // make each cell exact). Rows, CSV lines, manifest totals, and
    // metric shards all fold in cell order below.
    sim::SimConfig config;
    config.stopOnViolation = false;
    config.runNoisePs = 1.1;
    config.seed = 17;
    session.applyEngineMode(config);
    if (serial_check && config.mode != sim::EngineMode::Soa)
        util::fatal("--serial-check compares against the golden SoA "
                    "digests; it needs --engine-mode soa");
    session.setConfig(config);

    const std::size_t n_deploy = deployments.size();
    const std::size_t n_cells = points.size() * n_deploy;
    const auto run_cell = [&](std::size_t i,
                              const sim::SimConfig &cell_config,
                              obs::MetricsRegistry *shard) {
        const SweepPoint &point = points[i / n_deploy];
        const Deployment &deployment = deployments[i % n_deploy];
        const obs::Observability sinks{shard, nullptr};

        chip::Chip cell_chip(chip->silicon(), chip->config());
        core::Governor governor(&cell_chip, limits);
        governor.setObservability(sinks);
        governor.apply(deployment.policy);
        cell_chip.assignWorkload(2, &x264);
        fault::FaultCampaign campaign = campaignFor(point);

        core::SafetyMonitorConfig monitor_config;
        monitor_config.backoffBaseUs = 1.0;
        monitor_config.maxBackoffUs = 4.0;
        monitor_config.stageIntervalUs = 0.2;
        core::SafetyMonitor monitor(
            &cell_chip,
            governor.reductions(deployment.policy),
            monitor_config);
        monitor.setObservability(sinks);

        sim::SimEngine engine(&cell_chip, cell_config);
        engine.setCampaign(&campaign);
        if (deployment.monitored)
            engine.setObserver(&monitor);
        engine.setObservability(sinks);
        return engine.run(12.0);
    };
    std::vector<std::unique_ptr<obs::MetricsRegistry>> shards(n_cells);
    const std::vector<sim::RunResult> results =
        exec::parallelMap<sim::RunResult>(
            n_cells,
            [&](std::size_t i) {
                shards[i] = std::make_unique<obs::MetricsRegistry>();
                return run_cell(i, config, shards[i].get());
            },
            session.jobs());
    for (const auto &shard : shards)
        session.metrics().mergeFrom(*shard);

    util::TextTable table;
    table.setHeader({"fault", "mag", "deployment", "episodes", "silent",
                     "quar", "fall", "recov", "degr us"});
    long unsupervised_silent = 0;
    long supervised_silent = 0;
    for (std::size_t i = 0; i < n_cells; ++i) {
        const SweepPoint &point = points[i / n_deploy];
        const Deployment &deployment = deployments[i % n_deploy];
        const sim::RunResult &result = results[i];
        session.noteEngineRun(result);

        const sim::SafetyCounters &s = result.safety;
        if (deployment.monitored)
            supervised_silent += s.silentFailures;
        else
            unsupervised_silent += s.silentFailures;
        table.addRow({faultKindName(point.kind),
                      fmt2(point.magnitude),
                      deployment.name,
                      std::to_string(result.totalViolations()),
                      std::to_string(s.silentFailures),
                      std::to_string(s.quarantines),
                      std::to_string(s.fallbacks),
                      std::to_string(s.recoveries),
                      fmt2(s.degradedTimeNs * 1e-3)});
        if (csv) {
            csv->writeRow({faultKindName(point.kind),
                           fmt2(point.magnitude),
                           deployment.name,
                           std::to_string(result.totalViolations()),
                           std::to_string(s.detectedViolations),
                           std::to_string(s.silentFailures),
                           std::to_string(s.anomalies),
                           std::to_string(s.quarantines),
                           std::to_string(s.fallbacks),
                           std::to_string(s.recoveries),
                           fmt2(s.degradedTimeNs * 1e-3),
                           std::to_string(s.emergencies)});
        }
    }
    table.print(std::cout);

    std::cout << "\nsilent failures: " << supervised_silent
              << " supervised vs " << unsupervised_silent
              << " unsupervised across the sweep.\n";
    if (supervised_silent == 0)
        std::cout << "the monitor detected every violation episode it "
                     "supervised.\n";

    if (serial_check) {
        // Re-run every cell serially and demand that it, the parallel
        // run and the golden digest agree: catches both a
        // jobs-dependence and any drift from the reference answers.
        if (std::size(kGoldenCellDigests) != n_cells)
            util::panic("golden digest table out of step with the sweep");
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < n_cells; ++i) {
            obs::MetricsRegistry scratch;
            const std::uint64_t serial =
                sim::digest(run_cell(i, config, &scratch));
            const std::uint64_t parallel = sim::digest(results[i]);
            if (serial != parallel || parallel != kGoldenCellDigests[i]) {
                std::cerr << "serial check: cell " << i << " ("
                          << faultKindName(points[i / n_deploy].kind)
                          << ' ' << fmt2(points[i / n_deploy].magnitude)
                          << " x " << deployments[i % n_deploy].name
                          << ") serial " << std::hex << serial
                          << ", parallel " << parallel << ", golden "
                          << kGoldenCellDigests[i] << std::dec << '\n';
                ++mismatches;
            }
        }
        if (mismatches > 0) {
            std::cerr << "serial check FAILED: " << mismatches
                      << " cell(s) differ from the golden digests\n";
            return 1;
        }
        std::cout << "serial check passed: all " << n_cells
                  << " cells match the golden digests serially and in "
                     "parallel\n";
        // Record the verdict in the manifest so a committed
        // BENCH_fault_campaign.json is evidence of the identity, not
        // just a console line.
        session.setCounter("campaign.serial_check_cells",
                           static_cast<double>(n_cells));
        session.setCounter("campaign.serial_check_mismatches", 0.0);
    }
    return supervised_silent == 0 ? 0 : 1;
}
