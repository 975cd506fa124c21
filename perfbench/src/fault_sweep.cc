/**
 * @file
 * fault_sweep: the fault_campaign harness on generated chips.
 *
 * Unit: one 12 us SoA SimEngine::run of a pool chip with one seeded
 * fault (any FaultKind; magnitude, core and start drawn from the
 * seed) under one of three deployments, with a private
 * MetricsRegistry attached as fault_campaign does. Cells run in
 * batches on the library's exec pool at the workload's thread count.
 *
 * Checks: supervised cells have no silent failures, and the first
 * kCheckCells cells give the same RunResult digest when re-run on one
 * thread.
 */

#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "core/governor.h"
#include "core/safety_monitor.h"
#include "exec/thread_pool.h"
#include "fault/fault_campaign.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "pool.h"
#include "sim/sim_engine.h"
#include "timed_observer.h"
#include "util/logging.h"
#include "workload.h"
#include "workload/catalog.h"

namespace atmsim::perfbench {

namespace {

constexpr int kChipPool = 32;
constexpr double kRunUs = 12.0;
/** Cells per exec-pool thread in one batch. */
constexpr int kBatchPerThread = 16;
/** Cells whose digests are re-checked on one thread. */
constexpr long kCheckCells = 24;
/** Cells timed with and without their registry (traced pass). */
constexpr long kMetricsCells = 12;

/**
 * Full-precision digest of a run result: every accumulator and
 * counter as hexfloat, so two digests are equal exactly when the
 * results are bitwise-identical. Host-time fields are left out.
 */
std::string
resultDigest(const sim::RunResult &result)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << result.durationNs << '|' << result.steps << '|'
       << result.fastForwardedSteps << '|' << result.stoppedEarly << '|'
       << result.maxCoreTempC << '|' << result.minGridV << '|'
       << result.chipPowerW.count() << ' ' << result.chipPowerW.mean()
       << ' ' << result.chipPowerW.m2();
    for (const sim::CoreRunStats &cs : result.coreStats) {
        os << '|' << cs.freqMhz.count() << ' ' << cs.freqMhz.mean() << ' '
           << cs.freqMhz.m2() << ' ' << cs.voltageV.mean() << ' '
           << cs.minVoltageV << ' ' << cs.emergencies << ' '
           << cs.violations;
    }
    for (const sim::ViolationEvent &ev : result.violations) {
        os << '|' << ev.timeNs << ' ' << ev.core << ' ' << ev.deficitPs
           << ' ' << static_cast<int>(ev.kind) << ' ' << ev.detected;
    }
    for (const auto &[name, value] : result.safety.named())
        os << '|' << name << '=' << value;
    return os.str();
}

struct PoolChip
{
    std::unique_ptr<chip::Chip> chip; ///< Null when generation failed.
    core::LimitTable limits;
};

class FaultSweep : public Workload
{
  public:
    using Workload::Workload;

    void
    setUp() override
    {
        pool_.resize(kChipPool);
        for (int i = 0; i < kChipPool; ++i) {
            auto silicon = generatePoolChip("FS", seed_, i, tally_);
            if (!silicon)
                continue;
            pool_[i].chip = std::make_unique<chip::Chip>(std::move(*silicon));
            pool_[i].limits = characterizeAnalytic(*pool_[i].chip);
        }
        coreCount_ = 0;
        for (const PoolChip &p : pool_) {
            if (p.chip)
                coreCount_ = p.chip->coreCount();
        }
    }

    std::vector<double>
    runBatch(long first, long &consumed) override
    {
        // Large batches keep the join's idle tail small.
        const std::size_t n = static_cast<std::size_t>(kBatchPerThread * jobs_);
        consumed = static_cast<long>(n);
        struct CellOut
        {
            bool ok = false;
            std::string error; ///< util::FatalError message, if any.
            double ms = 0.0;
            long silentSupervised = 0;
            std::string digest;
        };
        std::vector<std::unique_ptr<obs::MetricsRegistry>> shards(n);
        const std::vector<CellOut> out = exec::parallelMap<CellOut>(
            n,
            [&](std::size_t k) {
                CellOut o;
                const long index = first + static_cast<long>(k);
                const FaultCell cell = faultCell(seed_, index, kChipPool,
                                                 std::max(coreCount_, 1));
                if (!pool_[cell.chip].chip)
                    return o;
                shards[k] = std::make_unique<obs::MetricsRegistry>();
                const double t0 = nowSeconds();
                sim::RunResult result;
                try {
                    result = runCell(cell, index, shards[k].get());
                } catch (const util::FatalError &e) {
                    o.error = e.what();
                    return o;
                }
                o.ms = (nowSeconds() - t0) * 1e3;
                o.ok = true;
                if (cell.deployment == 0)
                    o.silentSupervised = result.safety.silentFailures;
                if (index < kCheckCells)
                    o.digest = resultDigest(result);
                return o;
            },
            jobs_);

        std::vector<double> ms;
        for (std::size_t k = 0; k < n; ++k) {
            const long index = first + static_cast<long>(k);
            ++tally_.attempted;
            if (!out[k].ok) {
                ++tally_.failed;
                if (!out[k].error.empty()) {
                    std::cerr << "fault_sweep cell " << index << ": "
                              << out[k].error << "\n";
                }
                continue;
            }
            {
                ScopedSpan span("obs.merge", index);
                merged_.mergeFrom(*shards[k]);
            }
            if (out[k].silentSupervised > 0) {
                tally_.failCheck(
                    "fault_sweep cell " + std::to_string(index) + ": "
                    + std::to_string(out[k].silentSupervised)
                    + " silent failure(s) under the monitor");
            }
            if (index < kCheckCells)
                digests_[index] = out[k].digest;
            ms.push_back(out[k].ms);
        }
        return ms;
    }

    void
    check() override
    {
        // Thread-count invariance: the same cells on one thread.
        for (const auto &[index, digest] : digests_) {
            const FaultCell cell =
                faultCell(seed_, index, kChipPool, coreCount_);
            obs::MetricsRegistry shard;
            const std::string serial =
                resultDigest(runCell(cell, -1, &shard, false));
            if (serial != digest) {
                tally_.failCheck("fault_sweep cell " + std::to_string(index)
                                 + ": digest differs between "
                                 + std::to_string(jobs_)
                                 + " threads and 1 thread");
            }
        }
    }

    void
    measureLayers() override
    {
        // Registry on vs off on the same cells, alternating order.
        double on_s = 0.0, off_s = 0.0;
        for (long index = 0; index < kMetricsCells; ++index) {
            const FaultCell cell =
                faultCell(seed_, index, kChipPool, coreCount_);
            if (!pool_[cell.chip].chip)
                continue;
            for (int pass = 0; pass < 2; ++pass) {
                const bool with_metrics = (pass == 0) == (index % 2 == 0);
                obs::MetricsRegistry shard;
                const double t0 = nowSeconds();
                (void)runCell(cell, -1, with_metrics ? &shard : nullptr,
                              false);
                (with_metrics ? on_s : off_s) += nowSeconds() - t0;
            }
        }
        if (off_s > 0.0)
            count("obs.metrics_on_ratio", on_s / off_s);
    }

  private:
    /** One cell on a private clone of its pool chip (as in
     *  fault_campaign). With `record` set during the traced pass, the
     *  monitor is timed through a forwarding observer and the run's
     *  statistics go to the per-layer sums. */
    sim::RunResult
    runCell(const FaultCell &cell, long unit, obs::MetricsRegistry *shard,
            bool record = true)
    {
        const PoolChip &p = pool_[cell.chip];
        const obs::Observability sinks{shard, nullptr};
        const core::GovernorPolicy policy =
            cell.deployment == 2 ? core::GovernorPolicy::DefaultAtm
                                 : core::GovernorPolicy::FineTuned;
        const bool monitored = cell.deployment == 0;

        chip::Chip cell_chip(p.chip->silicon(), p.chip->config());
        core::Governor governor(&cell_chip, p.limits);
        governor.setObservability(sinks);
        {
            ScopedSpan span("governor.apply", unit);
            governor.apply(policy);
        }
        const int app_core = cell.spec.core >= 0 ? cell.spec.core : 0;
        cell_chip.assignWorkload(app_core, &workload::findWorkload("x264"));
        fault::FaultCampaign campaign;
        campaign.add(cell.spec);

        core::SafetyMonitorConfig monitor_config;
        monitor_config.backoffBaseUs = 1.0;
        monitor_config.maxBackoffUs = 4.0;
        monitor_config.stageIntervalUs = 0.2;
        core::SafetyMonitor monitor(&cell_chip, governor.reductions(policy),
                                    monitor_config);
        monitor.setObservability(sinks);
        TimedObserver timed(&monitor);
        const bool trace = record && layers_ != nullptr;

        sim::SimConfig config;
        config.stopOnViolation = false;
        config.runNoisePs = 1.1;
        config.seed = cell.simSeed;
        config.mode = sim::EngineMode::Soa;
        sim::SimEngine engine(&cell_chip, config);
        engine.setCampaign(&campaign);
        if (monitored) {
            engine.setObserver(
                trace ? static_cast<sim::EngineObserver *>(&timed) : &monitor);
        }
        engine.setObservability(sinks);
        sim::RunResult result;
        {
            ScopedSpan span("sim.run", unit);
            result = engine.run(kRunUs);
        }
        if (trace)
            countEngineRun(*layers_, result, monitored ? &timed : nullptr);
        return result;
    }

    std::vector<PoolChip> pool_;
    int coreCount_ = 0;
    obs::MetricsRegistry merged_;
    std::map<long, std::string> digests_;
};

} // namespace

std::unique_ptr<Workload>
makeFaultSweep(std::uint64_t seed, int jobs)
{
    return std::make_unique<FaultSweep>(seed, jobs);
}

} // namespace atmsim::perfbench
