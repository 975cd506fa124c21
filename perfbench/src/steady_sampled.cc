/**
 * @file
 * steady_sampled: long sampled-mode replays.
 *
 * Unit: one 60 us --engine-mode sampled replay of a pool chip
 * deployed at its stress-test limits, with a seeded steady mix of
 * idle and uBench-class cores and one fault edge, the safety monitor
 * attached and observability off. The steady-state detector,
 * fast-forward and stats folds do the work; the metrics hot path is
 * bypassed.
 *
 * Check: the first kCheckReplays replays are repeated with the SoA
 * engine; rel_err_max is the largest relative error of the sampled
 * outputs (per-core mean MHz, violation episodes, degraded time), and
 * the mean MHz must stay inside the documented 1% envelope of sampled
 * mode.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "core/safety_monitor.h"
#include "core/stress_test.h"
#include "fault/fault_campaign.h"
#include "inputs.h"
#include "pool.h"
#include "sim/sim_engine.h"
#include "timed_observer.h"
#include "util/logging.h"
#include "workload.h"
#include "workload/catalog.h"

namespace atmsim::perfbench {

namespace {

constexpr int kChipPool = 32;
constexpr double kReplayUs = 60.0;
constexpr long kCheckReplays = 6;
/** Sampled mode's committed envelope on mean frequency. */
constexpr double kFreqEnvelope = 0.01;

struct DeployedChip
{
    std::unique_ptr<chip::Chip> chip; ///< Null when generation failed.
    std::vector<int> reductions;      ///< Stress-test limit per core.
};

/** Relative error with a floor on the reference's magnitude, so a
 *  reference of 0 episodes or 0 degraded time stays finite. */
double
relErr(double value, double reference, double floor)
{
    return std::fabs(value - reference)
         / std::max(std::fabs(reference), floor);
}

class SteadySampled : public Workload
{
  public:
    using Workload::Workload;

    void
    setUp() override
    {
        pool_.resize(kChipPool);
        for (int i = 0; i < kChipPool; ++i) {
            auto silicon = generatePoolChip("SS", seed_, i, tally_);
            if (!silicon)
                continue;
            DeployedChip &d = pool_[i];
            d.chip = std::make_unique<chip::Chip>(std::move(*silicon));
            core::StressTester tester(d.chip.get());
            ScopedSpan span("stress_test.deploy", -1);
            d.reductions = tester.deriveDeployedConfig(0).reductionPerCore;
            coreCount_ = d.chip->coreCount();
        }
    }

    std::vector<double>
    runBatch(long first, long &consumed) override
    {
        consumed = 1;
        ++tally_.attempted;
        const SteadyReplay replay =
            steadyReplay(seed_, first, kChipPool, std::max(coreCount_, 1));
        if (!pool_[replay.chip].chip) {
            ++tally_.failed;
            return {};
        }
        const double t0 = nowSeconds();
        try {
            (void)runReplay(replay, sim::EngineMode::Sampled, first, true);
        } catch (const util::FatalError &e) {
            ++tally_.failed;
            std::cerr << "steady_sampled replay " << first << ": "
                      << e.what() << "\n";
            return {};
        }
        return {(nowSeconds() - t0) * 1e3};
    }

    void
    check() override
    {
        double worst = 0.0, worst_freq = 0.0;
        long checked = 0;
        for (long index = 0; index < kCheckReplays; ++index) {
            const SteadyReplay replay =
                steadyReplay(seed_, index, kChipPool, coreCount_);
            if (!pool_[replay.chip].chip)
                continue;
            const sim::RunResult fast =
                runReplay(replay, sim::EngineMode::Sampled, -1, false);
            const sim::RunResult exact =
                runReplay(replay, sim::EngineMode::Soa, -1, false);
            ++checked;
            for (std::size_t c = 0; c < exact.coreStats.size(); ++c) {
                const double f = relErr(fast.meanFreqMhz(static_cast<int>(c)),
                                        exact.meanFreqMhz(static_cast<int>(c)),
                                        1.0);
                worst_freq = std::max(worst_freq, f);
                worst = std::max(
                    {worst, f,
                     relErr(static_cast<double>(fast.coreStats[c].violations),
                            static_cast<double>(exact.coreStats[c].violations),
                            1.0)});
            }
            // Degraded time in microseconds, floored at 1 us.
            worst = std::max(worst,
                             relErr(fast.safety.degradedTimeNs * 1e-3,
                                    exact.safety.degradedTimeNs * 1e-3, 1.0));
        }
        std::cout << "steady_sampled: rel_err_max " << worst
                  << " over " << checked
                  << " replays against the SoA engine (mean-MHz error "
                  << worst_freq << ")\n";
        if (worst_freq > kFreqEnvelope) {
            tally_.failCheck("steady_sampled: sampled mean MHz differs from "
                             "SoA by "
                             + std::to_string(worst_freq * 100.0)
                             + "% (envelope 1%)");
        }
        count("rel_err_max", worst);
    }

  private:
    sim::RunResult
    runReplay(const SteadyReplay &replay, sim::EngineMode mode, long unit,
              bool record)
    {
        const DeployedChip &d = pool_[replay.chip];
        chip::Chip chip(d.chip->silicon(), d.chip->config());
        for (int c = 0; c < chip.coreCount(); ++c) {
            chip.core(c).setMode(chip::CoreMode::AtmOverclock);
            chip.core(c).setCpmReduction(
                util::CpmSteps{d.reductions[static_cast<std::size_t>(c)]});
            switch (replay.assignment[static_cast<std::size_t>(c)]) {
              case SteadyClass::Idle: break;
              case SteadyClass::Coremark:
                chip.assignWorkload(c, &workload::findWorkload("coremark"));
                break;
              case SteadyClass::Daxpy:
                chip.assignWorkload(c, &workload::findWorkload("daxpy"));
                break;
            }
        }
        fault::FaultCampaign campaign;
        campaign.add(replay.spec);
        core::SafetyMonitor monitor(&chip, d.reductions);
        TimedObserver timed(&monitor);
        const bool trace = record && layers_ != nullptr;

        sim::SimConfig config;
        config.stopOnViolation = false;
        config.runNoisePs = 1.1;
        config.seed = replay.simSeed;
        config.mode = mode;
        sim::SimEngine engine(&chip, config);
        engine.setCampaign(&campaign);
        engine.setObserver(trace ? static_cast<sim::EngineObserver *>(&timed)
                                 : &monitor);
        sim::RunResult result;
        {
            ScopedSpan span("sim.run", unit);
            result = engine.run(kReplayUs);
        }
        if (trace)
            countEngineRun(*layers_, result, &timed);
        return result;
    }

    std::vector<DeployedChip> pool_;
    int coreCount_ = 1;
};

} // namespace

std::unique_ptr<Workload>
makeSteadySampled(std::uint64_t seed, int jobs)
{
    return std::make_unique<SteadySampled>(seed, jobs);
}

} // namespace atmsim::perfbench
