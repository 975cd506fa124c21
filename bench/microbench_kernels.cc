/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot kernels:
 * PDN integration step, CPM evaluation, DPLL update, full engine
 * step, analytic steady-state solve, and a complete per-core
 * characterization. These bound the cost of engine-mode studies.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/chip.h"
#include "circuit/constants.h"
#include "core/characterizer.h"
#include "core/manager.h"
#include "core/safety_monitor.h"
#include "exec/thread_pool.h"
#include "sim/sim_engine.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

using namespace atmsim;

namespace {

chip::Chip &
referenceChip()
{
    static chip::Chip chip(variation::makeReferenceChip(0));
    return chip;
}

void
BM_PdnStep(benchmark::State &state)
{
    pdn::PdnNetwork net(pdn::PdnParams{},
                        pdn::Vrm(util::Volts{1.273}, 0.3e-3), 8);
    std::vector<util::Amps> loads(8, util::Amps{6.0});
    net.settle(loads, util::Amps{10.0});
    for (auto _ : state) {
        net.step(util::Seconds{0.2e-9}, loads, util::Amps{10.0});
        benchmark::DoNotOptimize(net.gridV());
    }
}
BENCHMARK(BM_PdnStep);

void
BM_CpmBankWorstCount(benchmark::State &state)
{
    // The engine's per-core CPM scan: one delay-factor evaluation,
    // then CpmBank::worstCount over the bank's sites in place.
    chip::Chip &chip = referenceChip();
    const auto &bank = chip.core(0).cpmBank();
    for (auto _ : state) {
        const double f = chip.delayModel().factor(util::Volts{1.24},
                                                  util::Celsius{48.0});
        benchmark::DoNotOptimize(bank.worstCount(217.4, f));
    }
}
BENCHMARK(BM_CpmBankWorstCount);

void
BM_DpllObserve(benchmark::State &state)
{
    dpll::DpllBankSoa loop;
    loop.resize(1, dpll::DpllParams{});
    loop.periodPs[0] = 217.4;
    double now = 0.0;
    for (auto _ : state) {
        loop.observe(0, now, 4);
        now += 0.2;
        benchmark::DoNotOptimize(loop.periodPs[0]);
    }
}
BENCHMARK(BM_DpllObserve);

void
BM_EngineStep(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    chip.clearAssignments();
    const auto &gcc = workload::findWorkload("gcc");
    chip.assignWorkload(0, &gcc);
    // Amortize engine setup over a fixed-length run per iteration.
    for (auto _ : state) {
        sim::SimEngine engine(&chip);
        benchmark::DoNotOptimize(engine.run(0.1).durationNs);
    }
    state.SetItemsProcessed(state.iterations() * 500); // steps per run
    chip.clearAssignments();
}
BENCHMARK(BM_EngineStep)->Unit(benchmark::kMicrosecond);

void
BM_EngineStepSampled(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    chip.clearAssignments();
    // Idle chip, long window: the steady-state detector arms and the
    // run fast-forwards most steps. Items = steps *advanced*, so the
    // per-step rate here shows the sampled-mode throughput win.
    sim::SimConfig config;
    config.mode = sim::EngineMode::Sampled;
    long steps = 0;
    for (auto _ : state) {
        sim::SimEngine engine(&chip, config);
        const sim::RunResult result = engine.run(2.0);
        steps += result.steps;
        benchmark::DoNotOptimize(result.durationNs);
    }
    state.SetItemsProcessed(steps);
    chip.clearAssignments();
}
BENCHMARK(BM_EngineStepSampled)->Unit(benchmark::kMicrosecond);

void
BM_SteadyStateDetector(benchmark::State &state)
{
    // The detector's per-step cost (one branch + one increment); it
    // rides the sampled-mode hot loop, so it must stay trivial.
    sim::SteadyStateDetector detect{sim::SteadyStateConfig{}};
    std::uint64_t tick = 0;
    for (auto _ : state) {
        detect.note((++tick & 1023u) != 0u);
        benchmark::DoNotOptimize(detect.armed());
    }
}
BENCHMARK(BM_SteadyStateDetector);

void
BM_EngineStepFlightRecorder(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    chip.clearAssignments();
    const auto &gcc = workload::findWorkload("gcc");
    chip.assignWorkload(0, &gcc);
    // Same run as BM_EngineStep with a flight recorder attached (and
    // nothing else, so the wall-clock profiler stays off): the pair
    // bounds the black-box overhead the docs quote.
    obs::FlightRecorder flight(chip.coreCount());
    for (auto _ : state) {
        sim::SimEngine engine(&chip);
        engine.setObservability({nullptr, nullptr, &flight});
        benchmark::DoNotOptimize(engine.run(0.1).durationNs);
    }
    state.SetItemsProcessed(state.iterations() * 500); // steps per run
    chip.clearAssignments();
}
BENCHMARK(BM_EngineStepFlightRecorder)->Unit(benchmark::kMicrosecond);

void
BM_EngineStepMetrics(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    chip.clearAssignments();
    const auto &gcc = workload::findWorkload("gcc");
    chip.assignWorkload(0, &gcc);
    // Metrics-registry-attached run: pins the cost of the counter
    // paths the hot-path contract polices (safety-monitor and
    // governor handles are pre-resolved in setObservability, so the
    // step loop sees plain increments, never a name lookup).
    obs::MetricsRegistry metrics;
    for (auto _ : state) {
        sim::SimEngine engine(&chip);
        engine.setObservability({&metrics, nullptr, nullptr});
        benchmark::DoNotOptimize(engine.run(0.1).durationNs);
    }
    state.SetItemsProcessed(state.iterations() * 500); // steps per run
    chip.clearAssignments();
}
BENCHMARK(BM_EngineStepMetrics)->Unit(benchmark::kMicrosecond);

void
BM_SafetyMonitorOnSample(benchmark::State &state)
{
    // One stats-cadence monitor callback over the reference chip with
    // every core in ATM at its deployed (thread-worst) reduction: the
    // phantom-margin guard plus the stuck-sensor probe per core.
    chip::Chip chip(variation::makeReferenceChip(0));
    std::vector<int> targets;
    for (int c = 0; c < chip.coreCount(); ++c) {
        targets.push_back(variation::referenceTargets(0, c).worst);
        chip.core(c).setCpmReduction(util::CpmSteps{targets.back()});
        chip.resetClock(c, circuit::kVddNominal,
                        chip.thermal().coreTempC(c));
    }
    core::SafetyMonitor monitor(&chip, targets);
    const std::vector<sim::CoreSample> frame;
    double now_ns = 0.0;
    for (auto _ : state) {
        now_ns += 100.0;
        monitor.onSample(util::Nanoseconds{now_ns}, frame);
    }
    benchmark::DoNotOptimize(monitor.counters().anomalies);
    if (monitor.counters().anomalies != 0)
        state.SkipWithError("a healthy chip raised an anomaly");
}
BENCHMARK(BM_SafetyMonitorOnSample);

void
BM_SteadyStateSolve(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    chip.clearAssignments();
    const auto &lu = workload::findWorkload("lu_cb");
    for (int c = 0; c < chip.coreCount(); ++c)
        chip.assignWorkload(c, &lu);
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.solveSteadyState().chipPowerW);
    }
    chip.clearAssignments();
}
BENCHMARK(BM_SteadyStateSolve);

void
BM_CharacterizeCoreAnalytic(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    core::Characterizer characterizer(&chip);
    for (auto _ : state) {
        benchmark::DoNotOptimize(characterizer.characterizeCore(0).worst);
    }
}
BENCHMARK(BM_CharacterizeCoreAnalytic)->Unit(benchmark::kMicrosecond);

void
BM_CharacterizeChipAnalytic(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    core::Characterizer characterizer(&chip);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            characterizer.characterizeChip().cores.size());
    }
}
BENCHMARK(BM_CharacterizeChipAnalytic)->Unit(benchmark::kMicrosecond);

void
BM_ManagerScenarioEvaluate(benchmark::State &state)
{
    chip::Chip &chip = referenceChip();
    core::Characterizer characterizer(&chip);
    static core::AtmManager manager(&chip,
                                    characterizer.characterizeChip());
    core::ScheduleRequest req;
    req.critical = &workload::findWorkload("squeezenet");
    req.background = &workload::findWorkload("swaptions");
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            manager.evaluate(core::Scenario::ManagedBalanced, req)
                .criticalPerf);
    }
    chip.clearAssignments();
}
BENCHMARK(BM_ManagerScenarioEvaluate)->Unit(benchmark::kMicrosecond);

void
BM_PlainLoopBaseline(benchmark::State &state)
{
    // Reference point for BM_ParallelForDispatch: the same body in a
    // bare loop.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> out(n, 0.0);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<double>(i) * 1.5;
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlainLoopBaseline)->Arg(8)->Arg(64)->Arg(512);

void
BM_ParallelForDispatch(benchmark::State &state)
{
    // Dispatch overhead of exec::parallelFor over a trivial body:
    // batch publish, shard scan, and join, with the worker count of
    // --jobs (pool default). Compare against BM_PlainLoopBaseline to
    // see the fixed cost a sweep must amortize.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> out(n, 0.0);
    for (auto _ : state) {
        exec::parallelFor(n, [&](std::size_t i) {
            out[i] = static_cast<double>(i) * 1.5;
        });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelForDispatch)->Arg(8)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();
