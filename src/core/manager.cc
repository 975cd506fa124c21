#include "core/manager.h"

#include <algorithm>

#include "chip/pstate.h"
#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::core {

const char *
scenarioName(Scenario scenario)
{
    switch (scenario) {
      case Scenario::StaticMargin: return "static-margin";
      case Scenario::DefaultAtmUnmanaged: return "default-atm";
      case Scenario::FineTunedUnmanaged: return "fine-tuned-unmanaged";
      case Scenario::ManagedMax: return "managed-max";
      case Scenario::ManagedBalanced: return "managed-balanced";
    }
    return "?";
}

AtmManager::AtmManager(chip::Chip *target, LimitTable limits, int rollback)
    : chip_(target), governor_(target, std::move(limits), rollback),
      freqPredictor_([&] {
          // Fit the frequency model on the deployed (fine-tuned)
          // configuration: the intercept b encodes each core's CPM
          // setting (Eq. 1).
          governor_.apply(GovernorPolicy::FineTuned);
          return FreqPredictor::fit(target);
      }())
{
}

const PerfPredictor &
AtmManager::perfPredictor(const workload::WorkloadTraits &traits)
{
    for (const auto &cached : perfCache_) {
        if (&cached.traits() == &traits)
            return cached;
    }
    perfCache_.push_back(PerfPredictor::fit(traits));
    return perfCache_.back();
}

bool
AtmManager::colocationAllowed(const workload::WorkloadTraits &critical,
                              const workload::WorkloadTraits &background)
{
    return !(critical.memIntensive && background.memIntensive);
}

int
AtmManager::pickCriticalCore(const ScheduleRequest &request) const
{
    std::vector<int> candidates;
    if (request.policy == GovernorPolicy::Conservative) {
        candidates = governor_.robustCores();
        if (candidates.empty()) {
            util::warn("no robust cores; falling back to all cores");
        }
    }
    if (candidates.empty()) {
        for (int c = 0; c < chip_->coreCount(); ++c)
            candidates.push_back(c);
    }
    const std::vector<int> red =
        governor_.reductions(request.policy, request.critical);
    int best = candidates.front();
    double best_f = -1.0;
    for (int c : candidates) {
        const double f =
            chip_->core(c)
                .silicon()
                .atmFrequencyMhz(
                    util::CpmSteps{red[static_cast<std::size_t>(c)]}, 1.0)
                .value();
        if (f > best_f) {
            best_f = f;
            best = c;
        }
    }
    return best;
}

void
AtmManager::placeBackground(const ScheduleRequest &request,
                            int critical_core)
{
    if (!request.background)
        return;
    if (!colocationAllowed(*request.critical, *request.background)) {
        util::warn("co-locating two memory-intensive workloads (",
                   request.critical->name, ", ",
                   request.background->name,
                   "); memory interference is outside this model");
    }
    for (int c = 0; c < chip_->coreCount(); ++c) {
        if (c != critical_core)
            chip_->assignWorkload(c, request.background);
    }
}

ScenarioResult
AtmManager::finish(Scenario scenario, const ScheduleRequest &request,
                   int critical_core, double budget_w)
{
    const chip::ChipSteadyState st = chip_->solveSteadyState();
    ScenarioResult result;
    result.scenario = scenario;
    result.criticalCore = critical_core;
    result.criticalFreqMhz =
        st.coreFreqMhz[static_cast<std::size_t>(critical_core)].value();
    result.criticalPerf =
        request.critical->perfRelative(result.criticalFreqMhz);
    result.chipPowerW = st.chipPowerW.value();
    result.powerBudgetW = budget_w;
    result.qosMet = result.criticalPerf >= request.qosTarget - 1e-9;
    result.backgroundCapMhz.assign(
        static_cast<std::size_t>(chip_->coreCount()), 0.0);
    for (int c = 0; c < chip_->coreCount(); ++c) {
        if (c == critical_core)
            continue;
        const chip::AtmCore &core = chip_->core(c);
        if (core.mode() == chip::CoreMode::FixedFrequency) {
            result.backgroundCapMhz[static_cast<std::size_t>(c)] =
                core.fixedFrequencyMhz().value();
        } else if (core.mode() == chip::CoreMode::Gated) {
            result.backgroundCapMhz[static_cast<std::size_t>(c)] = -1.0;
        }
    }
    return result;
}

void
throttleBackground(
    chip::Chip &chip, const std::vector<int> &protected_cores,
    const std::function<bool(const chip::ChipSteadyState &)> &qos_met)
{
    std::vector<int> background;
    for (int c = 0; c < chip.coreCount(); ++c) {
        if (!chip.assignment(c).idle()
            && std::find(protected_cores.begin(), protected_cores.end(),
                         c)
                   == protected_cores.end())
            background.push_back(c);
    }
    // Each background core is throttled at most once per p-state (ATM
    // overclock to the top p-state, then down to the floor) and gated
    // once, so after this many actions nothing is left to shed.
    const std::size_t max_actions =
        background.size() * (chip::pstateTableMhz().size() + 1);
    for (std::size_t action = 0; action < max_actions; ++action) {
        const chip::ChipSteadyState st = chip.solveSteadyState();
        if (qos_met(st))
            return;
        // The hungriest core above the floor is throttled; once all
        // of them sit at the floor, the hungriest one is gated.
        int victim = -1;
        int gate = -1;
        double victim_power = 0.0;
        double gate_power = 0.0;
        for (int c : background) {
            const chip::AtmCore &bg = chip.core(c);
            if (bg.mode() == chip::CoreMode::Gated)
                continue;
            const bool at_floor =
                bg.mode() == chip::CoreMode::FixedFrequency
                && bg.fixedFrequencyMhz()
                       <= chip::lowestPStateMhz() + util::Mhz{1e-9};
            const double p =
                st.corePowerW[static_cast<std::size_t>(c)].value();
            if (!at_floor && p > victim_power) {
                victim_power = p;
                victim = c;
            }
            if (p > gate_power) {
                gate_power = p;
                gate = c;
            }
        }
        if (victim >= 0) {
            chip::AtmCore &bg = chip.core(victim);
            if (bg.mode() == chip::CoreMode::AtmOverclock) {
                bg.setMode(chip::CoreMode::FixedFrequency);
                bg.setFixedFrequencyMhz(chip::highestPStateMhz());
            } else {
                bg.setFixedFrequencyMhz(chip::pstateAtOrBelowMhz(
                    bg.fixedFrequencyMhz() - util::Mhz{1.0}));
            }
        } else if (gate >= 0) {
            chip.core(gate).setMode(chip::CoreMode::Gated);
        } else {
            return; // nothing left to shed
        }
    }
}

ScenarioResult
AtmManager::evaluate(Scenario scenario, const ScheduleRequest &request)
{
    if (!request.critical)
        util::fatal("schedule request has no critical workload");
    chip_->clearAssignments();

    switch (scenario) {
      case Scenario::StaticMargin: {
        governor_.apply(GovernorPolicy::StaticMargin);
        const int core = 0;
        chip_->assignWorkload(core, request.critical);
        placeBackground(request, core);
        return finish(scenario, request, core, 0.0);
      }
      case Scenario::DefaultAtmUnmanaged: {
        governor_.apply(GovernorPolicy::DefaultAtm);
        // Cores are uniform under the factory presets; placement does
        // not matter, but nothing manages background power either.
        const int core = 0;
        chip_->assignWorkload(core, request.critical);
        placeBackground(request, core);
        return finish(scenario, request, core, 0.0);
      }
      case Scenario::FineTunedUnmanaged: {
        governor_.apply(GovernorPolicy::FineTuned);
        // Careless placement: the scheduler is oblivious to the
        // exposed speed variation; model it as landing on the core of
        // median deployed speed.
        const std::vector<int> red =
            governor_.reductions(GovernorPolicy::FineTuned);
        std::vector<std::pair<double, int>> speed;
        for (int c = 0; c < chip_->coreCount(); ++c) {
            speed.emplace_back(
                chip_->core(c)
                    .silicon()
                    .atmFrequencyMhz(
                        util::CpmSteps{red[static_cast<std::size_t>(c)]},
                        1.0)
                    .value(),
                c);
        }
        std::sort(speed.begin(), speed.end());
        const int core = speed[speed.size() / 2].second;
        chip_->assignWorkload(core, request.critical);
        placeBackground(request, core);
        return finish(scenario, request, core, 0.0);
      }
      case Scenario::ManagedMax: {
        governor_.apply(request.policy, request.critical);
        const int core = pickCriticalCore(request);
        chip_->assignWorkload(core, request.critical);
        placeBackground(request, core);
        // Background power is minimized: lowest p-state.
        for (int c = 0; c < chip_->coreCount(); ++c) {
            if (c == core || chip_->assignment(c).idle())
                continue;
            chip_->core(c).setMode(chip::CoreMode::FixedFrequency);
            chip_->core(c).setFixedFrequencyMhz(chip::lowestPStateMhz());
        }
        return finish(scenario, request, core, 0.0);
      }
      case Scenario::ManagedBalanced: {
        governor_.apply(request.policy, request.critical);
        const int core = pickCriticalCore(request);
        chip_->assignWorkload(core, request.critical);
        placeBackground(request, core);

        // Infer the power budget that lets the critical core reach
        // the QoS frequency (Fig. 13's predictor chain).
        const double f_req = perfPredictor(*request.critical)
                                 .requiredFreqMhz(request.qosTarget);
        const double budget_w = freqPredictor_.powerBudgetW(core, f_req);

        // The budget tells the manager how deep the throttling will
        // have to go; the loop verifies the outcome against the QoS
        // goal itself.
        throttleBackground(
            *chip_, {core}, [&](const chip::ChipSteadyState &st) {
                const double f =
                    st.coreFreqMhz[static_cast<std::size_t>(core)].value();
                return request.critical->perfRelative(f)
                       >= request.qosTarget - 1e-9;
            });
        return finish(scenario, request, core, budget_w);
      }
    }
    util::panic("unreachable scenario");
}

} // namespace atmsim::core
