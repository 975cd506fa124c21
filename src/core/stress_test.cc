#include "core/stress_test.h"

#include <algorithm>

#include "util/logging.h"
#include "workload/catalog.h"

namespace atmsim::core {

double
DeployedConfig::speedDifferentialMhz() const
{
    if (idleFreqMhz.empty())
        return 0.0;
    const auto [lo, hi] =
        std::minmax_element(idleFreqMhz.begin(), idleFreqMhz.end());
    return *hi - *lo;
}

int
DeployedConfig::fastestCore() const
{
    if (idleFreqMhz.empty())
        util::fatal("empty deployed config");
    return static_cast<int>(std::distance(
        idleFreqMhz.begin(),
        std::max_element(idleFreqMhz.begin(), idleFreqMhz.end())));
}

int
DeployedConfig::slowestCore() const
{
    if (idleFreqMhz.empty())
        util::fatal("empty deployed config");
    return static_cast<int>(std::distance(
        idleFreqMhz.begin(),
        std::min_element(idleFreqMhz.begin(), idleFreqMhz.end())));
}

StressTester::StressTester(chip::Chip *target,
                           const CharacterizerConfig &config)
    : chip_(target), characterizer_(target, config)
{
    if (!target)
        util::panic("StressTester constructed with null chip");
}

int
StressTester::stressLimit(int core)
{
    // The combined stress suite: the voltage virus dominates, the
    // power virus catches thermally-sensitive parts, and the ISA
    // verification suite covers every circuit path (Sec. VII-A).
    const workload::WorkloadTraits &virus = workload::voltageVirus();
    const workload::WorkloadTraits &power_virus =
        workload::findWorkload("power_virus");
    const workload::WorkloadTraits &isa_suite =
        workload::findWorkload("isa_suite");
    // The virus scans first and caps the other marks: a scan stopped
    // at the virus limit v cannot change min(v, k), so the result
    // equals a full scan of every mark.
    const int v = characterizer_.scanFloor(
        core, {&virus}, chip_->core(core).silicon().presetSteps);
    return characterizer_.scanFloor(core, {&power_virus, &isa_suite}, v);
}

bool
StressTester::confirmSafe(int core, int reduction)
{
    const workload::WorkloadTraits &virus = workload::voltageVirus();
    for (int rep = 0; rep < characterizer_.config().reps; ++rep) {
        if (!characterizer_.trialSafe(core, reduction, virus, rep))
            return false;
    }
    return true;
}

DeployedConfig
StressTester::deriveDeployedConfig(int rollback_steps)
{
    if (rollback_steps < 0)
        util::fatal("rollback must be non-negative, got ", rollback_steps);
    DeployedConfig config;
    config.chipName = chip_->name();
    for (int c = 0; c < chip_->coreCount(); ++c) {
        const int limit = stressLimit(c);
        const int deployed = std::max(limit - rollback_steps, 0);
        config.reductionPerCore.push_back(deployed);
        config.idleFreqMhz.push_back(
            chip_->core(c)
                .silicon()
                .atmFrequencyMhz(util::CpmSteps{deployed}, 1.0)
                .value());
    }
    return config;
}

chip::ChipSteadyState
StressTester::stressEnvironment(const std::vector<int> &reductions)
{
    if (static_cast<int>(reductions.size()) != chip_->coreCount())
        util::fatal("stressEnvironment: need one reduction per core");
    const workload::WorkloadTraits &virus = workload::voltageVirus();
    chip_->clearAssignments();
    for (int c = 0; c < chip_->coreCount(); ++c) {
        chip_->core(c).setMode(chip::CoreMode::AtmOverclock);
        chip_->core(c).setCpmReduction(
            util::CpmSteps{reductions[static_cast<std::size_t>(c)]});
        chip_->assignWorkload(c, &virus);
    }
    chip::ChipSteadyState st = chip_->solveSteadyState();
    chip_->clearAssignments();
    for (int c = 0; c < chip_->coreCount(); ++c)
        chip_->core(c).setCpmReduction(util::CpmSteps{0});
    return st;
}

} // namespace atmsim::core
