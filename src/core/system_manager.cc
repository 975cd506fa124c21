#include "core/system_manager.h"

#include <algorithm>

#include "core/characterizer.h"
#include "util/logging.h"

namespace atmsim::core {

bool
SystemScheduleResult::allQosMet() const
{
    return std::all_of(placements.begin(), placements.end(),
                       [](const JobPlacement &p) { return p.qosMet; });
}

SystemManager::SystemManager(chip::System *server) : server_(server)
{
    if (!server)
        util::panic("SystemManager constructed with null server");
    for (int p = 0; p < server->chipCount(); ++p) {
        chip::Chip &chip = server->chip(p);
        Characterizer characterizer(&chip);
        tables_.push_back(characterizer.characterizeChip());
        // The manager's construction deploys the fine-tuned
        // (thread-worst) configuration and fits Eq. 1 on it.
        managers_.push_back(
            std::make_unique<AtmManager>(&chip, tables_.back()));
    }
}

AtmManager &
SystemManager::managerFor(int chip)
{
    if (chip < 0 || chip >= chipCount())
        util::fatal("system manager: chip ", chip, " out of range");
    return *managers_[static_cast<std::size_t>(chip)];
}

double
SystemManager::deployedFreqMhz(int chip, int core) const
{
    if (chip < 0 || chip >= chipCount())
        util::fatal("system manager: chip ", chip, " out of range");
    const LimitTable &table = tables_[static_cast<std::size_t>(chip)];
    return server_->chip(chip)
        .core(core)
        .silicon()
        .atmFrequencyMhz(util::CpmSteps{table.byIndex(core).worst}, 1.0)
        .value();
}

SystemScheduleResult
SystemManager::scheduleBatch(const std::vector<CriticalJob> &jobs,
                             const workload::WorkloadTraits *background)
{
    const int total_cores = server_->totalCores();
    if (static_cast<int>(jobs.size()) > total_cores) {
        util::fatal("batch of ", jobs.size(), " jobs exceeds ",
                    total_cores, " cores");
    }
    for (const CriticalJob &job : jobs) {
        if (!job.app)
            util::fatal("batch contains a null critical app");
    }

    // Rank free cores server-wide by deployed speed.
    struct Slot
    {
        double freq;
        int chip;
        int core;
    };
    std::vector<Slot> slots;
    for (int p = 0; p < chipCount(); ++p) {
        for (int c = 0; c < server_->chip(p).coreCount(); ++c)
            slots.push_back({deployedFreqMhz(p, c), p, c});
    }
    std::sort(slots.begin(), slots.end(),
              [](const Slot &a, const Slot &b) { return a.freq > b.freq; });

    // Hardest jobs (highest required frequency) pick first.
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<double> required(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Use the owning manager's predictor cache lazily below; the
        // required frequency is manager-independent (app property).
        required[i] = managers_.front()
                          ->perfPredictor(*jobs[i].app)
                          .requiredFreqMhz(jobs[i].qosTarget);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return required[a] > required[b];
              });

    SystemScheduleResult result;
    result.placements.resize(jobs.size());
    for (int p = 0; p < chipCount(); ++p)
        server_->chip(p).clearAssignments();

    std::size_t slot_index = 0;
    for (std::size_t job_rank = 0; job_rank < order.size(); ++job_rank) {
        const std::size_t j = order[job_rank];
        const Slot &slot = slots[slot_index++];
        server_->chip(slot.chip).assignWorkload(slot.core, jobs[j].app);
        result.placements[j].chip = slot.chip;
        result.placements[j].core = slot.core;
        result.placements[j].predictedFreqMhz = slot.freq;
    }

    // Fill the remaining cores with background work.
    if (background) {
        for (; slot_index < slots.size(); ++slot_index) {
            const Slot &slot = slots[slot_index];
            server_->chip(slot.chip).assignWorkload(slot.core,
                                                    background);
        }
    }

    // Per-chip throttling: while any resident job misses its target,
    // step the hungriest background core on that chip down a p-state.
    for (int p = 0; p < chipCount(); ++p) {
        chip::Chip &chip = server_->chip(p);
        std::vector<int> critical_cores;
        for (const JobPlacement &placement : result.placements) {
            if (placement.chip == p)
                critical_cores.push_back(placement.core);
        }
        throttleBackground(
            chip, critical_cores, [&](const chip::ChipSteadyState &st) {
                for (std::size_t j = 0; j < jobs.size(); ++j) {
                    const JobPlacement &placement = result.placements[j];
                    if (placement.chip != p)
                        continue;
                    const double f =
                        st.coreFreqMhz[static_cast<std::size_t>(
                                           placement.core)]
                            .value();
                    if (jobs[j].app->perfRelative(f)
                        < jobs[j].qosTarget - 1e-9)
                        return false;
                }
                return true;
            });
        result.chipStates.push_back(chip.solveSteadyState());
    }

    // Final outcome per job.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        JobPlacement &placement = result.placements[j];
        const chip::ChipSteadyState &st =
            result.chipStates[static_cast<std::size_t>(placement.chip)];
        const double f =
            st.coreFreqMhz[static_cast<std::size_t>(placement.core)]
                .value();
        placement.achievedPerf = jobs[j].app->perfRelative(f);
        placement.qosMet =
            placement.achievedPerf >= jobs[j].qosTarget - 1e-9;
    }
    return result;
}

} // namespace atmsim::core
