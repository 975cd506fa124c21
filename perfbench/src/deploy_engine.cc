/**
 * @file
 * deploy_engine: engine-mode characterization and the deployment
 * flow built on it.
 *
 * Unit: one core of a pool chip through engine-mode
 * Characterizer::characterizeCore (trials on the exec pool at the
 * workload's thread count) and StressTester::stressLimit. After the
 * last core of a chip the same unit fits the predictors, evaluates
 * the Fig. 14 scenarios with AtmManager and schedules a batch with
 * SystemManager on the chip and its pair partner (chips 0-1, 2-3, ...).
 *
 * Check: the first kCheckCores cores of chip 0 that were characterized
 * give the same CoreLimits when re-characterized at jobs=1.
 */

#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "chip/system.h"
#include "core/characterizer.h"
#include "core/freq_predictor.h"
#include "core/governor.h"
#include "core/manager.h"
#include "core/perf_predictor.h"
#include "core/stress_test.h"
#include "core/system_manager.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "pool.h"
#include "util/logging.h"
#include "workload.h"
#include "workload/catalog.h"

namespace atmsim::perfbench {

namespace {

/** Chips a run can reach (cores are taken chip by chip; wraps). */
constexpr int kChipPool = 16;
/** Engine window per trial (us), as bench/characterize_scaling runs
 *  engine-mode characterization. */
constexpr double kWindowUs = 1.0;
constexpr long kCheckCores = 2;

/** Fig. 14 <critical : background> pairs. */
const std::vector<std::pair<const char *, const char *>> kFig14Pairs = {
    {"squeezenet", "lu_cb"},      {"ferret", "raytrace"},
    {"vgg19", "swaptions"},       {"fluidanimate", "x264"},
    {"seq2seq", "streamcluster"}, {"bodytrack", "blackscholes"},
    {"resnet", "x264"},           {"babi", "swaptions"},
    {"vips", "raytrace"},         {"seq2seq", "lu_cb"},
};

constexpr core::Scenario kScenarios[] = {
    core::Scenario::StaticMargin,    core::Scenario::DefaultAtmUnmanaged,
    core::Scenario::FineTunedUnmanaged, core::Scenario::ManagedMax,
    core::Scenario::ManagedBalanced,
};

/** Every field of a core's limits, doubles as hexfloat. */
std::string
limitsDigest(const core::CoreLimits &l)
{
    std::ostringstream os;
    os << std::hexfloat << l.idle << ' ' << l.ubench << ' ' << l.normal
       << ' ' << l.worst << ' ' << l.idleLimitFreqMhz << ' '
       << l.worstLimitFreqMhz;
    for (const auto &[v, n] : l.idleDist.items())
        os << " i" << v << ':' << n;
    for (const auto &[v, n] : l.ubenchDist.items())
        os << " u" << v << ':' << n;
    return os.str();
}

class DeployEngine : public Workload
{
  public:
    using Workload::Workload;

    void
    setUp() override
    {
        pool_.clear();
        for (int i = 0; i < kChipPool; ++i) {
            auto silicon = generatePoolChip("DE", seed_, i, tally_);
            if (silicon) {
                coreCount_ = static_cast<int>(silicon->cores.size());
                pool_.push_back(std::move(*silicon));
            } else {
                pool_.emplace_back();
                failedChips_.insert(i);
            }
        }
    }

    std::vector<double>
    runBatch(long first, long &consumed) override
    {
        consumed = 1;
        ++tally_.attempted;
        const int chip_index =
            static_cast<int>((first / coreCount_) % kChipPool);
        const int core = static_cast<int>(first % coreCount_);
        if (failedChips_.count(chip_index)) {
            ++tally_.failed;
            return {};
        }
        const double t0 = nowSeconds();
        try {
            const core::CoreLimits limits =
                characterizeCore(chip_index, core, jobs_, first, nullptr);
            chip::Chip chip(pool_[chip_index]);
            core::StressTester tester(&chip, engineConfig(jobs_));
            ScopedSpan span("stress_test.limit", first);
            const int stress_limit = tester.stressLimit(core);
            ChipState &state = chips_[chip_index];
            state.limits[core] = limits;
            state.stressLimits[core] = stress_limit;
        } catch (const util::FatalError &e) {
            ++tally_.failed;
            std::cerr << "deploy_engine unit " << first << ": " << e.what()
                      << "\n";
            return {};
        }
        // A chip is deployed once all of its cores have limits.
        if (core == coreCount_ - 1
            && chips_[chip_index].limits.size()
                   == static_cast<std::size_t>(coreCount_))
            deployChip(chip_index, first);
        return {(nowSeconds() - t0) * 1e3};
    }

    void
    check() override
    {
        const auto it = chips_.find(0);
        if (it == chips_.end())
            return;
        for (const auto &[core, parallel] : it->second.limits) {
            if (static_cast<long>(checkedCores_.size()) == kCheckCores)
                break;
            const std::string where = "deploy_engine chip 0 core "
                                      + std::to_string(core) + ": ";
            const double t0 = nowSeconds();
            try {
                const core::CoreLimits serial =
                    characterizeCore(0, core, 1, -1, nullptr);
                if (limitsDigest(serial) != limitsDigest(parallel)) {
                    tally_.failCheck(where + "limits differ between jobs="
                                     + std::to_string(jobs_)
                                     + " and jobs=1");
                }
            } catch (const util::FatalError &e) {
                tally_.failCheck(where + "jobs=1 failed where jobs="
                                 + std::to_string(jobs_)
                                 + " did not: " + e.what());
                continue;
            }
            serialSeconds_ += nowSeconds() - t0;
            checkedCores_.push_back(core);
        }
    }

    void
    measureLayers() override
    {
        // exec.speedup: the checked cores again at the workload's jobs.
        double parallel_s = 0.0;
        for (int core : checkedCores_) {
            const double t0 = nowSeconds();
            (void)characterizeCore(0, core, jobs_, -1, nullptr);
            parallel_s += nowSeconds() - t0;
        }
        if (parallel_s > 0.0)
            count("exec.speedup", serialSeconds_ / parallel_s);

        // Core 0 of chip 0 is counted only if its unit completed, so
        // neither replay below can throw.
        const auto it = chips_.find(0);
        if (it == chips_.end() || !it->second.stressLimits.count(0))
            return;
        // Trial counts from the characterizer's own counters, per core.
        obs::MetricsRegistry registry;
        (void)characterizeCore(0, 0, jobs_, -1, &registry);
        const obs::MetricsSnapshot snap = registry.snapshot();
        count("characterizer.trials",
              counterValue(snap, "characterizer.trials"));
        count("characterizer.engine_runs",
              counterValue(snap, "characterizer.trials.engine"));

        // StressTester has no counters of its own: replay its scan
        // through a counting Characterizer on core 0.
        obs::MetricsRegistry stress_registry;
        chip::Chip chip(pool_[0]);
        core::Characterizer counter(&chip, engineConfig(1));
        counter.setObservability({&stress_registry, nullptr});
        const int ceiling = chip.core(0).silicon().presetSteps;
        int limit = ceiling;
        for (const workload::WorkloadTraits *mark :
             {&workload::voltageVirus(),
              &workload::findWorkload("power_virus"),
              &workload::findWorkload("isa_suite")}) {
            for (int rep = 0; rep < counter.config().reps; ++rep) {
                int k = 0;
                while (k < ceiling && counter.trialSafe(0, k + 1, *mark, rep))
                    ++k;
                limit = std::min(limit, k);
            }
        }
        count("stress_test.trials",
              counterValue(stress_registry.snapshot(), "characterizer.trials"));
        if (it->second.stressLimits.at(0) != limit) {
            std::cout << "deploy_engine: stress-test replay found limit "
                      << limit << ", StressTester "
                      << it->second.stressLimits.at(0)
                      << " (stress_test.trials is approximate)\n";
        }

        // A chip is deployed once per coreCount_ units, which a short
        // traced pass may not reach: then finish chip 0 and deploy it
        // here, so the deployment layers are still measured.
        if (!tracedDeploy_) {
            ChipState &state = it->second;
            try {
                for (int core = 0; core < coreCount_; ++core) {
                    if (!state.limits.count(core))
                        state.limits[core] =
                            characterizeCore(0, core, jobs_, -1, nullptr);
                }
            } catch (const util::FatalError &e) {
                std::cerr << "deploy_engine chip 0: " << e.what() << "\n";
                return;
            }
            deployChip(0, -1);
        }
    }

    [[nodiscard]] const char *attemptUnit() const override { return "cores"; }

  private:
    struct ChipState
    {
        /** Limits of the characterized cores, by core. */
        std::map<int, core::CoreLimits> limits;
        std::map<int, int> stressLimits;
    };

    [[nodiscard]] static core::CharacterizerConfig
    engineConfig(int jobs)
    {
        core::CharacterizerConfig config;
        config.mode = core::CharacterizerConfig::Mode::Engine;
        config.engineWindowUs = kWindowUs;
        config.jobs = jobs;
        return config;
    }

    static double
    counterValue(const obs::MetricsSnapshot &snap, const char *name)
    {
        const obs::MetricSnapshotEntry *entry = snap.find(name);
        return entry ? static_cast<double>(entry->counter) : 0.0;
    }

    core::CoreLimits
    characterizeCore(int chip_index, int core, int jobs, long unit,
                     obs::MetricsRegistry *registry)
    {
        chip::Chip chip(pool_[chip_index]);
        core::Characterizer characterizer(&chip, engineConfig(jobs));
        if (registry)
            characterizer.setObservability({registry, nullptr});
        ScopedSpan span("characterizer.core", unit);
        return characterizer.characterizeCore(core);
    }

    /** Once per chip: predictors, Fig. 14 scenarios, pair schedule. */
    void
    deployChip(int chip_index, long unit)
    {
        if (layers_)
            tracedDeploy_ = true;
        core::LimitTable table;
        chip::Chip chip(pool_[chip_index]);
        table.chipName = chip.name();
        for (const auto &[core, limits] : chips_[chip_index].limits)
            table.cores.push_back(limits);

        core::Governor governor(&chip, table);
        governor.apply(core::GovernorPolicy::FineTuned);
        {
            ScopedSpan span("predictor.freq_fit", unit);
            (void)core::FreqPredictor::fit(&chip);
        }
        for (const auto &[critical, background] : kFig14Pairs) {
            (void)background;
            ScopedSpan span("predictor.perf_fit", unit);
            (void)core::PerfPredictor::fit(workload::findWorkload(critical));
        }
        core::AtmManager manager(&chip, table);
        for (const auto &[critical, background] : kFig14Pairs) {
            core::ScheduleRequest request;
            request.critical = &workload::findWorkload(critical);
            request.background = &workload::findWorkload(background);
            request.qosTarget = 1.10;
            for (core::Scenario scenario : kScenarios) {
                ScopedSpan span("manager.evaluate", unit);
                (void)manager.evaluate(scenario, request);
            }
        }

        const int partner = chip_index ^ 1;
        if (!failedChips_.count(partner)) {
            chip::System server({pool_[chip_index], pool_[partner]});
            core::SystemManager system_manager(&server);
            const std::vector<core::CriticalJob> jobs = {
                {&workload::findWorkload("ferret"), 1.10},
                {&workload::findWorkload("vgg19"), 1.10},
                {&workload::findWorkload("squeezenet"), 1.10},
                {&workload::findWorkload("seq2seq"), 1.10},
                {&workload::findWorkload("babi"), 1.10},
                {&workload::findWorkload("vips"), 1.10},
            };
            ScopedSpan span("system_manager.schedule", unit);
            (void)system_manager.scheduleBatch(
                jobs, &workload::findWorkload("lu_cb"));
        }
    }

    std::vector<variation::ChipSilicon> pool_;
    std::set<int> failedChips_;
    int coreCount_ = 1;
    std::map<int, ChipState> chips_;
    double serialSeconds_ = 0.0;
    /** Cores of chip 0 re-characterized by check(). */
    std::vector<int> checkedCores_;
    /** Whether a chip was deployed while the traced pass counted. */
    bool tracedDeploy_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeDeployEngine(std::uint64_t seed, int jobs)
{
    return std::make_unique<DeployEngine>(seed, jobs);
}

} // namespace atmsim::perfbench
