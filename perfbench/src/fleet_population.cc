/**
 * @file
 * fleet_population: the fleet_study harness on a seeded slice.
 *
 * Unit: one fleet::runFleetCampaign over a slice of kSliceChips
 * generated chips (seeds fleetSeedBase(seed) + index, unfiltered),
 * with nproc - 1 forked workers, the library's default shard size,
 * retries and backoff, and no checkpoint directory. Every unit of a
 * run campaigns over the same slice.
 *
 * Set-up generates and characterizes the slice in-process (the
 * reference the check folds). Check, on every unit: the campaign's
 * aggregate equals the foldChipSummary of the direct in-process
 * characterizations of the chips it completed. `attempted` and
 * `failed` count chips: a chip fails when its shard is abandoned
 * (generator failures and their healthy shard-mates alike).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "core/characterizer.h"
#include "core/population.h"
#include "exec/thread_pool.h"
#include "fleet/supervisor.h"
#include "inputs.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "variation/chip_generator.h"
#include "workload.h"

namespace atmsim::perfbench {

namespace {

constexpr int kSliceChips = 24;

std::string
statsJson(const core::PopulationStats &stats)
{
    std::ostringstream os;
    {
        util::JsonWriter json(os);
        stats.writeJson(json);
    }
    return os.str();
}

class FleetPopulation : public Workload
{
  public:
    using Workload::Workload;

    void
    setUp() override
    {
        config_.population.chipCount = kSliceChips;
        config_.population.seedBase = fleetSeedBase(seed_);
        config_.workers = std::max(1, exec::hardwareConcurrency() - 1);
        config_.checkpointDir.clear();

        tables_.assign(kSliceChips, std::nullopt);
        directSeconds_.assign(kSliceChips, 0.0);
        for (int i = 0; i < kSliceChips; ++i) {
            // The chip identity studyShard uses: POP<i>, seedBase + i.
            const double t0 = nowSeconds();
            std::optional<variation::ChipSilicon> silicon;
            {
                ScopedSpan span("variation.generate", -1);
                try {
                    silicon = variation::generateChip(
                        "POP" + std::to_string(i),
                        config_.population.seedBase
                            + static_cast<std::uint64_t>(i),
                        config_.population.generator);
                } catch (const util::FatalError &) {
                    ++tally_.generatorFailures;
                }
            }
            if (!silicon)
                continue;
            chip::Chip chip(std::move(*silicon));
            core::CharacterizerConfig ccfg;
            ccfg.jobs = 1;
            core::Characterizer characterizer(&chip, ccfg);
            ScopedSpan span("characterizer.chip", -1);
            tables_[i] = characterizer.characterizeChip();
            directSeconds_[i] = nowSeconds() - t0;
        }
    }

    std::vector<double>
    runBatch(long first, long &consumed) override
    {
        consumed = 1;
        tally_.attempted += kSliceChips;
        // Forked workers inherit unflushed stdio buffers.
        std::cout.flush();
        std::fflush(nullptr);
        const double t0 = nowSeconds();
        fleet::FleetResult result;
        try {
            ScopedSpan span("fleet.campaign", first);
            result = fleet::runFleetCampaign(config_);
        } catch (const util::FatalError &e) {
            tally_.failed += kSliceChips;
            std::cerr << "fleet_population: campaign failed: " << e.what()
                      << "\n";
            return {};
        }
        const double seconds = nowSeconds() - t0;
        const obs::FleetManifest &cov = result.coverage;
        tally_.failed += cov.chipsSkipped;
        verify(result, first);
        count("fleet.retries", static_cast<double>(cov.retries));
        count("fleet.shards_failed", static_cast<double>(cov.shardsFailed));
        count("fleet.chips_skipped", static_cast<double>(cov.chipsSkipped));
        count("fleet.compute_share",
              completedDirectSeconds(cov)
                  / (static_cast<double>(config_.workers) * seconds));
        return {seconds * 1e3};
    }

    void
    check() override
    {
        std::cout << "fleet_population: " << config_.workers
                  << " workers, slice of " << kSliceChips
                  << " chips from seed base " << config_.population.seedBase
                  << "; aggregate checked on every campaign\n";
    }

    [[nodiscard]] const char *attemptUnit() const override { return "chips"; }

  private:
    /** Chips of shards the campaign abandoned. */
    [[nodiscard]] std::set<int>
    skippedChips(const obs::FleetManifest &cov) const
    {
        std::set<int> out;
        for (long shard : cov.failedShards) {
            const long begin = shard * config_.shardSize;
            const long end = std::min<long>(begin + config_.shardSize,
                                            kSliceChips);
            for (long c = begin; c < end; ++c)
                out.insert(static_cast<int>(c));
        }
        return out;
    }

    [[nodiscard]] double
    completedDirectSeconds(const obs::FleetManifest &cov) const
    {
        const std::set<int> skipped = skippedChips(cov);
        double total = 0.0;
        for (int i = 0; i < kSliceChips; ++i) {
            if (!skipped.count(i))
                total += directSeconds_[i];
        }
        return total;
    }

    /** The aggregate must equal the in-process fold of the chips the
     *  campaign completed. */
    void
    verify(const fleet::FleetResult &result, long unit)
    {
        const std::set<int> skipped = skippedChips(result.coverage);
        core::PopulationStats reference;
        bool complete = true;
        {
            ScopedSpan span("population.fold", unit);
            for (int i = 0; i < kSliceChips; ++i) {
                if (skipped.count(i))
                    continue;
                if (!tables_[i]) {
                    complete = false;
                    continue;
                }
                core::foldChipSummary(reference,
                                      core::summarizeChip(i, *tables_[i]),
                                      config_.population.robustSpread);
            }
        }
        if (!complete || statsJson(reference) != statsJson(result.stats)) {
            tally_.failCheck("fleet_population campaign "
                             + std::to_string(unit)
                             + ": aggregate differs from the in-process "
                               "fold of its completed chips");
        }
    }

    fleet::FleetConfig config_;
    std::vector<std::optional<core::LimitTable>> tables_;
    std::vector<double> directSeconds_;
};

} // namespace

std::unique_ptr<Workload>
makeFleetPopulation(std::uint64_t seed, int jobs)
{
    return std::make_unique<FleetPopulation>(seed, jobs);
}

} // namespace atmsim::perfbench
