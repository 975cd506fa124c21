/**
 * @file
 * Population study: run the full fine-tuning pipeline
 * (characterize -> stress-test -> deploy) over a population of
 * randomly manufactured chips and aggregate the exposed variation.
 * This supports the paper's deployment-at-scale argument: the
 * inter-core speed differential and the supply of robust cores are
 * properties of the process, not of the two measured parts.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/stats.h"
#include "variation/chip_generator.h"

namespace atmsim::obs {
class MetricsRegistry;
}

namespace atmsim::util {
class JsonWriter;
class JsonValue;
}

namespace atmsim::core {

struct LimitTable;

/** Configuration of a population study. */
struct PopulationConfig
{
    int chipCount = 24;
    std::uint64_t seedBase = 1000;
    variation::ChipGeneratorConfig generator;

    /** Robustness threshold (uBench-to-worst spread). */
    int robustSpread = 1;
};

/** Aggregated population results. */
struct PopulationStats
{
    int chipCount = 0;

    /** Per-core idle limits (steps). */
    util::IntHistogram idleLimitSteps;

    /** Per-core idle-limit frequencies (MHz). */
    util::RunningStats idleLimitMhz;

    /** Per-core thread-worst (deployable) frequencies (MHz). */
    util::RunningStats worstLimitMhz;

    /** Per-chip deployed fastest-slowest differential (MHz). */
    util::RunningStats differentialMhz;
    std::vector<double> differentials;

    /** Per-chip robust-core count. */
    util::RunningStats robustCores;

    /** Fraction of chips with a differential of at least 200 MHz. */
    [[nodiscard]] double fracAbove200Mhz() const;

    /**
     * Serialize the full accumulator state (Welford moments
     * included) so a parsed copy continues folding bitwise where
     * this one stopped -- the checkpoint/resume contract of the
     * fleet campaign driver (src/fleet).
     */
    void writeJson(util::JsonWriter &json) const;

    /** Rebuild from writeJson() output; throws on malformed input. */
    [[nodiscard]] static PopulationStats
    fromJson(const util::JsonValue &value);
};

/**
 * The fold-relevant rows of one characterized chip: everything
 * foldChipSummary() needs, and nothing else, so the record is cheap
 * to ship across a worker-process boundary.
 */
struct ChipCoreSummary
{
    int idleSteps = 0;         ///< Idle limit (CPM steps).
    double idleFreqMhz = 0.0;  ///< ATM frequency at the idle limit.
    double worstFreqMhz = 0.0; ///< Deployable (thread-worst) frequency.
    int rollbackSpread = 0;    ///< uBench-to-worst robustness spread.
};

/** Per-chip summary, tagged with the chip's population index. */
struct ChipSummary
{
    int chipIndex = 0;
    std::vector<ChipCoreSummary> cores;
};

/** Extract the fold rows of a characterized chip. */
[[nodiscard]] ChipSummary summarizeChip(int chipIndex,
                                        const LimitTable &table);

/**
 * Fold one chip into the aggregate. This is THE fold: both
 * studyPopulation() and the fleet supervisor's shard join call it,
 * chip-index order in both cases, so a sharded multi-process
 * campaign reproduces the serial aggregate bit for bit.
 * Increments stats.chipCount.
 */
void foldChipSummary(PopulationStats &stats, const ChipSummary &chip,
                     int robustSpread);

/**
 * Characterize chips [beginChip, endChip) of the configured
 * population -- the shard-range entry point of the fleet worker.
 * Each chip derives from seedBase + index alone, so any partition of
 * [0, chipCount) into ranges folds back to the same aggregate.
 *
 * @param config Study parameters (chip identity, generator, seeds).
 * @param beginChip First chip index of the range.
 * @param endChip One past the last chip index.
 * @param metrics Optional registry for characterizer counters and
 *        the `fleet.chips_done` progress counter.
 * @param chipDone Optional per-chip progress callback (heartbeats).
 */
[[nodiscard]] std::vector<ChipSummary>
studyShard(const PopulationConfig &config, int beginChip, int endChip,
           obs::MetricsRegistry *metrics = nullptr,
           const std::function<void(int)> &chipDone = {});

/**
 * Run the study serially: one studyShard() over the whole population,
 * folded in chip order. This is the reference the fleet campaign
 * (fleet::runFleetCampaign, the parallel runner) must match bit for
 * bit; fatal() on an empty population.
 *
 * @param config Study parameters.
 * @return Aggregated statistics over the population.
 */
PopulationStats studyPopulation(const PopulationConfig &config = {});

} // namespace atmsim::core
