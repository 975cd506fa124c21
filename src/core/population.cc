#include "core/population.h"

#include <algorithm>
#include <string>

#include "chip/chip.h"
#include "core/characterizer.h"
#include "core/limit_table.h"
#include "obs/phase.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace atmsim::core {

namespace {

/** Serialize one RunningStats accumulator exactly. */
void
writeRunningStats(util::JsonWriter &json, const util::RunningStats &s)
{
    json.beginObject();
    json.field("n", static_cast<std::uint64_t>(s.count()));
    if (s.count() > 0) {
        json.field("mean", s.mean());
        json.field("m2", s.m2());
        json.field("min", s.min());
        json.field("max", s.max());
    }
    json.endObject();
}

[[nodiscard]] util::RunningStats
readRunningStats(const util::JsonValue &value)
{
    const auto n = value.at("n").asLong();
    if (n < 0)
        util::fatal("population JSON: negative sample count ", n);
    if (n == 0)
        return {};
    return util::RunningStats::fromState(static_cast<std::size_t>(n),
                                         value.at("mean").asDouble(),
                                         value.at("m2").asDouble(),
                                         value.at("min").asDouble(),
                                         value.at("max").asDouble());
}

void
writeIntHistogram(util::JsonWriter &json, const util::IntHistogram &h)
{
    json.beginArray();
    for (const auto &[value, count] : h.items()) {
        json.beginArray();
        json.value(value);
        json.value(static_cast<std::uint64_t>(count));
        json.endArray();
    }
    json.endArray();
}

[[nodiscard]] util::IntHistogram
readIntHistogram(const util::JsonValue &value)
{
    util::IntHistogram h;
    for (const util::JsonValue &item : value.asArray()) {
        const util::JsonValue::Array &pair = item.asArray();
        if (pair.size() != 2)
            util::fatal("population JSON: histogram item is not a "
                        "[value, count] pair");
        const auto count = pair[1].asLong();
        if (count < 0)
            util::fatal("population JSON: negative histogram count ",
                        count);
        h.add(static_cast<long>(pair[0].asLong()),
              static_cast<std::size_t>(count));
    }
    return h;
}

} // namespace

double
PopulationStats::fracAbove200Mhz() const
{
    if (differentials.empty())
        return 0.0;
    const auto count = std::count_if(differentials.begin(),
                                     differentials.end(),
                                     [](double d) { return d >= 200.0; });
    return static_cast<double>(count)
         / static_cast<double>(differentials.size());
}

void
PopulationStats::writeJson(util::JsonWriter &json) const
{
    json.beginObject();
    json.field("chip_count", chipCount);
    json.key("idle_limit_steps");
    writeIntHistogram(json, idleLimitSteps);
    json.key("idle_limit_mhz");
    writeRunningStats(json, idleLimitMhz);
    json.key("worst_limit_mhz");
    writeRunningStats(json, worstLimitMhz);
    json.key("differential_mhz");
    writeRunningStats(json, differentialMhz);
    json.key("robust_cores");
    writeRunningStats(json, robustCores);
    json.key("differentials").beginArray();
    for (const double d : differentials)
        json.value(d);
    json.endArray();
    json.endObject();
}

PopulationStats
PopulationStats::fromJson(const util::JsonValue &value)
{
    PopulationStats stats;
    stats.chipCount =
        static_cast<int>(value.at("chip_count").asLong());
    if (stats.chipCount < 0)
        util::fatal("population JSON: negative chip count");
    stats.idleLimitSteps =
        readIntHistogram(value.at("idle_limit_steps"));
    stats.idleLimitMhz = readRunningStats(value.at("idle_limit_mhz"));
    stats.worstLimitMhz =
        readRunningStats(value.at("worst_limit_mhz"));
    stats.differentialMhz =
        readRunningStats(value.at("differential_mhz"));
    stats.robustCores = readRunningStats(value.at("robust_cores"));
    for (const util::JsonValue &d :
         value.at("differentials").asArray())
        stats.differentials.push_back(d.asDouble());
    if (stats.differentials.size()
        != static_cast<std::size_t>(stats.chipCount))
        util::fatal("population JSON: ", stats.differentials.size(),
                    " differentials for ", stats.chipCount, " chips");
    return stats;
}

ChipSummary
summarizeChip(int chipIndex, const LimitTable &table)
{
    ChipSummary summary;
    summary.chipIndex = chipIndex;
    summary.cores.reserve(table.cores.size());
    for (const CoreLimits &core : table.cores) {
        ChipCoreSummary row;
        row.idleSteps = core.idle;
        row.idleFreqMhz = core.idleLimitFreqMhz;
        row.worstFreqMhz = core.worstLimitFreqMhz;
        row.rollbackSpread = core.rollbackSpread();
        summary.cores.push_back(row);
    }
    return summary;
}

void
foldChipSummary(PopulationStats &stats, const ChipSummary &chip,
                int robustSpread)
{
    double fast = 0.0, slow = 1e18;
    int robust = 0;
    for (const ChipCoreSummary &core : chip.cores) {
        stats.idleLimitSteps.add(core.idleSteps);
        stats.idleLimitMhz.add(core.idleFreqMhz);
        stats.worstLimitMhz.add(core.worstFreqMhz);
        fast = std::max(fast, core.worstFreqMhz);
        slow = std::min(slow, core.worstFreqMhz);
        if (core.rollbackSpread <= robustSpread)
            ++robust;
    }
    stats.differentialMhz.add(fast - slow);
    stats.differentials.push_back(fast - slow);
    stats.robustCores.add(static_cast<double>(robust));
    stats.chipCount += 1;
}

std::vector<ChipSummary>
studyShard(const PopulationConfig &config, int beginChip, int endChip,
           obs::MetricsRegistry *metrics,
           const std::function<void(int)> &chipDone)
{
    if (beginChip < 0 || endChip < beginChip
        || endChip > config.chipCount)
        util::fatal("shard range [", beginChip, ", ", endChip,
                    ") is outside the population of ",
                    config.chipCount, " chips");
    std::vector<ChipSummary> out;
    out.reserve(static_cast<std::size_t>(endChip - beginChip));
    obs::Counter *chips_done = metrics && beginChip < endChip
                                   ? &metrics->counter("fleet.chips_done")
                                   : nullptr;
    for (int i = beginChip; i < endChip; ++i) {
        const std::string name = "POP" + std::to_string(i);
        chip::Chip chip(variation::generateChip(
            name, config.seedBase + static_cast<std::uint64_t>(i),
            config.generator));
        CharacterizerConfig ccfg;
        // Inline: fleet parallelism is process-level, and the
        // characterizer's jobs-invariance contract guarantees the
        // table (and metric snapshot) match any other job count.
        ccfg.jobs = 1;
        Characterizer characterizer(&chip, ccfg);
        if (metrics)
            characterizer.setObservability({metrics, nullptr});
        out.push_back(summarizeChip(i, characterizer.characterizeChip()));
        if (chips_done)
            chips_done->inc();
        if (chipDone)
            chipDone(i);
    }
    return out;
}

PopulationStats
studyPopulation(const PopulationConfig &config)
{
    if (config.chipCount <= 0)
        util::fatal("population needs at least one chip");
    PopulationStats stats;
    for (const ChipSummary &chip : studyShard(config, 0, config.chipCount))
        foldChipSummary(stats, chip, config.robustSpread);
    return stats;
}

} // namespace atmsim::core
