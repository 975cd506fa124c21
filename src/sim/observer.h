/**
 * @file
 * Engine observation interface: the single per-sample dispatch point
 * of a SimEngine run. The engine builds one per-core sample frame at
 * the statistics cadence and hands it to every attached observer, so
 * telemetry recorders, safety monitors, and metric exporters all
 * share a single dispatch instead of stacking per-core std::function
 * calls in the hot loop.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "sim/run_result.h"
#include "util/quantity.h"

namespace atmsim::sim {

/** One core's state at a statistics sample. */
struct CoreSample
{
    util::Mhz freqMhz{0.0};
    util::Volts voltageV{0.0};
    bool gated = false;
};

/**
 * Runtime observer interface: telemetry recorders and supervisors
 * implement this to watch an engine run and (for supervisors) react
 * to it. The engine never owns its observers; several can be
 * attached to one run. An observer may reconfigure cores or restart
 * their clocks; the engine reads the chip in place, so the change
 * takes effect at once.
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /**
     * Called once before the first step with the number of
     * statistics samples the run will produce at most -- a reserve()
     * hint so per-sample recorders allocate once instead of growing
     * inside the hot loop. Runs that stop early deliver fewer.
     */
    virtual void onRunStart(std::size_t expected_samples)
    {
        (void)expected_samples;
    }

    /**
     * A core entered a timing-violation episode. Return true when the
     * observer detects the event (and typically reconfigures the
     * core); episodes no observer detects count as silent failures
     * when they manifest as SDC.
     */
    virtual bool onViolation(const ViolationEvent &event)
    {
        (void)event;
        return false;
    }

    /**
     * Called at the statistics cadence with the per-core sample
     * frame. The frame is owned by the engine and only valid for the
     * duration of the call.
     */
    virtual void onSample(util::Nanoseconds now,
                          const std::vector<CoreSample> &cores)
    {
        (void)now;
        (void)cores;
    }

    /** Merge observer-side counters at the end of a run. */
    virtual void finish(util::Nanoseconds end, SafetyCounters &counters)
    {
        (void)end;
        (void)counters;
    }
};

} // namespace atmsim::sim
