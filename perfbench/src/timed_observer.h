/**
 * @file
 * Engine-run instrumentation of the traced pass: a forwarding
 * observer that times every callback of the observer it wraps (the
 * safety monitor), and the fold of one run into the per-layer sums.
 * The untraced pass attaches the monitor directly.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "harness.h"
#include "sim/observer.h"
#include "sim/run_result.h"

namespace atmsim::perfbench {

class TimedObserver : public sim::EngineObserver
{
  public:
    explicit TimedObserver(sim::EngineObserver *inner) : inner_(inner) {}
    TimedObserver(const TimedObserver &) = delete;
    TimedObserver &operator=(const TimedObserver &) = delete;

    void
    onRunStart(std::size_t expected_samples) override
    {
        const double t0 = nowNs();
        inner_->onRunStart(expected_samples);
        ns_ += nowNs() - t0;
    }

    bool
    onViolation(const sim::ViolationEvent &event) override
    {
        const double t0 = nowNs();
        const bool detected = inner_->onViolation(event);
        ns_ += nowNs() - t0;
        return detected;
    }

    void
    onSample(util::Nanoseconds now,
             const std::vector<sim::CoreSample> &cores) override
    {
        const double t0 = nowNs();
        inner_->onSample(now, cores);
        ns_ += nowNs() - t0;
    }

    void
    finish(util::Nanoseconds end, sim::SafetyCounters &counters) override
    {
        const double t0 = nowNs();
        inner_->finish(end, counters);
        ns_ += nowNs() - t0;
    }

    /** Host nanoseconds spent inside the wrapped observer. */
    [[nodiscard]] double ns() const { return ns_; }

  private:
    sim::EngineObserver *inner_;
    double ns_ = 0.0;
};

/**
 * Add one engine run to the per-layer sums: steps, fast-forwarded
 * steps, violation episodes and, for a supervised run (`monitor` set),
 * the monitor's callback time and silent failures.
 */
inline void
countEngineRun(LayerCounters &layers, const sim::RunResult &result,
               const TimedObserver *monitor)
{
    layers.add("sim.runs", 1.0);
    layers.add("sim.steps", static_cast<double>(result.steps));
    layers.add("sim.ff_steps", static_cast<double>(result.fastForwardedSteps));
    layers.add("fault.episodes",
               static_cast<double>(result.totalViolations()));
    if (monitor) {
        layers.add("safety.callback_ns", monitor->ns());
        layers.add("safety.monitored_runs", 1.0);
        layers.add("safety.silent_failures",
                   static_cast<double>(result.safety.silentFailures));
    }
}

} // namespace atmsim::perfbench
