/**
 * @file
 * The workload interface main.cc runs: a closed-loop
 * batch job whose next unit starts when the previous one finishes.
 *
 *   setUp()      build the inputs shared by every unit (chip pools,
 *                limit tables, deployments); timed as setup_s;
 *   runBatch()   run the next unit(s) and return each one's host time;
 *   check()      output checks after the timed phase;
 *   measureLayers()  traced pass only: extra per-layer measurements.
 *
 * Each workload records its failure accounting in tally_ and, while
 * the traced pass runs, its per-layer sums in *layers_.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace atmsim::perfbench {

class Workload
{
  public:
    Workload(std::uint64_t seed, int jobs) : seed_(seed), jobs_(jobs) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    virtual void setUp() = 0;

    /**
     * Run the units starting at index `first` (one unit, or one
     * parallel batch of them). Returns the host milliseconds of every
     * unit that completed; failed units are tallied, not timed.
     * Returns the number of indices consumed through `consumed`.
     */
    virtual std::vector<double> runBatch(long first, long &consumed) = 0;

    virtual void check() = 0;

    virtual void measureLayers() {}

    /** What `attempted` counts on this workload ("units", "chips"). */
    [[nodiscard]] virtual const char *attemptUnit() const { return "units"; }

    /** Per-layer sums go to `layers` (nullptr outside the traced pass). */
    void setLayers(LayerCounters *layers) { layers_ = layers; }

    [[nodiscard]] const Tally &tally() const { return tally_; }

  protected:
    /** Add to a per-layer sum while the traced pass runs. */
    void
    count(const std::string &name, double value)
    {
        if (layers_)
            layers_->add(name, value);
    }

    std::uint64_t seed_;
    int jobs_;
    Tally tally_;
    LayerCounters *layers_ = nullptr;
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(std::uint64_t seed, int jobs)>;

std::unique_ptr<Workload> makeFaultSweep(std::uint64_t seed, int jobs);
std::unique_ptr<Workload> makeSteadySampled(std::uint64_t seed, int jobs);
std::unique_ptr<Workload> makeDeployEngine(std::uint64_t seed, int jobs);
std::unique_ptr<Workload> makeFleetPopulation(std::uint64_t seed, int jobs);

} // namespace atmsim::perfbench
