/**
 * @file
 * Voltage-noise explorer: run the detailed engine with a di/dt-heavy
 * workload, record the core's supply voltage and clock frequency over
 * time, and draw both waveforms -- the first droop and the DPLL's
 * response are visible directly.
 *
 *   ./noise_explorer [workload] [reduction]
 *   e.g. ./noise_explorer x264 5
 */

#include <iostream>
#include <optional>
#include <vector>

#include "chip/chip.h"
#include "sim/observer.h"
#include "sim/sim_engine.h"
#include "util/ascii_plot.h"
#include "util/parse.h"
#include "util/table.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

using namespace atmsim;

namespace {

/** Core 0's supply voltage and clock frequency at every sample. */
struct Core0Waveform : sim::EngineObserver
{
    void
    onSample(util::Nanoseconds now,
             const std::vector<sim::CoreSample> &cores) override
    {
        timeNs.push_back(now.value());
        timeUs.push_back(now.value() / 1000.0);
        mv.push_back(cores[0].voltageV.value() * 1000.0);
        freqMhz.push_back(cores[0].freqMhz.value());
    }

    /** Mean frequency over the last window_ns of the run (the
     *  off-chip controller's input). */
    double
    windowAvgFreqMhz(double window_ns) const
    {
        const double cutoff = timeNs.back() - window_ns;
        double sum = 0.0;
        std::size_t count = 0;
        for (std::size_t i = timeNs.size(); i-- > 0 && timeNs[i] >= cutoff;) {
            sum += freqMhz[i];
            ++count;
        }
        return sum / static_cast<double>(count);
    }

    std::vector<double> timeNs, timeUs, mv, freqMhz;
};

int
usage()
{
    std::cerr << "usage: noise_explorer [workload] [reduction]\n"
                 "  workload   catalog workload (default x264)\n"
                 "  reduction  CPM delay reduction in steps, 0 up to "
                 "core 0's preset (default 0)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 3)
        return usage();
    const std::string workload_name = argc > 1 ? argv[1] : "x264";
    if (!workload::hasWorkload(workload_name)) {
        std::cerr << "unknown workload '" << workload_name << "'\n";
        return usage();
    }

    chip::Chip chip(variation::makeReferenceChip(0));
    const std::optional<int> parsed =
        argc > 2 ? util::parseNumber<int>(argv[2]) : 0;
    if (!parsed || *parsed < 0
        || *parsed > chip.core(0).silicon().presetSteps) {
        std::cerr << "bad reduction '" << argv[2] << "'\n";
        return usage();
    }
    const int reduction = *parsed;
    const auto &traits = workload::findWorkload(workload_name);
    chip.assignWorkload(0, &traits);
    chip.core(0).setCpmReduction(util::CpmSteps{reduction});

    std::cout << "Running " << workload_name << " on "
              << chip.core(0).name() << " at CPM reduction " << reduction
              << " for 4 us of detailed simulation...\n";

    Core0Waveform waveform;
    sim::SimConfig config;
    config.stopOnViolation = false;
    config.statsCadence = 5;
    sim::SimEngine engine(&chip, config);
    engine.addObserver(&waveform);
    const sim::RunResult result = engine.run(4.0);

    util::AsciiPlot vplot(72, 14);
    vplot.addSeries("core voltage", waveform.timeUs, waveform.mv, '*');
    vplot.setLabels("time (us)", "mV");
    vplot.print(std::cout);
    std::cout << "\n";

    util::AsciiPlot fplot(72, 14);
    fplot.addSeries("core frequency", waveform.timeUs, waveform.freqMhz,
                    '+');
    fplot.setLabels("time (us)", "MHz");
    fplot.print(std::cout);

    std::cout << "\nsliding-window average frequency (the off-chip "
                 "controller's input): "
              << util::fmtInt(waveform.windowAvgFreqMhz(2000.0))
              << " MHz over the last 2 us\n";
    std::cout << "run summary: mean frequency "
              << util::fmtInt(result.meanFreqMhz(0)) << " MHz, min core "
              << "voltage "
              << util::fmtInt(result.coreStats[0].minVoltageV * 1000.0)
              << " mV, DPLL emergencies "
              << result.coreStats[0].emergencies << ", violations "
              << result.violations.size() << "\n";
    if (!result.violations.empty()) {
        std::cout << "first violation at "
                  << util::fmtFixed(result.violations.front().timeNs
                                    / 1000.0, 2)
                  << " us ("
                  << sim::failureKindName(result.violations.front().kind)
                  << ") -- this CPM setting is past the core's limit "
                     "for this workload.\n";
    }
    return 0;
}
