/**
 * @file
 * Per-core digital phase-locked loop: the agile clock generator of the
 * ATM control loop (Sec. II of the paper). Every update interval it
 * compares the CPM bank's worst count against a threshold and slews
 * the clock period; on an emergency (margin near zero, e.g. a fast
 * di/dt droop) it stretches the clock immediately, which is the
 * lower-penalty alternative to gating the clock for a cycle.
 *
 * The loops of a chip are one DpllBankSoa of per-core arrays, owned
 * by chip::Chip and stepped in place by the engine; there is no
 * per-loop object.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hotpath_annotations.h"
#include "util/quantity.h"

namespace atmsim::dpll {

using util::Nanoseconds;
using util::Picoseconds;

/** Control-loop parameters. */
struct DpllParams
{
    /** Proportional-control update interval; also the loop round-trip
     *  latency for non-emergency adjustments. */
    Nanoseconds updateInterval{2.0};

    /** Margin setpoint in CPM inverter counts (~6 ps at 1.5 ps/inv). */
    int targetCounts = 4;

    /** Margin at or below which the emergency path engages. */
    int emergencyCounts = 1;

    /** Fractional period increase per count of deficit. */
    double slewDownPerCount = 0.004;

    /** Fractional period decrease per count of surplus. */
    double slewUpPerCount = 0.0008;

    /** Largest surplus used for a single upward slew. */
    int slewUpCapCounts = 4;

    /** Immediate fractional period stretch on an emergency. */
    double emergencyStretchFrac = 0.01;

    /** Minimum time between emergency stretches. */
    Nanoseconds emergencyHoldoff{1.0};

    /** Clock period bounds. */
    Picoseconds minPeriod{166.0}; ///< ~6.0 GHz
    Picoseconds maxPeriod{500.0}; ///< ~2.0 GHz
};

/**
 * The per-core DPLLs of one chip as structure-of-arrays state. All
 * cores of a chip share one DpllParams (chip::ChipConfig::dpllParams),
 * so the parameters live here once and the per-loop state is
 * contiguous arrays. chip::Chip owns the one bank of a chip; the
 * engine steps it in place, and observe() is the one implementation
 * of the control law.
 *
 * `adjustments` counts every period modification (slew or emergency
 * stretch); the steady-state detector reads it to decide whether the
 * clocks have settled without comparing floating-point periods.
 */
struct DpllBankSoa
{
    std::vector<double> periodPs;
    std::vector<double> lastUpdateNs;
    std::vector<double> lastEmergencyNs;
    std::vector<long> emergencies;
    std::vector<long> slewDowns;
    std::vector<long> slewUps;
    std::vector<int> heldMargin;
    std::vector<std::uint8_t> heldValid;
    /** Sensor-dropout flag per core (0/1); the loop holds its last
     *  healthy margin while it is set. */
    std::vector<std::uint8_t> dropout;
    long adjustments = 0;

    // Params flattened to raw doubles once at build time.
    double updateIntervalNs = 2.0;
    double emergencyHoldoffNs = 1.0;
    double slewDownPerCount = 0.004;
    double slewUpPerCount = 0.0008;
    double emergencyStretchFrac = 0.01;
    double minPeriodPs = 166.0;
    double maxPeriodPs = 500.0;
    int targetCounts = 4;
    int emergencyCounts = 1;
    int slewUpCapCounts = 4;

    /** Size the arrays and flatten the shared params; fatal() on
     *  params the loop cannot run with. */
    // atmlint: contract(cold)
    void resize(std::size_t cores, const DpllParams &params);

    /** Restart one loop at a period (clamped to the bounds): clear
     *  its counters, timers and held margin. The dropout flag is
     *  left untouched. */
    void reset(std::size_t core, Picoseconds period);

    /**
     * Feed one core's margin observation. The proportional path acts
     * only at update-interval boundaries; the emergency path acts
     * immediately (subject to a holdoff).
     *
     * @param core Core index.
     * @param nowNs Current simulation time (ns).
     * @param marginCounts Worst CPM count this cycle.
     */
    ATM_HOT_PATH(engine_step)
    void observe(std::size_t core, double nowNs, int marginCounts) noexcept
    {
        if (dropout[core]) {
            // The sensor input is gone; the loop keeps acting on the
            // last healthy reading and is blind to anything happening
            // now.
            if (!heldValid[core])
                return;
            marginCounts = heldMargin[core];
        } else {
            heldMargin[core] = marginCounts;
            heldValid[core] = 1;
        }
        // Emergency fast path: immediate stretch, rate limited.
        if (marginCounts <= emergencyCounts) {
            if (nowNs - lastEmergencyNs[core] >= emergencyHoldoffNs) {
                periodPs[core] *= 1.0 + emergencyStretchFrac;
                lastEmergencyNs[core] = nowNs;
                ++emergencies[core];
                clampPeriod(core);
                ++adjustments;
            }
            // An emergency restarts the proportional interval so the
            // slow path does not immediately undo the stretch.
            lastUpdateNs[core] = nowNs;
            return;
        }
        if (nowNs - lastUpdateNs[core] < updateIntervalNs)
            return;
        lastUpdateNs[core] = nowNs;

        const int error = marginCounts - targetCounts;
        if (error < 0) {
            periodPs[core] *= 1.0 + slewDownPerCount * (-error);
            ++slewDowns[core];
            ++adjustments;
        } else if (error > 0) {
            const int step = std::min(error, slewUpCapCounts);
            periodPs[core] *= 1.0 - slewUpPerCount * step;
            ++slewUps[core];
            ++adjustments;
        }
        clampPeriod(core);
    }

    ATM_HOT_PATH(engine_step)
    void clampPeriod(std::size_t core) noexcept
    {
        periodPs[core] =
            std::clamp(periodPs[core], minPeriodPs, maxPeriodPs);
    }
};

} // namespace atmsim::dpll
