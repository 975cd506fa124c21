#include <gtest/gtest.h>

#include "dpll/dpll.h"
#include "util/logging.h"
#include "util/units.h"

namespace atmsim::dpll {
namespace {

using util::Picoseconds;

/** A one-core bank of the engine's control loops, started at
 *  `period_ps` with the default parameters. */
DpllBankSoa
oneLoop(double period_ps)
{
    DpllBankSoa loop;
    loop.resize(1, DpllParams{});
    loop.periodPs[0] = period_ps;
    return loop;
}

TEST(Dpll, ResetSetsPeriod)
{
    DpllBankSoa loop = oneLoop(220.0);
    loop.observe(0, 0.0, 0); // emergency: counters and timers move
    loop.dropout[0] = 1;
    loop.reset(0, Picoseconds{217.4});
    EXPECT_DOUBLE_EQ(loop.periodPs[0], 217.4);
    EXPECT_EQ(loop.emergencies[0], 0);
    EXPECT_DOUBLE_EQ(loop.lastEmergencyNs[0], -1e18);
    EXPECT_DOUBLE_EQ(loop.lastUpdateNs[0], -1e18);
    EXPECT_EQ(loop.heldValid[0], 0);
    EXPECT_EQ(loop.dropout[0], 1) << "reset must keep the fault";
    loop.reset(0, Picoseconds{100.0});
    EXPECT_DOUBLE_EQ(loop.periodPs[0], loop.minPeriodPs);
}

TEST(Dpll, SpeedsUpOnSurplusMargin)
{
    DpllBankSoa loop = oneLoop(220.0);
    double now = 0.0;
    for (int i = 0; i < 50; ++i) {
        loop.observe(0, now, 10); // plenty of margin
        now += loop.updateIntervalNs;
    }
    EXPECT_LT(loop.periodPs[0], 220.0);
}

TEST(Dpll, SlowsDownOnDeficitMargin)
{
    DpllBankSoa loop = oneLoop(220.0);
    double now = 0.0;
    for (int i = 0; i < 10; ++i) {
        loop.observe(0, now, 2); // below target, above emergency
        now += loop.updateIntervalNs;
    }
    EXPECT_GT(loop.periodPs[0], 220.0);
    EXPECT_EQ(loop.emergencies[0], 0);
}

TEST(Dpll, HoldsAtTarget)
{
    DpllBankSoa loop = oneLoop(220.0);
    loop.observe(0, 0.0, loop.targetCounts);
    EXPECT_DOUBLE_EQ(loop.periodPs[0], 220.0);
    EXPECT_EQ(loop.adjustments, 0);
}

TEST(Dpll, EmergencyStretchesImmediately)
{
    DpllBankSoa loop = oneLoop(200.0);
    loop.observe(0, 0.05, 0); // far from an update boundary
    EXPECT_NEAR(loop.periodPs[0], 200.0 * (1.0 + loop.emergencyStretchFrac),
                1e-9);
    EXPECT_EQ(loop.emergencies[0], 1);
    EXPECT_DOUBLE_EQ(loop.lastEmergencyNs[0], 0.05);
}

TEST(Dpll, EmergencyRateLimited)
{
    DpllBankSoa loop = oneLoop(200.0);
    loop.observe(0, 0.0, 0);
    const double after_first = loop.periodPs[0];
    loop.observe(0, 0.2, 0); // within the holdoff
    EXPECT_DOUBLE_EQ(loop.periodPs[0], after_first);
    loop.observe(0, 1.5, 0); // past the holdoff
    EXPECT_GT(loop.periodPs[0], after_first);
    EXPECT_EQ(loop.emergencies[0], 2);
}

TEST(Dpll, ProportionalPathRespectsUpdateInterval)
{
    DpllBankSoa loop = oneLoop(220.0);
    loop.observe(0, 0.0, 10);
    const double after_first = loop.periodPs[0];
    loop.observe(0, 0.5, 10); // too soon
    EXPECT_DOUBLE_EQ(loop.periodPs[0], after_first);
}

TEST(Dpll, UpSlewSlowerThanDownSlew)
{
    // Safety asymmetry: the loop must shed frequency faster than it
    // gains it.
    const DpllParams params;
    EXPECT_GT(params.slewDownPerCount, params.slewUpPerCount);
}

TEST(Dpll, PeriodClampedToBounds)
{
    DpllBankSoa loop = oneLoop(170.0);
    double now = 0.0;
    for (int i = 0; i < 2000; ++i) {
        loop.observe(0, now, 20);
        now += loop.updateIntervalNs;
    }
    EXPECT_GE(loop.periodPs[0], loop.minPeriodPs - 1e-9);
}

TEST(Dpll, ConvergesToTargetMarginBand)
{
    // Closed-loop sanity: emulate a monitored delay of 210 ps and a
    // 1.5 ps inverter; the loop should settle with period in
    // [210 + 6, 210 + 7.5).
    DpllBankSoa loop = oneLoop(230.0);
    double now = 0.0;
    for (int i = 0; i < 4000; ++i) {
        const int margin = std::max(
            0, static_cast<int>((loop.periodPs[0] - 210.0) / 1.5));
        loop.observe(0, now, margin);
        now += loop.updateIntervalNs;
    }
    EXPECT_GE(loop.periodPs[0], 215.9);
    EXPECT_LT(loop.periodPs[0], 218.0);
}

TEST(Dpll, RejectsBadParams)
{
    DpllParams params;
    params.targetCounts = 1;
    params.emergencyCounts = 1;
    DpllBankSoa loops;
    EXPECT_THROW(loops.resize(1, params), util::FatalError);
    DpllParams bounds;
    bounds.minPeriod = Picoseconds{500.0};
    bounds.maxPeriod = Picoseconds{400.0};
    EXPECT_THROW(loops.resize(1, bounds), util::FatalError);
}

} // namespace
} // namespace atmsim::dpll
