#include <gtest/gtest.h>

#include <vector>

#include "circuit/constants.h"
#include "core/safety_monitor.h"
#include "util/logging.h"
#include "variation/reference_chips.h"

namespace atmsim::core {
namespace {

class SafetyMonitorTest : public ::testing::Test
{
  protected:
    SafetyMonitorTest() : chip_(variation::makeReferenceChip(0))
    {
        // Deploy the fine-tuned (thread-worst) limits and start every
        // clock at its honest steady state, as an engine run would.
        for (int c = 0; c < chip_.coreCount(); ++c) {
            targets_.push_back(variation::referenceTargets(0, c).worst);
            chip_.core(c).setCpmReduction(util::CpmSteps{targets_.back()});
            chip_.resetClock(c, circuit::kVddNominal,
                             chip_.thermal().coreTempC(c));
        }
    }

    static sim::ViolationEvent violation(int core, double t_ns)
    {
        sim::ViolationEvent ev;
        ev.timeNs = t_ns;
        ev.core = core;
        ev.deficitPs = 3.0;
        ev.kind = sim::FailureKind::SilentDataCorruption;
        return ev;
    }

    /** Drive one observer sample; the monitor reads the chip, so an
     *  empty frame suffices. */
    static void sample(SafetyMonitor &monitor, double t_ns)
    {
        monitor.onSample(util::Nanoseconds{t_ns}, {});
    }

    chip::Chip chip_;
    std::vector<int> targets_;
};

TEST_F(SafetyMonitorTest, ConstructionValidates)
{
    EXPECT_THROW(SafetyMonitor(nullptr, targets_), util::PanicError);
    std::vector<int> wrong_size(3, 0);
    EXPECT_THROW(SafetyMonitor(&chip_, wrong_size), util::FatalError);
    std::vector<int> negative = targets_;
    negative[0] = -1;
    EXPECT_THROW(SafetyMonitor(&chip_, negative), util::FatalError);
    SafetyMonitorConfig bad;
    bad.stageIntervalUs = 0.0;
    EXPECT_THROW(SafetyMonitor(&chip_, targets_, bad),
                 util::FatalError);
}

TEST_F(SafetyMonitorTest, FirstStrikeQuarantinesOnlyThatCore)
{
    SafetyMonitor monitor(&chip_, targets_);
    EXPECT_TRUE(monitor.onViolation(violation(2, 1000.0)));
    EXPECT_EQ(monitor.state(2), CoreSafetyState::Quarantined);
    EXPECT_EQ(chip_.core(2).cpmReduction().value(), 0);
    EXPECT_EQ(chip_.core(2).mode(), chip::CoreMode::AtmOverclock);
    EXPECT_EQ(monitor.counters().quarantines, 1);
    for (int c = 0; c < chip_.coreCount(); ++c) {
        if (c == 2)
            continue;
        EXPECT_EQ(monitor.state(c), CoreSafetyState::Deployed);
        EXPECT_EQ(chip_.core(c).cpmReduction().value(), targets_[c]);
    }
}

TEST_F(SafetyMonitorTest, SecondStrikeFallsBackToStaticMargin)
{
    SafetyMonitor monitor(&chip_, targets_);
    const double base = monitor.config().backoffBaseUs;
    monitor.onViolation(violation(2, 1000.0));
    monitor.onViolation(violation(2, 1200.0));
    EXPECT_EQ(monitor.state(2), CoreSafetyState::Fallback);
    EXPECT_EQ(chip_.core(2).mode(), chip::CoreMode::FixedFrequency);
    EXPECT_DOUBLE_EQ(chip_.core(2).fixedFrequencyMhz().value(),
                     circuit::kStaticMarginMhz.value());
    EXPECT_EQ(monitor.counters().fallbacks, 1);
    EXPECT_DOUBLE_EQ(monitor.backoffUs(2),
                     base * monitor.config().backoffMultiplier);
}

TEST_F(SafetyMonitorTest, HealthyCoresRaiseNoAnomalies)
{
    SafetyMonitor monitor(&chip_, targets_);
    for (int s = 1; s <= 10; ++s)
        sample(monitor, s * 100.0);
    EXPECT_EQ(monitor.counters().anomalies, 0);
    EXPECT_EQ(monitor.counters().quarantines, 0);
    for (int c = 0; c < chip_.coreCount(); ++c)
        EXPECT_EQ(monitor.state(c), CoreSafetyState::Deployed);
}

TEST_F(SafetyMonitorTest, StagedReentryRestoresFineTunedLimits)
{
    SafetyMonitorConfig config;
    config.backoffBaseUs = 1.0;
    config.stageIntervalUs = 0.5;
    SafetyMonitor monitor(&chip_, targets_, config);

    // P0C3 carries one of the deepest fine-tuned reductions.
    const int core = 3;
    ASSERT_GE(targets_[core], 2);
    monitor.onViolation(violation(core, 0.0));
    EXPECT_EQ(chip_.core(core).cpmReduction().value(), 0);

    sample(monitor, 900.0); // backoff not yet expired
    EXPECT_EQ(monitor.state(core), CoreSafetyState::Quarantined);

    // Backoff expiry starts re-entry: one CPM step per stage.
    double now = 1000.0;
    sample(monitor, now);
    EXPECT_EQ(monitor.state(core), CoreSafetyState::Reentry);
    EXPECT_EQ(chip_.core(core).cpmReduction().value(), 1);
    for (int step = 2; step <= targets_[core]; ++step) {
        now += 500.0;
        sample(monitor, now);
        EXPECT_EQ(chip_.core(core).cpmReduction().value(), step);
    }
    // One full stage at the target, then the core is deployed again.
    now += 500.0;
    sample(monitor, now);
    EXPECT_EQ(monitor.state(core), CoreSafetyState::Deployed);
    EXPECT_EQ(chip_.core(core).cpmReduction().value(), targets_[core]);
    EXPECT_EQ(monitor.counters().recoveries, 1);
    EXPECT_EQ(monitor.counters().reentrySteps, targets_[core]);
    EXPECT_DOUBLE_EQ(monitor.backoffUs(core), config.backoffBaseUs);
    EXPECT_DOUBLE_EQ(monitor.counters().degradedTimeNs, now);
}

TEST_F(SafetyMonitorTest, FallbackProbesAfterBackoff)
{
    SafetyMonitorConfig config;
    config.backoffBaseUs = 1.0;
    config.stageIntervalUs = 0.5;
    SafetyMonitor monitor(&chip_, targets_, config);
    monitor.onViolation(violation(1, 0.0));
    monitor.onViolation(violation(1, 100.0)); // escalate at t=100
    EXPECT_EQ(monitor.state(1), CoreSafetyState::Fallback);

    // Doubled backoff: 2 us from the escalation.
    sample(monitor, 2000.0);
    EXPECT_EQ(monitor.state(1), CoreSafetyState::Fallback);
    sample(monitor, 2100.0);
    EXPECT_EQ(monitor.state(1), CoreSafetyState::Quarantined);
    EXPECT_EQ(chip_.core(1).mode(), chip::CoreMode::AtmOverclock);
    EXPECT_EQ(chip_.core(1).cpmReduction().value(), 0);
}

TEST_F(SafetyMonitorTest, StuckSensorCaughtWithoutAViolation)
{
    SafetyMonitor monitor(&chip_, targets_);
    chip_.core(1).cpmBank().injectStuckOutput(2, 9);
    const int window = monitor.config().stuckSampleWindow;
    for (int s = 1; s <= window; ++s)
        sample(monitor, s * 100.0);
    EXPECT_GE(monitor.counters().anomalies, 1);
    EXPECT_EQ(monitor.state(1), CoreSafetyState::Quarantined);
    EXPECT_EQ(monitor.counters().quarantines, 1);
    chip_.core(1).cpmBank().clearFaults();
}

TEST_F(SafetyMonitorTest, FinishMergesCountersAndDegradedTime)
{
    SafetyMonitor monitor(&chip_, targets_);
    monitor.onViolation(violation(0, 1000.0));
    sim::SafetyCounters counters;
    monitor.finish(util::Nanoseconds{5000.0}, counters);
    EXPECT_EQ(counters.quarantines, 1);
    EXPECT_DOUBLE_EQ(counters.degradedTimeNs, 4000.0);
}

TEST_F(SafetyMonitorTest, RearmForgetsHistory)
{
    SafetyMonitor monitor(&chip_, targets_);
    monitor.onViolation(violation(0, 1000.0));
    monitor.onViolation(violation(0, 1100.0));
    monitor.rearm();
    EXPECT_EQ(monitor.state(0), CoreSafetyState::Deployed);
    EXPECT_EQ(monitor.counters().quarantines, 0);
    EXPECT_DOUBLE_EQ(monitor.backoffUs(0),
                     monitor.config().backoffBaseUs);
    EXPECT_THROW((void)monitor.state(99), util::FatalError);
}

TEST(CoreSafetyStateNames, Printable)
{
    EXPECT_STREQ(coreSafetyStateName(CoreSafetyState::Deployed),
                 "deployed");
    EXPECT_STREQ(coreSafetyStateName(CoreSafetyState::Quarantined),
                 "quarantined");
    EXPECT_STREQ(coreSafetyStateName(CoreSafetyState::Fallback),
                 "fallback");
    EXPECT_STREQ(coreSafetyStateName(CoreSafetyState::Reentry),
                 "reentry");
}

} // namespace
} // namespace atmsim::core
