#include <gtest/gtest.h>

#include <limits>
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
    EXPECT_NO_THROW(SafetyMonitor(&chip_, targets_));

    // One bad value per field; NaN fails every comparison, so each
    // check must be written to reject it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto rejects = [&](auto mutate, const char *what) {
        SafetyMonitorConfig bad;
        mutate(bad);
        EXPECT_THROW(SafetyMonitor(&chip_, targets_, bad),
                     util::FatalError)
            << what;
    };
    rejects([](auto &c) { c.stageIntervalUs = 0.0; }, "stage 0");
    rejects([&](auto &c) { c.stageIntervalUs = nan; }, "stage NaN");
    rejects([&](auto &c) { c.backoffBaseUs = nan; }, "backoff NaN");
    rejects([&](auto &c) { c.backoffBaseUs = inf; }, "backoff inf");
    rejects([](auto &c) { c.backoffBaseUs = -1.0; }, "backoff < 0");
    rejects([&](auto &c) { c.backoffMultiplier = nan; }, "mult NaN");
    rejects([](auto &c) { c.backoffMultiplier = 0.5; }, "mult < 1");
    rejects([](auto &c) { c.maxBackoffUs = 2.0; }, "max < base");
    rejects([&](auto &c) { c.maxBackoffUs = nan; }, "max NaN");
    rejects([](auto &c) { c.freqGuardFrac = -0.01; }, "guard < 0");
    rejects([&](auto &c) { c.freqGuardFrac = nan; }, "guard NaN");
    rejects([](auto &c) { c.stuckSampleWindow = 0; }, "window 0");
    rejects([](auto &c) { c.probePeriodFrac = 0.0; }, "probe 0");
    rejects([](auto &c) { c.probePeriodFrac = 0.25; }, "probe 0.25");
    rejects([&](auto &c) { c.probePeriodFrac = nan; }, "probe NaN");

    SafetyMonitorConfig edge;
    edge.backoffMultiplier = 1.0;
    edge.maxBackoffUs = edge.backoffBaseUs;
    edge.freqGuardFrac = 0.0;
    edge.stuckSampleWindow = 1;
    EXPECT_NO_THROW(SafetyMonitor(&chip_, targets_, edge));
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
    chip_.core(1).cpmBank().setFaults(2, {.stuckCount = 9});
    const int window = monitor.config().stuckSampleWindow;
    for (int s = 1; s <= window; ++s)
        sample(monitor, s * 100.0);
    EXPECT_GE(monitor.counters().anomalies, 1);
    EXPECT_EQ(monitor.state(1), CoreSafetyState::Quarantined);
    EXPECT_EQ(monitor.counters().quarantines, 1);
    chip_.core(1).cpmBank().setFaults(2, {});
}

TEST_F(SafetyMonitorTest, PhantomGuardTracksReductionTemperatureAndAging)
{
    // Each case gates every other core and runs its own monitor, so
    // the anomaly counter speaks for the core under test alone.
    const auto only = [&](int core) {
        for (int c = 0; c < chip_.coreCount(); ++c)
            chip_.core(c).setMode(chip::CoreMode::Gated);
        chip_.core(core).setMode(chip::CoreMode::AtmOverclock);
        chip_.core(core).setCpmReduction(util::CpmSteps{targets_[core]});
        chip_.resetClock(core, circuit::kVddNominal,
                         chip_.thermal().coreTempC(core));
    };
    // The guard's verdict computed afresh for the chip as it is.
    const auto fresh_verdict = [&](const SafetyMonitor &monitor,
                                   int core) {
        const chip::AtmCore &c = chip_.core(core);
        const double honest =
            c.silicon()
                .atmFrequencyMhz(c.cpmReduction(),
                                 chip_.delayModel().factor(
                                     circuit::kVddNominal,
                                     chip_.thermal().coreTempC(core)))
                .value();
        return chip_.frequencyMhz(core).value()
             > honest * (1.0 + monitor.config().freqGuardFrac);
    };
    // One sample; true when it raised an anomaly. A core that raised
    // none was checked in the state it is still in, so the fresh
    // verdict must clear it too.
    double now = 0.0;
    const auto anomaly_on_sample = [&](SafetyMonitor &monitor, int core) {
        const long before = monitor.counters().anomalies;
        now += 100.0;
        sample(monitor, now);
        const bool raised = monitor.counters().anomalies > before;
        if (!raised) {
            EXPECT_FALSE(fresh_verdict(monitor, core))
                << "core " << core << " at " << now << " ns";
        }
        return raised;
    };
    // Only the phantom-margin guard may fire: the stuck-sensor window
    // outlasts the test.
    SafetyMonitorConfig config;
    config.backoffBaseUs = 1.0;
    config.stageIntervalUs = 0.5;
    config.stuckSampleWindow = 1000;

    // Aging: a slower part lowers the honest bound under a clock that
    // stays where it was.
    const int aged = 0;
    only(aged);
    SafetyMonitor aging(&chip_, targets_, config);
    EXPECT_FALSE(anomaly_on_sample(aging, aged));
    chip_.setCoreSpeedFactor(
        aged, chip_.core(aged).silicon().speedFactor * 1.10);
    EXPECT_TRUE(fresh_verdict(aging, aged));
    EXPECT_TRUE(anomaly_on_sample(aging, aged));

    // Temperature: a thermal excursion does the same, under a guard
    // tight enough for a 60 C rise to clear it.
    const int heated = 1;
    only(heated);
    SafetyMonitorConfig tight = config;
    tight.freqGuardFrac = 0.01;
    SafetyMonitor thermal(&chip_, targets_, tight);
    EXPECT_FALSE(anomaly_on_sample(thermal, heated));
    chip_.thermal().setFaultOffsetC(heated, util::Celsius{60.0});
    EXPECT_TRUE(fresh_verdict(thermal, heated));
    EXPECT_TRUE(anomaly_on_sample(thermal, heated));

    // Reduction: a quarantine drops P0C3 to reduction 0, and re-entry
    // steps it back up with the clock; no step is phantom margin.
    const int staged = 3;
    only(staged);
    SafetyMonitor reentry(&chip_, targets_, config);
    reentry.onViolation(violation(staged, now));
    EXPECT_FALSE(anomaly_on_sample(reentry, staged));
    for (int i = 0; i < 100
                    && reentry.state(staged) != CoreSafetyState::Deployed;
         ++i) {
        EXPECT_FALSE(anomaly_on_sample(reentry, staged)) << "sample " << i;
    }
    EXPECT_EQ(reentry.state(staged), CoreSafetyState::Deployed);
    EXPECT_EQ(chip_.core(staged).cpmReduction().value(), targets_[staged]);
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
