#include "core/safety_monitor.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::core {

const char *
coreSafetyStateName(CoreSafetyState state)
{
    switch (state) {
      case CoreSafetyState::Deployed: return "deployed";
      case CoreSafetyState::Quarantined: return "quarantined";
      case CoreSafetyState::Fallback: return "fallback";
      case CoreSafetyState::Reentry: return "reentry";
    }
    return "?";
}

SafetyMonitor::SafetyMonitor(chip::Chip *target,
                             std::vector<int> target_reductions,
                             const SafetyMonitorConfig &config)
    : chip_(target), config_(config)
{
    if (!chip_)
        util::panic("SafetyMonitor constructed with null chip");
    if (static_cast<int>(target_reductions.size()) != chip_->coreCount())
        util::fatal("SafetyMonitor: ", target_reductions.size(),
                    " target reductions for ", chip_->coreCount(),
                    " cores");
    // Each test is written so that NaN fails it: every comparison with
    // NaN is false, and a NaN deadline would never expire.
    if (!(std::isfinite(config_.backoffBaseUs)
          && config_.backoffBaseUs > 0.0))
        util::fatal("SafetyMonitor: backoffBaseUs must be positive and"
                    " finite, got ", config_.backoffBaseUs);
    if (!(std::isfinite(config_.backoffMultiplier)
          && config_.backoffMultiplier >= 1.0))
        util::fatal("SafetyMonitor: backoffMultiplier must be >= 1, got ",
                    config_.backoffMultiplier);
    if (!(std::isfinite(config_.maxBackoffUs)
          && config_.maxBackoffUs >= config_.backoffBaseUs))
        util::fatal("SafetyMonitor: maxBackoffUs ", config_.maxBackoffUs,
                    " below backoffBaseUs ", config_.backoffBaseUs);
    if (!(std::isfinite(config_.stageIntervalUs)
          && config_.stageIntervalUs > 0.0))
        util::fatal("SafetyMonitor: stageIntervalUs must be positive and"
                    " finite, got ", config_.stageIntervalUs);
    if (!(std::isfinite(config_.freqGuardFrac)
          && config_.freqGuardFrac >= 0.0))
        util::fatal("SafetyMonitor: freqGuardFrac must be non-negative,"
                    " got ", config_.freqGuardFrac);
    if (config_.stuckSampleWindow < 1)
        util::fatal("SafetyMonitor: stuckSampleWindow must be >= 1, got ",
                    config_.stuckSampleWindow);
    // At 0 every healthy site reads the same at both probes; at 0.25
    // the short probe period reaches 0.
    if (!(config_.probePeriodFrac > 0.0 && config_.probePeriodFrac < 0.25))
        util::fatal("SafetyMonitor: probePeriodFrac must lie in (0, 0.25),"
                    " got ", config_.probePeriodFrac);
    cores_.resize(target_reductions.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (target_reductions[i] < 0)
            util::fatal("SafetyMonitor: negative target reduction for"
                        " core ", i);
        cores_[i].target = target_reductions[i];
        cores_[i].current = target_reductions[i];
        cores_[i].backoffUs = config_.backoffBaseUs;
    }
}

void
SafetyMonitor::rearm()
{
    for (CoreState &cs : cores_) {
        const int target = cs.target;
        cs = CoreState{};
        cs.target = target;
        cs.current = target;
        cs.backoffUs = config_.backoffBaseUs;
    }
    counters_ = sim::SafetyCounters{};
}

CoreSafetyState
SafetyMonitor::state(int core) const
{
    if (core < 0 || core >= static_cast<int>(cores_.size()))
        util::fatal("SafetyMonitor::state: core ", core,
                    " out of range");
    return cores_[static_cast<std::size_t>(core)].state;
}

double
SafetyMonitor::backoffUs(int core) const
{
    if (core < 0 || core >= static_cast<int>(cores_.size()))
        util::fatal("SafetyMonitor::backoffUs: core ", core,
                    " out of range");
    return cores_[static_cast<std::size_t>(core)].backoffUs;
}

void
SafetyMonitor::setObservability(const obs::Observability &sinks)
{
    obs_ = sinks;
    traceTrack_ =
        obs_.trace ? obs_.trace->track("safety_monitor") : -1;
    quarantineCounter_ = nullptr;
    fallbackCounter_ = nullptr;
    recoveryCounter_ = nullptr;
    anomalyCounter_ = nullptr;
    if (obs_.metrics) {
        quarantineCounter_ =
            &obs_.metrics->counter("safety_monitor.quarantine");
        fallbackCounter_ =
            &obs_.metrics->counter("safety_monitor.fallback");
        recoveryCounter_ =
            &obs_.metrics->counter("safety_monitor.recovery");
        anomalyCounter_ =
            &obs_.metrics->counter("safety_monitor.anomaly");
    }
}

void
SafetyMonitor::note(obs::Counter *counter, const char *transition,
                    obs::FlightEventKind kind, int core, double now_ns)
{
    if (counter)
        counter->inc();
    if (obs_.trace)
        obs_.trace->instant(transition, traceTrack_, now_ns, core);
    if (obs_.flight)
        obs_.flight->record(core, kind, now_ns);
}

void
SafetyMonitor::markDegraded(CoreState &cs, double now_ns)
{
    if (cs.degradedSinceNs < 0.0)
        cs.degradedSinceNs = now_ns;
}

void
SafetyMonitor::restartAtm(int core, int reduction)
{
    chip::AtmCore &c = chip_->core(core);
    c.setMode(chip::CoreMode::AtmOverclock);
    c.setCpmReduction(util::CpmSteps{reduction});
    chip_->resetClock(core, chip_->pdn().coreV(core),
                      chip_->thermal().coreTempC(core));
}

void
SafetyMonitor::quarantine(int core, double now_ns)
{
    CoreState &cs = cores_[static_cast<std::size_t>(core)];
    markDegraded(cs, now_ns);
    cs.current = 0;
    restartAtm(core, 0);
    cs.state = CoreSafetyState::Quarantined;
    cs.deadlineNs = now_ns + cs.backoffUs * 1e3;
    cs.insensitiveSamples = 0;
    ++counters_.quarantines;
    note(quarantineCounter_, "quarantine",
         obs::FlightEventKind::Quarantine, core, now_ns);
}

void
SafetyMonitor::escalate(int core, double now_ns)
{
    CoreState &cs = cores_[static_cast<std::size_t>(core)];
    markDegraded(cs, now_ns);
    chip::AtmCore &c = chip_->core(core);
    c.setMode(chip::CoreMode::FixedFrequency);
    c.setFixedFrequencyMhz(circuit::kStaticMarginMhz);
    chip_->resetClock(core, chip_->pdn().coreV(core),
                      chip_->thermal().coreTempC(core));
    cs.state = CoreSafetyState::Fallback;
    cs.backoffUs = std::min(cs.backoffUs * config_.backoffMultiplier,
                            config_.maxBackoffUs);
    cs.deadlineNs = now_ns + cs.backoffUs * 1e3;
    cs.insensitiveSamples = 0;
    ++counters_.fallbacks;
    note(fallbackCounter_, "fallback", obs::FlightEventKind::Fallback,
         core, now_ns);
}

void
SafetyMonitor::demote(int core, double now_ns)
{
    if (core < 0 || core >= static_cast<int>(cores_.size()))
        util::fatal("SafetyMonitor: violation on core ", core,
                    " out of range");
    CoreState &cs = cores_[static_cast<std::size_t>(core)];
    switch (cs.state) {
      case CoreSafetyState::Deployed:
        // First strike: pull back to the factory-default ATM
        // configuration, which keeps the full inserted-delay margin.
        quarantine(core, now_ns);
        break;
      case CoreSafetyState::Quarantined:
      case CoreSafetyState::Reentry:
        // The safe default also misbehaved (or re-entry was
        // premature): the sensor itself cannot be trusted, so turn
        // ATM off entirely and park at the static-margin p-state.
        escalate(core, now_ns);
        break;
      case CoreSafetyState::Fallback:
        // A strike at static margin should not happen (ATM is off);
        // keep waiting with a fresh, longer backoff.
        escalate(core, now_ns);
        break;
    }
}

// The violation callback runs inside the engine's timing-race pass.
// atmlint: contract(engine_step)
bool
SafetyMonitor::onViolation(const sim::ViolationEvent &event)
{
    demote(event.core, event.timeNs);
    return true;
}

// Runs every stats cadence inside the step loop.
// atmlint: contract(engine_step)
void
SafetyMonitor::onSample(util::Nanoseconds now,
                        const std::vector<sim::CoreSample> &cores)
{
    (void)cores; // The monitor reads the chip sensors directly.
    const double now_ns = now.value();
    const int n = chip_->coreCount();
    for (int core = 0; core < n; ++core) {
        CoreState &cs = cores_[static_cast<std::size_t>(core)];
        chip::AtmCore &c = chip_->core(core);
        if (c.mode() == chip::CoreMode::Gated)
            continue;

        // --- Recovery timers.
        if (cs.state == CoreSafetyState::Fallback
            && now_ns >= cs.deadlineNs) {
            // Backoff expired: probe the sensor at the safe default.
            cs.current = 0;
            restartAtm(core, 0);
            cs.state = CoreSafetyState::Quarantined;
            cs.deadlineNs = now_ns + config_.stageIntervalUs * 1e3;
            cs.insensitiveSamples = 0;
        } else if (cs.state == CoreSafetyState::Quarantined
                   && now_ns >= cs.deadlineNs) {
            cs.state = CoreSafetyState::Reentry;
            cs.deadlineNs = now_ns;
        }
        if (cs.state == CoreSafetyState::Reentry
            && now_ns >= cs.deadlineNs) {
            if (cs.current < cs.target) {
                // One CPM step per stage back toward the fine-tuned
                // limit; any strike along the way escalates.
                ++cs.current;
                restartAtm(core, cs.current);
                cs.deadlineNs = now_ns + config_.stageIntervalUs * 1e3;
                ++counters_.reentrySteps;
            } else {
                // Survived a full stage at the target: recovered.
                cs.state = CoreSafetyState::Deployed;
                cs.backoffUs = config_.backoffBaseUs;
                if (cs.degradedSinceNs >= 0.0) {
                    counters_.degradedTimeNs +=
                        now_ns - cs.degradedSinceNs;
                    cs.degradedSinceNs = -1.0;
                }
                ++counters_.recoveries;
                note(recoveryCounter_, "recovery",
                     obs::FlightEventKind::Recovery, core, now_ns);
            }
        }

        // --- Anomaly detection (only meaningful while ATM drives the
        // clock; in Fallback the DPLL is out of the loop).
        if (c.mode() != chip::CoreMode::AtmOverclock)
            continue;
        const util::Volts v = chip_->pdn().coreV(core);
        const util::Celsius t_c = chip_->thermal().coreTempC(core);
        const double speed = c.silicon().speedFactor;
        bool anomaly = false;

        // Phantom-margin guard: the analytic steady state at nominal
        // supply bounds how fast an honest ATM loop runs for the
        // programmed reduction (droops only ever slow it down, and
        // overshoot above nominal is millivolts). Clearing it means
        // the loop is acting on margin that is not really there. The
        // bound is recomputed only when one of its mid-run inputs
        // moves: the reduction, the temperature, or the silicon speed
        // (aging faults set it through Chip::setCoreSpeedFactor).
        const int reduction = c.cpmReduction().value();
        const double temp = t_c.value();
        // atmlint: allow(float-equality) -- memo key: exact repeat of
        // the inputs.
        const bool moved = temp != cs.honestTempC || speed != cs.honestSpeed;
        if (moved || reduction != cs.honestReduction) {
            cs.honestReduction = reduction;
            cs.honestTempC = temp;
            cs.honestSpeed = speed;
            cs.honestMhz =
                c.silicon()
                    .atmFrequencyMhz(
                        c.cpmReduction(),
                        chip_->delayModel().nominalSupplyFactor(t_c))
                    .value();
        }
        if (chip_->frequencyMhz(core).value()
            > cs.honestMhz * (1.0 + config_.freqGuardFrac))
            anomaly = true;

        // Stuck-sensor guard: probe every site at a slightly longer
        // and a much shorter period. The short probe removes several
        // chain-lengths of slack, so a healthy site must lose counts
        // there -- even one saturated at the chain length under the
        // long probe -- while a pinned latch reads the same at both.
        // Probes agreeing at zero (a deep droop eating all slack) are
        // excluded: a canary stuck at zero only drags the loop slow,
        // a performance fault rather than a safety hazard. The probe
        // reads the bank in place, the engine's own quantizer, so
        // fault edges need no refresh.
        const util::Picoseconds period = chip_->periodPs(core);
        const util::Picoseconds slow_ps =
            period * (1.0 + config_.probePeriodFrac);
        const util::Picoseconds fast_ps =
            period * (1.0 - 4.0 * config_.probePeriodFrac);
        // The probe runs over the delay-factor bracket first, as the
        // engine's CPM scan does; only an undecided verdict pays for
        // the exact factor.
        const cpm::CpmBank &bank = c.cpmBank();
        const std::optional<bool> bracketed = bank.probeInsensitiveBracket(
            slow_ps.value(), fast_ps.value(),
            chip_->delayModel().factorBracket(v, t_c));
        if (bracketed.has_value()
                ? *bracketed
                : bank.probeInsensitive(slow_ps.value(), fast_ps.value(),
                                        chip_->delayModel().factor(v, t_c))) {
            if (++cs.insensitiveSamples >= config_.stuckSampleWindow)
                anomaly = true;
        } else {
            cs.insensitiveSamples = 0;
        }

        if (anomaly) {
            ++counters_.anomalies;
            note(anomalyCounter_, "anomaly",
                 obs::FlightEventKind::Anomaly, core, now_ns);
            cs.insensitiveSamples = 0;
            demote(core, now_ns);
        }
    }
}

void
SafetyMonitor::finish(util::Nanoseconds end,
                      sim::SafetyCounters &counters)
{
    const double end_ns = end.value();
    // Close any still-open degraded windows against the end of the run.
    for (CoreState &cs : cores_) {
        if (cs.degradedSinceNs >= 0.0) {
            counters_.degradedTimeNs += end_ns - cs.degradedSinceNs;
            cs.degradedSinceNs = end_ns;
        }
    }
    counters.anomalies += counters_.anomalies;
    counters.quarantines += counters_.quarantines;
    counters.fallbacks += counters_.fallbacks;
    counters.reentrySteps += counters_.reentrySteps;
    counters.recoveries += counters_.recoveries;
    counters.degradedTimeNs += counters_.degradedTimeNs;
}

} // namespace atmsim::core
