#include "sim/run_result.h"

#include <sstream>

#include "util/logging.h"

namespace atmsim::sim {

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::AbnormalExit: return "abnormal-exit";
      case FailureKind::SilentDataCorruption: return "sdc";
      case FailureKind::SystemCrash: return "system-crash";
    }
    return "?";
}

void
SafetyCounters::print(std::ostream &os) const
{
    os << "emergencies=" << emergencies
       << " detected=" << detectedViolations
       << " silent=" << silentFailures
       << " anomalies=" << anomalies
       << " quarantines=" << quarantines
       << " fallbacks=" << fallbacks
       << " reentry-steps=" << reentrySteps
       << " recoveries=" << recoveries
       << " degraded-us=" << degradedTimeNs * 1e-3
       << '\n';
}

std::vector<std::pair<const char *, double>>
SafetyCounters::named() const
{
    return {
        {"safety.emergencies", static_cast<double>(emergencies)},
        {"safety.detected_violations",
         static_cast<double>(detectedViolations)},
        {"safety.silent_failures", static_cast<double>(silentFailures)},
        {"safety.anomalies", static_cast<double>(anomalies)},
        {"safety.quarantines", static_cast<double>(quarantines)},
        {"safety.fallbacks", static_cast<double>(fallbacks)},
        {"safety.reentry_steps", static_cast<double>(reentrySteps)},
        {"safety.recoveries", static_cast<double>(recoveries)},
        {"safety.degraded_time_ns", degradedTimeNs},
        {"safety.dropped_violation_events",
         static_cast<double>(droppedViolationEvents)},
    };
}

double
RunResult::stepsPerSecond() const
{
    if (steps <= 0 || wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(steps) / wallSeconds;
}

long
RunResult::totalViolations() const
{
    long total = 0;
    for (const CoreRunStats &cs : coreStats)
        total += cs.violations;
    return total;
}

double
RunResult::meanFreqMhz(int core) const
{
    if (core < 0 || core >= static_cast<int>(coreStats.size()))
        util::fatal("meanFreqMhz: core ", core, " out of range");
    return coreStats[static_cast<std::size_t>(core)].freqMhz.mean();
}

std::uint64_t
digest(const RunResult &result)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << result.durationNs << '|' << result.steps << '|'
       << result.stoppedEarly << '|' << result.maxCoreTempC << '|'
       << result.minGridV << '|' << result.chipPowerW.count() << ' '
       << result.chipPowerW.mean() << ' ' << result.chipPowerW.m2();
    for (const CoreRunStats &cs : result.coreStats) {
        os << '|' << cs.freqMhz.count() << ' ' << cs.freqMhz.mean()
           << ' ' << cs.freqMhz.m2() << ' ' << cs.voltageV.mean()
           << ' ' << cs.voltageV.m2() << ' ' << cs.minVoltageV << ' '
           << cs.emergencies << ' ' << cs.violations;
    }
    for (const ViolationEvent &ev : result.violations) {
        os << '|' << ev.timeNs << ' ' << ev.core << ' ' << ev.deficitPs
           << ' ' << static_cast<int>(ev.kind) << ' ' << ev.detected;
    }
    for (const auto &[name, value] : result.safety.named())
        os << '|' << name << '=' << value;

    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    for (const char ch : os.str()) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL; // FNV-1a prime
    }
    return hash;
}

} // namespace atmsim::sim
