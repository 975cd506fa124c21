#include "fault/fault_injector.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace atmsim::fault {

FaultInjector::FaultInjector(chip::Chip *target) : chip_(target)
{
    if (!target)
        util::panic("FaultInjector constructed with null chip");
}

void
FaultInjector::apply(const FaultSpec &spec)
{
    spec.validate(chip_->coreCount());
    switch (spec.kind) {
      case FaultKind::CpmStuckAt:
        chip_->core(spec.core).cpmBank().injectStuckOutput(
            spec.site, static_cast<int>(spec.magnitude));
        break;
      case FaultKind::CpmSkippedStep:
        chip_->core(spec.core).cpmBank().injectSkippedSegments(
            spec.site, static_cast<int>(spec.magnitude));
        break;
      case FaultKind::SensorDropout:
        chip_->setSensorDropout(spec.core);
        break;
      case FaultKind::VrmLoadStep:
        chip_->pdn().setFaultCurrentA(chip_->pdn().faultCurrentA()
                                      + util::Amps{spec.magnitude});
        break;
      case FaultKind::DroopStorm:
        storms_.push_back(spec);
        break;
      case FaultKind::AgingJump:
        chip_->scaleCoreSpeed(spec.core, 1.0 + spec.magnitude);
        break;
      case FaultKind::ThermalExcursion:
        chip_->thermal().setFaultOffsetC(
            spec.core,
            chip_->thermal().faultOffsetC(spec.core)
                + util::Celsius{spec.magnitude});
        break;
    }
    ++activeCount_;
    util::debug("fault applied: ", spec.format());
}

void
FaultInjector::revert(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::CpmStuckAt:
        chip_->core(spec.core).cpmBank().clearStuckOutput(spec.site);
        break;
      case FaultKind::CpmSkippedStep:
        chip_->core(spec.core).cpmBank().clearSkippedSegments(spec.site);
        break;
      case FaultKind::SensorDropout:
        chip_->clearSensorDropout(spec.core);
        break;
      case FaultKind::VrmLoadStep:
        chip_->pdn().setFaultCurrentA(chip_->pdn().faultCurrentA()
                                      - util::Amps{spec.magnitude});
        break;
      case FaultKind::DroopStorm:
        if (const auto it = std::find(storms_.begin(), storms_.end(), spec);
            it != storms_.end())
            storms_.erase(it);
        break;
      case FaultKind::AgingJump:
        chip_->scaleCoreSpeed(spec.core, 1.0 / (1.0 + spec.magnitude));
        break;
      case FaultKind::ThermalExcursion:
        chip_->thermal().setFaultOffsetC(
            spec.core,
            chip_->thermal().faultOffsetC(spec.core)
                - util::Celsius{spec.magnitude});
        break;
    }
    --activeCount_;
    util::debug("fault reverted: ", spec.format());
}

double
FaultInjector::stormCurrentA(int core, double now_ns) const
{
    double total = 0.0;
    for (const FaultSpec &storm : storms_) {
        if (storm.core != core)
            continue;
        // Square wave at the first-droop resonance: the bursts arrive
        // in phase with the grid's natural response, building up the
        // deepest excursions a given amplitude can produce.
        const double period_ns =
            1e9 / chip_->pdn().params().resonanceHz();
        const double phase =
            std::fmod(now_ns - storm.startNs(), period_ns) / period_ns;
        if (phase < 0.5)
            total += storm.magnitude;
    }
    return total;
}

} // namespace atmsim::fault
