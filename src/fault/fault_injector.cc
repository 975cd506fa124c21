#include "fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <ranges>

#include "util/logging.h"

namespace atmsim::fault {

FaultInjector::FaultInjector(chip::Chip *target) : chip_(target)
{
    if (!target)
        util::panic("FaultInjector constructed with null chip");
}

FaultInjector::~FaultInjector()
{
    // Writes back values read from the chip itself, so nothing fails.
    active_.clear();
    for (const Base &base : bases_)
        recompute(base.target);
}

FaultInjector::Target
FaultInjector::targetOf(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::CpmStuckAt:
      case FaultKind::CpmSkippedStep:
        return {FaultKind::CpmStuckAt, spec.core, spec.site};
      case FaultKind::DroopStorm:
        // One storm list serves every core.
        return {spec.kind, -1, 0};
      default:
        return {spec.kind, spec.core, 0};
    }
}

FaultInjector::Base
FaultInjector::baseOf(const Target &target) const
{
    Base base{};
    base.target = target;
    switch (target.kind) {
      case FaultKind::CpmStuckAt:
      case FaultKind::CpmSkippedStep:
        base.site =
            chip_->core(target.core).cpmBank().site(target.site).faults();
        break;
      case FaultKind::SensorDropout:
        base.dropped = chip_->sensorDropout(target.core);
        break;
      case FaultKind::VrmLoadStep:
        base.value = chip_->pdn().faultCurrentA().value();
        break;
      case FaultKind::DroopStorm:
        break;
      case FaultKind::AgingJump:
        base.value = chip_->core(target.core).silicon().speedFactor;
        break;
      case FaultKind::ThermalExcursion:
        base.value = chip_->thermal().faultOffsetC(target.core).value();
        break;
    }
    return base;
}

void
FaultInjector::recompute(const Target &target)
{
    const Base &base = *std::ranges::find(bases_, target, &Base::target);
    auto on = active_ | std::views::filter([&](const FaultSpec &spec) {
                        return targetOf(spec) == target;
                    });
    const auto fold = [&](auto combine) {
        double value = base.value;
        for (const FaultSpec &spec : on)
            value = combine(value, spec.magnitude);
        return value;
    };
    switch (target.kind) {
      case FaultKind::CpmStuckAt:
      case FaultKind::CpmSkippedStep: {
        cpm::CpmFaults site = base.site;
        for (const FaultSpec &spec : on) {
            const int count = static_cast<int>(spec.magnitude);
            if (spec.kind == FaultKind::CpmStuckAt)
                site.stuckCount = count;
            else
                site.skippedSegments = count;
        }
        chip_->core(target.core).cpmBank().setFaults(target.site, site);
        break;
      }
      case FaultKind::SensorDropout:
        chip_->setSensorDropout(target.core,
                                base.dropped || !std::ranges::empty(on));
        break;
      case FaultKind::VrmLoadStep:
        chip_->pdn().setFaultCurrentA(util::Amps{fold(std::plus<>())});
        break;
      case FaultKind::DroopStorm:
        storms_.assign(on.begin(), on.end());
        break;
      case FaultKind::AgingJump:
        chip_->setCoreSpeedFactor(
            target.core,
            fold([](double speed, double m) { return speed * (1.0 + m); }));
        break;
      case FaultKind::ThermalExcursion:
        chip_->thermal().setFaultOffsetC(target.core,
                                         util::Celsius{fold(std::plus<>())});
        break;
    }
}

void
FaultInjector::apply(const FaultSpec &spec)
{
    spec.validate(chip_->coreCount());
    const Target target = targetOf(spec);
    if (std::ranges::find(bases_, target, &Base::target) == bases_.end())
        bases_.push_back(baseOf(target));
    active_.push_back(spec);
    recompute(target);
    util::debug("fault applied: ", spec.format());
}

void
FaultInjector::revert(const FaultSpec &spec)
{
    const auto it = std::ranges::find(active_, spec);
    if (it == active_.end())
        util::panic("reverting a fault that is not active: ",
                    spec.format());
    active_.erase(it);
    recompute(targetOf(spec));
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
