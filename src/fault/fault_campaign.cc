#include "fault/fault_campaign.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace atmsim::fault {

void
FaultCampaign::add(const FaultSpec &spec)
{
    faults_.push_back(spec);
    phases_.push_back(Phase::Pending);
}

const FaultSpec &
FaultCampaign::spec(std::size_t index) const
{
    if (index >= faults_.size())
        util::fatal("fault campaign: index ", index, " out of range");
    return faults_[index];
}

void
FaultCampaign::validate(int core_count) const
{
    for (const FaultSpec &spec : faults_)
        spec.validate(core_count);

    // Overlapping thermal offsets on a core add (FaultInjector), so
    // the sum, not just each spec, must stay above -273.15 degC. The
    // sum only changes at a thermal fault's start or end: check there.
    const auto offset_at = [&](int core, double t_ns) {
        double sum = 0.0;
        for (const FaultSpec &f : faults_) {
            if (f.kind == FaultKind::ThermalExcursion && f.core == core
                && f.startNs() <= t_ns && t_ns < f.endNs())
                sum += f.magnitude;
        }
        return sum;
    };
    for (const FaultSpec &spec : faults_) {
        if (spec.kind != FaultKind::ThermalExcursion)
            continue;
        for (const double t_ns : {spec.startNs(), spec.endNs()}) {
            const double sum = offset_at(spec.core, t_ns);
            if (sum <= -273.15)
                util::fatal("overlapping thermal faults on core ", spec.core,
                            " sum to ", sum, " degC at ", t_ns * 1e-3,
                            " us; the offset must exceed -273.15 degC");
        }
    }
}

FaultCampaign
FaultCampaign::parse(const std::string &text)
{
    FaultCampaign campaign;
    std::istringstream specs(text);
    std::string one;
    while (std::getline(specs, one, ';')) {
        if (!one.empty())
            campaign.add(FaultSpec::parse(one));
    }
    return campaign;
}

void
FaultCampaign::reset()
{
    for (Phase &phase : phases_)
        phase = Phase::Pending;
}

void
FaultCampaign::collectActivations(double now_ns,
                                  std::vector<std::size_t> &out)
{
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        if (phases_[i] == Phase::Pending
            && now_ns >= faults_[i].startNs()) {
            phases_[i] = Phase::Active;
            out.push_back(i);
        }
    }
}

void
FaultCampaign::collectExpirations(double now_ns,
                                  std::vector<std::size_t> &out)
{
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        if (phases_[i] == Phase::Active && now_ns >= faults_[i].endNs()) {
            phases_[i] = Phase::Done;
            out.push_back(i);
        }
    }
}

double
FaultCampaign::nextEdgeNs() const
{
    double next = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        if (phases_[i] == Phase::Pending)
            next = std::min(next, faults_[i].startNs());
        else if (phases_[i] == Phase::Active)
            next = std::min(next, faults_[i].endNs());
    }
    return next;
}

} // namespace atmsim::fault
