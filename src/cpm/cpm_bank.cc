#include "cpm/cpm_bank.h"

#include <algorithm>

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::cpm {

CpmBank::CpmBank(const variation::CoreSiliconParams *core,
                 const circuit::DelayModel *model)
    : core_(core), model_(model)
{
    if (!core)
        util::panic("CpmBank constructed with null core");
    sites_.reserve(circuit::kCpmSitesPerCore);
    for (int s = 0; s < circuit::kCpmSitesPerCore; ++s)
        sites_.emplace_back(core, model, s);
}

void
CpmBank::setReduction(CpmSteps steps)
{
    if (steps < CpmSteps{0})
        util::fatal("CPM reduction must be non-negative, got ",
                    steps.value());
    if (steps.value() > core_->presetSteps) {
        util::fatal("CPM reduction ", steps.value(), " exceeds preset ",
                    core_->presetSteps, " on core ", core_->name);
    }
    for (auto &site : sites_) {
        const int preset = core_->presetSteps
                         + core_->siteOffsets[site.siteIndex()];
        const int cfg = std::clamp(preset - steps.value(), 0,
                                   core_->maxConfig().value());
        site.setConfigSteps(CpmSteps{cfg});
    }
    reduction_ = steps;
}

Picoseconds
CpmBank::worstMonitoredDelayPs(Volts v, Celsius t) const
{
    const double f = model_->factor(v, t);
    Picoseconds worst = sites_.front().monitoredDelayPs(f);
    for (std::size_t s = 1; s < sites_.size(); ++s)
        worst = std::max(worst, sites_[s].monitoredDelayPs(f));
    return worst;
}

const Cpm &
CpmBank::site(int index) const
{
    if (index < 0 || index >= static_cast<int>(sites_.size()))
        util::fatal("CPM site ", index, " out of range");
    return sites_[static_cast<std::size_t>(index)];
}

void
CpmBank::injectStuckOutput(int site, int count)
{
    if (site < 0 || site >= static_cast<int>(sites_.size()))
        util::fatal("CPM fault site ", site, " out of range");
    sites_[static_cast<std::size_t>(site)].injectStuckOutput(count);
}

void
CpmBank::injectSkippedSegments(int site, int segments)
{
    if (site < 0 || site >= static_cast<int>(sites_.size()))
        util::fatal("CPM fault site ", site, " out of range");
    sites_[static_cast<std::size_t>(site)].injectSkippedSegments(segments);
}

void
CpmBank::clearFaults()
{
    for (auto &s : sites_)
        s.clearFaults();
}

void
CpmBank::exportSoa(double *nominal_speed, int *stuck_counts) const
{
    for (std::size_t s = 0; s < sites_.size(); ++s) {
        nominal_speed[s] = sites_[s].nominalPs() * core_->speedFactor;
        stuck_counts[s] =
            sites_[s].stuckActive() ? sites_[s].stuckOutputCount() : -1;
    }
}

bool
CpmBank::anyFaulted() const
{
    for (const auto &s : sites_) {
        if (s.faulted())
            return true;
    }
    return false;
}

} // namespace atmsim::cpm
