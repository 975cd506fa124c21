#include "cpm/cpm_bank.h"

#include <algorithm>

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::cpm {

CpmBank::CpmBank(const variation::CoreSiliconParams *core,
                 const circuit::DelayModel *model)
    : core_(core)
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

const Cpm &
CpmBank::site(int index) const
{
    if (index < 0 || index >= static_cast<int>(sites_.size()))
        util::fatal("CPM site ", index, " out of range");
    return sites_[static_cast<std::size_t>(index)];
}

void
CpmBank::setFaults(int site, const CpmFaults &faults)
{
    if (site < 0 || site >= static_cast<int>(sites_.size()))
        util::fatal("CPM fault site ", site, " out of range");
    sites_[static_cast<std::size_t>(site)].setFaults(faults);
}

} // namespace atmsim::cpm
