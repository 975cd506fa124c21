#include "cpm/cpm.h"

#include <algorithm>

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::cpm {

const char *
cpmSiteName(CpmSite site)
{
    switch (site) {
      case CpmSite::Ifu: return "IFU";
      case CpmSite::Isu: return "ISU";
      case CpmSite::Fxu: return "FXU";
      case CpmSite::Fpu: return "FPU";
      case CpmSite::Llc: return "LLC";
    }
    return "?";
}

Cpm::Cpm(const variation::CoreSiliconParams *core,
         const circuit::DelayModel *model, int site_index)
    : core_(core), model_(model),
      chain_(circuit::kInverterStep, 24), siteIndex_(site_index)
{
    if (!core || !model)
        util::panic("Cpm constructed with null core or model");
    if (site_index < 0 || site_index >= circuit::kCpmSitesPerCore)
        util::fatal("CPM site index ", site_index, " out of range");
    configSteps_ = std::min(CpmSteps{core_->presetSteps
                                     + core_->siteOffsets[site_index]},
                            core_->maxConfig());
    if (site_index == 0) {
        synthScale_ = 1.0;
    } else {
        // Non-controlling sites sit at faster corners. Their local
        // paths are enough faster that, at any uniform reduction, the
        // extra preset offset never makes them report less slack than
        // the controlling site 0.
        const int offset = core_->siteOffsets[site_index];
        const int max_cfg = core_->maxConfig().value();
        double max_gap = 0.0;
        for (int k = 0; k <= core_->presetSteps; ++k) {
            const int site_cfg = std::clamp(core_->presetSteps + offset - k,
                                            0, max_cfg);
            const int base_cfg = std::clamp(core_->presetSteps - k, 0,
                                            max_cfg);
            max_gap = std::max(
                max_gap,
                (core_->insertedDelayPs(CpmSteps{site_cfg})
                 - core_->insertedDelayPs(CpmSteps{base_cfg})).value());
        }
        synthScale_ = 1.0 - (max_gap + 2.0 + 0.4 * site_index)
                    / core_->synthPathPs;
    }
    refreshNominal();
}

void
Cpm::refreshNominal()
{
    const CpmSteps effective =
        std::max(configSteps_ - CpmSteps{faults_.skippedSegments},
                 CpmSteps{0});
    nominalPs_ = core_->synthPathPs * synthScale_
               + core_->insertedDelayPs(effective).value();
}

void
Cpm::setConfigSteps(CpmSteps steps)
{
    if (steps < CpmSteps{0} || steps > core_->maxConfig()) {
        util::fatal("CPM config ", steps.value(), " outside [0, ",
                    core_->maxConfig().value(), "] on core ", core_->name);
    }
    configSteps_ = steps;
    refreshNominal();
}

Picoseconds
Cpm::monitoredDelayPs(Volts v, Celsius t) const
{
    return monitoredDelayPs(model_->factor(v, t));
}

Picoseconds
Cpm::monitoredDelayPs(double delay_factor) const
{
    return Picoseconds{nominalPs_ * core_->speedFactor * delay_factor};
}

int
Cpm::outputCount(Picoseconds period, Volts v, Celsius t) const
{
    if (stuckActive())
        return stuckOutputCount();
    const double delay_factor = model_->factor(v, t);
    return chain_.quantize(period - monitoredDelayPs(delay_factor),
                           delay_factor * core_->speedFactor);
}

void
Cpm::setFaults(const CpmFaults &faults)
{
    if (faults.stuckCount.value_or(0) < 0)
        util::fatal("stuck CPM output must be non-negative, got ",
                    *faults.stuckCount);
    if (faults.skippedSegments < 0)
        util::fatal("skipped CPM segments must be non-negative, got ",
                    faults.skippedSegments);
    faults_ = faults;
    refreshNominal();
}

} // namespace atmsim::cpm
