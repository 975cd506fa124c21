#include "dpll/dpll.h"

#include <algorithm>

#include "util/logging.h"

namespace atmsim::dpll {

Dpll::Dpll(const DpllParams &params) : params_(params)
{
    if (params_.targetCounts <= params_.emergencyCounts)
        util::fatal("DPLL target must exceed the emergency threshold");
    if (params_.minPeriod >= params_.maxPeriod)
        util::fatal("DPLL period bounds inverted");
}

void
Dpll::reset(Picoseconds period)
{
    period_ = period;
    clampPeriod();
    lastUpdate_ = Nanoseconds{-1e18};
    lastEmergency_ = Nanoseconds{-1e18};
    emergencies_ = 0;
    slewDowns_ = 0;
    slewUps_ = 0;
    heldMargin_ = 0;
    heldValid_ = false;
}

void
Dpll::setSensorDropout(bool active)
{
    dropout_ = active;
}

DpllState
Dpll::exportState() const
{
    DpllState state;
    state.periodPs = period_.value();
    state.lastUpdateNs = lastUpdate_.value();
    state.lastEmergencyNs = lastEmergency_.value();
    state.emergencies = emergencies_;
    state.slewDowns = slewDowns_;
    state.slewUps = slewUps_;
    state.heldMargin = heldMargin_;
    state.heldValid = heldValid_;
    state.dropout = dropout_;
    return state;
}

void
Dpll::importState(const DpllState &state)
{
    period_ = Picoseconds{state.periodPs};
    lastUpdate_ = Nanoseconds{state.lastUpdateNs};
    lastEmergency_ = Nanoseconds{state.lastEmergencyNs};
    emergencies_ = state.emergencies;
    slewDowns_ = state.slewDowns;
    slewUps_ = state.slewUps;
    heldMargin_ = state.heldMargin;
    heldValid_ = state.heldValid;
    dropout_ = state.dropout;
}

void
DpllBankSoa::resize(std::size_t cores, const DpllParams &params)
{
    periodPs.assign(cores, 250.0);
    lastUpdateNs.assign(cores, -1e18);
    lastEmergencyNs.assign(cores, -1e18);
    emergencies.assign(cores, 0);
    slewDowns.assign(cores, 0);
    slewUps.assign(cores, 0);
    heldMargin.assign(cores, 0);
    heldValid.assign(cores, 0);
    dropout.assign(cores, 0);
    adjustments = 0;

    updateIntervalNs = params.updateInterval.value();
    emergencyHoldoffNs = params.emergencyHoldoff.value();
    slewDownPerCount = params.slewDownPerCount;
    slewUpPerCount = params.slewUpPerCount;
    emergencyStretchFrac = params.emergencyStretchFrac;
    minPeriodPs = params.minPeriod.value();
    maxPeriodPs = params.maxPeriod.value();
    targetCounts = params.targetCounts;
    emergencyCounts = params.emergencyCounts;
    slewUpCapCounts = params.slewUpCapCounts;
}

void
DpllBankSoa::load(std::size_t core, const Dpll &loop)
{
    const DpllState state = loop.exportState();
    periodPs[core] = state.periodPs;
    lastUpdateNs[core] = state.lastUpdateNs;
    lastEmergencyNs[core] = state.lastEmergencyNs;
    emergencies[core] = state.emergencies;
    slewDowns[core] = state.slewDowns;
    slewUps[core] = state.slewUps;
    heldMargin[core] = state.heldMargin;
    heldValid[core] = state.heldValid ? 1 : 0;
    dropout[core] = state.dropout ? 1 : 0;
}

void
DpllBankSoa::store(std::size_t core, Dpll &loop) const
{
    DpllState state;
    state.periodPs = periodPs[core];
    state.lastUpdateNs = lastUpdateNs[core];
    state.lastEmergencyNs = lastEmergencyNs[core];
    state.emergencies = emergencies[core];
    state.slewDowns = slewDowns[core];
    state.slewUps = slewUps[core];
    state.heldMargin = heldMargin[core];
    state.heldValid = heldValid[core] != 0;
    state.dropout = dropout[core] != 0;
    loop.importState(state);
}

Mhz
Dpll::frequencyMhz() const
{
    return util::frequencyOf(period_);
}

void
Dpll::clampPeriod()
{
    period_ = std::clamp(period_, params_.minPeriod, params_.maxPeriod);
}

} // namespace atmsim::dpll
