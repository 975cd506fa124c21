#include "dpll/dpll.h"

#include "util/logging.h"

namespace atmsim::dpll {

void
DpllBankSoa::resize(std::size_t cores, const DpllParams &params)
{
    if (params.targetCounts <= params.emergencyCounts)
        util::fatal("DPLL target must exceed the emergency threshold");
    if (params.minPeriod >= params.maxPeriod)
        util::fatal("DPLL period bounds inverted");

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
DpllBankSoa::reset(std::size_t core, Picoseconds period)
{
    periodPs[core] = period.value();
    clampPeriod(core);
    lastUpdateNs[core] = -1e18;
    lastEmergencyNs[core] = -1e18;
    emergencies[core] = 0;
    slewDowns[core] = 0;
    slewUps[core] = 0;
    heldMargin[core] = 0;
    heldValid[core] = 0;
}

} // namespace atmsim::dpll
