#include "sim/soa_state.h"

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::sim {

// atmlint: contract(cold)
void
EngineSoaState::build(chip::Chip &chip,
                      const std::vector<util::Picoseconds> &exposure,
                      const std::vector<util::Volts> &steady_v,
                      double noisePs)
{
    const auto n = static_cast<std::size_t>(chip.coreCount());
    if (exposure.size() != n || steady_v.size() != n)
        util::panic("SoA build: per-core input size mismatch");

    model_ = &chip.delayModel();
    noisePs_ = noisePs;
    gatedPeriodPs_ = util::periodOf(circuit::kPStateMinMhz).value();

    coreV_.assign(n, 0.0);
    tempC_.assign(n, 0.0);
    steadyV_.assign(n, 0.0);
    basePathPs_.assign(n, 0.0);
    cores_ = chip.cores();
    // The adjustment count is per run (the sampled-mode settling gate
    // compares it against a per-run tracker that starts at zero), but
    // the chip's loops outlive runs.
    loops_ = &chip.loops();
    loops_->dpll.adjustments = 0;

    for (std::size_t c = 0; c < n; ++c) {
        const chip::AtmCore &core = cores_[c];
        basePathPs_[c] = (util::Picoseconds{core.silicon().realPathIdlePs}
                          + exposure[c])
                             .value();
        steadyV_[c] = steady_v[c].value();
        coreV_[c] = chip.pdn().coreV(static_cast<int>(c)).value();
    }

    refreshTemps(chip);
}

void
EngineSoaState::refreshTemps(chip::Chip &chip)
{
    const std::size_t n = tempC_.size();
    for (std::size_t c = 0; c < n; ++c)
        tempC_[c] = chip.thermal().coreTempC(static_cast<int>(c)).value();
}

ATM_HOT_PATH(engine_step)
void
EngineSoaState::refreshCoreV(const chip::Chip &chip,
                             const std::vector<util::Amps> &branch_currents)
{
    // Replicates PdnNetwork::coreV: vDie - R_branch * I_branch, with
    // the currents that the engine just passed to PdnNetwork::step
    // (== lastCoreCurrents_ inside the network).
    const double vDie = chip.pdn().gridV().value();
    const double branchRes = chip.pdn().params().coreLocalResOhm;
    const std::size_t n = coreV_.size();
    for (std::size_t c = 0; c < n; ++c)
        coreV_[c] = vDie - branchRes * branch_currents[c].value();
}

} // namespace atmsim::sim
