#include "chip/chip.h"

#include <algorithm>
#include <cmath>

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::chip {

using util::Amps;
using util::Watts;

Mhz
ChipSteadyState::minActiveFreqMhz() const
{
    Mhz min_f{0.0};
    bool any = false;
    for (Mhz f : coreFreqMhz) {
        if (f <= Mhz{0.0})
            continue; // gated
        min_f = any ? std::min(min_f, f) : f;
        any = true;
    }
    return any ? min_f : Mhz{0.0};
}

Mhz
ChipSteadyState::maxFreqMhz() const
{
    Mhz max_f{0.0};
    for (Mhz f : coreFreqMhz)
        max_f = std::max(max_f, f);
    return max_f;
}

Chip::Chip(variation::ChipSilicon silicon, const ChipConfig &config)
    : silicon_(std::move(silicon)), config_(config),
      model_(std::make_unique<circuit::DelayModel>(
          circuit::DelayModel::makeDefault())),
      pdn_(config.pdnParams,
           pdn::Vrm(config.vrmSetpointV, config.vrmLoadLineOhm),
           static_cast<int>(silicon_.cores.size())),
      thermal_(config.thermalParams,
               static_cast<int>(silicon_.cores.size())),
      power_(config.powerParams)
{
    silicon_.validate();
    const std::size_t n = silicon_.cores.size();
    cores_.reserve(n);
    for (const auto &core_silicon : silicon_.cores)
        cores_.emplace_back(&core_silicon, model_.get(),
                            &configGeneration_);
    loops_.dpll.resize(n, config.dpllParams);
    for (std::size_t c = 0; c < n; ++c)
        loops_.dpll.reset(c, util::periodOf(circuit::kDefaultAtmIdleMhz));
    loops_.vSlow.assign(n, 0.0);
    loops_.vSlowValid.assign(n, 0);
    loops_.lastWorst.assign(n, -1);
    assignments_.resize(n);
}

std::size_t
Chip::checkedIndex(int core_index, const char *what) const
{
    if (core_index < 0 || core_index >= coreCount())
        util::fatal(what, ": core ", core_index, " out of range");
    return static_cast<std::size_t>(core_index);
}

AtmCore &
Chip::core(int index)
{
    if (index < 0 || index >= coreCount())
        util::fatal("chip ", name(), ": core index ", index,
                    " out of range");
    return cores_[static_cast<std::size_t>(index)];
}

const AtmCore &
Chip::core(int index) const
{
    if (index < 0 || index >= coreCount())
        util::fatal("chip ", name(), ": core index ", index,
                    " out of range");
    return cores_[static_cast<std::size_t>(index)];
}

void
Chip::setCoreSpeedFactor(int core_index, double speed_factor)
{
    const std::size_t c = checkedIndex(core_index, "setCoreSpeedFactor");
    if (!(speed_factor > 0.0))
        util::fatal("setCoreSpeedFactor: factor must be positive, got ",
                    speed_factor);
    // The AtmCore and its CPMs hold pointers into silicon_, so the
    // change propagates to every delay computation immediately.
    silicon_.cores[c].speedFactor = speed_factor;
}

void
Chip::resetClock(int core_index, Volts v, Celsius t)
{
    const std::size_t c = checkedIndex(core_index, "resetClock");
    loops_.dpll.reset(
        c, util::periodOf(cores_[c].steadyFrequencyMhz(v, t)));
    loops_.vSlow[c] = v.value();
    loops_.vSlowValid[c] = 1;
    loops_.lastWorst[c] = -1;
    ++configGeneration_;
}

Picoseconds
Chip::periodPs(int core_index) const
{
    const std::size_t c = checkedIndex(core_index, "periodPs");
    switch (cores_[c].mode()) {
      case CoreMode::AtmOverclock:
        return Picoseconds{loops_.dpll.periodPs[c]};
      case CoreMode::FixedFrequency:
        return util::periodOf(cores_[c].fixedFrequencyMhz());
      case CoreMode::Gated:
        return util::periodOf(circuit::kPStateMinMhz);
    }
    util::panic("unreachable core mode");
}

Mhz
Chip::frequencyMhz(int core_index) const
{
    return util::frequencyOf(periodPs(core_index));
}

long
Chip::emergencyCount(int core_index) const
{
    return loops_.dpll
        .emergencies[checkedIndex(core_index, "emergencyCount")];
}

void
Chip::setSensorDropout(int core_index, bool dropped)
{
    loops_.dpll.dropout[checkedIndex(core_index, "setSensorDropout")] =
        static_cast<std::uint8_t>(dropped);
}

bool
Chip::sensorDropout(int core_index) const
{
    return loops_.dpll.dropout[checkedIndex(core_index, "sensorDropout")];
}

void
Chip::assignWorkload(int core_index, const workload::WorkloadTraits *traits,
                     int threads)
{
    CoreAssignment &slot =
        assignments_[checkedIndex(core_index, "assignWorkload")];
    if (!traits) {
        slot = CoreAssignment{};
        return;
    }
    slot.traits = traits;
    slot.threads = threads > 0 ? threads : traits->defaultThreads;
    if (slot.threads > circuit::kSmtWays)
        util::fatal("assignWorkload: ", slot.threads, " threads exceed SMT",
                    circuit::kSmtWays);
}

void
Chip::clearAssignments()
{
    for (auto &slot : assignments_)
        slot = CoreAssignment{};
}

const CoreAssignment &
Chip::assignment(int core_index) const
{
    return assignments_[checkedIndex(core_index, "assignment")];
}

Picoseconds
Chip::pathExposurePs(const variation::CoreSiliconParams &core,
                     const workload::WorkloadTraits &traits)
{
    switch (traits.suite) {
      case workload::Suite::Idle:
        return Picoseconds{0.0};
      case workload::Suite::UBench:
        return Picoseconds{core.ubenchExtraPs};
      default:
        return Picoseconds{core.loadExposurePs};
    }
}

// Iterative DC settle, run once before the engine's step loop.
// atmlint: contract(cold)
ChipSteadyState
Chip::solveSteadyState() const
{
    const int n = coreCount();
    ChipSteadyState st;
    st.coreFreqMhz.assign(static_cast<std::size_t>(n), Mhz{0.0});
    st.coreVoltageV.assign(static_cast<std::size_t>(n),
                           circuit::kVddNominal);
    st.corePowerW.assign(static_cast<std::size_t>(n), Watts{0.0});
    st.coreTempC.assign(static_cast<std::size_t>(n),
                        circuit::kTempNominal);

    // Initial guess: nominal environment.
    for (int c = 0; c < n; ++c) {
        st.coreFreqMhz[static_cast<std::size_t>(c)] =
            core(c).steadyFrequencyMhz(circuit::kVddNominal,
                                       circuit::kTempNominal);
    }

    for (int iter = 0; iter < 60; ++iter) {
        // Power from the current frequency/voltage/temperature guess.
        Watts total_power{0.0};
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            const CoreAssignment &slot = assignments_[ci];
            Watts p;
            if (core(c).mode() == CoreMode::Gated) {
                p = Watts{0.25}; // gated residual
            } else {
                const Watts activity = slot.idle()
                    ? Watts{0.0}
                    : Watts{slot.traits->coreActivityW(slot.threads)
                            * slot.traits->avgActivityScale()};
                p = power_.coreTotalW(activity, st.coreFreqMhz[ci],
                                      st.coreVoltageV[ci],
                                      st.coreTempC[ci]);
            }
            st.corePowerW[ci] = p;
            total_power += p;
        }
        const Volts grid_guess = st.gridVoltageV > Volts{0.0}
                               ? st.gridVoltageV
                               : config_.vrmSetpointV;
        const Watts uncore = power_.uncoreW(grid_guess);
        total_power += uncore;
        st.chipPowerW = total_power;

        // Voltages from the DC PDN solution.
        const Amps total_current =
            power::PowerModel::currentA(total_power, grid_guess);
        st.gridVoltageV = pdn_.dcGridV(total_current);
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            const Amps core_current = power::PowerModel::currentA(
                st.corePowerW[ci], st.gridVoltageV);
            st.coreVoltageV[ci] = st.gridVoltageV
                                - Volts{config_.pdnParams.coreLocalResOhm
                                        * core_current.value()};
        }

        // Temperatures from the thermal steady state.
        st.packageTempC = Celsius{config_.thermalParams.ambientC
                                  + config_.thermalParams.packageResKpW
                                  * total_power.value()};
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            st.coreTempC[ci] = st.packageTempC
                             + Celsius{config_.thermalParams.coreResKpW
                                       * st.corePowerW[ci].value()};
        }

        // Frequencies from the ATM steady state; check convergence.
        Mhz max_delta{0.0};
        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            const Mhz f = core(c).steadyFrequencyMhz(
                st.coreVoltageV[ci], st.coreTempC[ci]);
            const Mhz delta = f >= st.coreFreqMhz[ci]
                            ? f - st.coreFreqMhz[ci]
                            : st.coreFreqMhz[ci] - f;
            max_delta = std::max(max_delta, delta);
            st.coreFreqMhz[ci] = f;
        }
        if (max_delta < Mhz{0.01})
            break;
    }
    return st;
}

} // namespace atmsim::chip
