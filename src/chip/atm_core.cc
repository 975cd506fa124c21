#include "chip/atm_core.h"

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::chip {

const char *
coreModeName(CoreMode mode)
{
    switch (mode) {
      case CoreMode::AtmOverclock: return "atm";
      case CoreMode::FixedFrequency: return "fixed";
      case CoreMode::Gated: return "gated";
    }
    return "?";
}

AtmCore::AtmCore(const variation::CoreSiliconParams *silicon,
                 const circuit::DelayModel *model,
                 const dpll::DpllParams &dpll_params)
    : silicon_(silicon), model_(model), bank_(silicon, model),
      dpll_(dpll_params), fixedMhz_(circuit::kStaticMarginMhz)
{
    if (!silicon || !model)
        util::panic("AtmCore constructed with null silicon or model");
    bank_.setReduction(CpmSteps{0});
    dpll_.reset(util::periodOf(circuit::kDefaultAtmIdleMhz));
}

void
AtmCore::setMode(CoreMode mode)
{
    mode_ = mode;
}

void
AtmCore::setFixedFrequencyMhz(Mhz f)
{
    if (f <= Mhz{0.0})
        util::fatal("fixed frequency must be positive, got ", f.value());
    fixedMhz_ = f;
}

void
AtmCore::setCpmReduction(CpmSteps steps)
{
    bank_.setReduction(steps);
}

void
AtmCore::resetClock(Volts v, Celsius t)
{
    dpll_.reset(util::periodOf(steadyFrequencyMhz(v, t)));
    vSlow_ = v;
    vSlowValid_ = true;
    lastWorstCount_ = -1;
}

ControlState
AtmCore::exportControlState() const
{
    ControlState state;
    state.vSlowV = vSlow_.value();
    state.vSlowValid = vSlowValid_;
    state.lastWorstCount = lastWorstCount_;
    return state;
}

void
AtmCore::importControlState(const ControlState &state)
{
    vSlow_ = Volts{state.vSlowV};
    vSlowValid_ = state.vSlowValid;
    lastWorstCount_ = state.lastWorstCount;
}

Picoseconds
AtmCore::periodPs() const
{
    switch (mode_) {
      case CoreMode::AtmOverclock:
        return dpll_.periodPs();
      case CoreMode::FixedFrequency:
        return util::periodOf(fixedMhz_);
      case CoreMode::Gated:
        return util::periodOf(circuit::kPStateMinMhz);
    }
    util::panic("unreachable core mode");
}

Mhz
AtmCore::frequencyMhz() const
{
    return util::frequencyOf(periodPs());
}

Mhz
AtmCore::steadyFrequencyMhz(Volts v, Celsius t) const
{
    switch (mode_) {
      case CoreMode::AtmOverclock:
        return silicon_->atmFrequencyMhz(bank_.reduction(),
                                         model_->factor(v, t));
      case CoreMode::FixedFrequency:
        return fixedMhz_;
      case CoreMode::Gated:
        return Mhz{0.0};
    }
    util::panic("unreachable core mode");
}

} // namespace atmsim::chip
