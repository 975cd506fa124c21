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
                 long *config_generation)
    : silicon_(silicon), model_(model), bank_(silicon, model),
      fixedMhz_(circuit::kStaticMarginMhz), generation_(config_generation)
{
    if (!silicon || !model || !config_generation)
        util::panic("AtmCore constructed with null silicon, model or"
                    " generation counter");
    bank_.setReduction(CpmSteps{0});
}

void
AtmCore::setMode(CoreMode mode)
{
    mode_ = mode;
    ++*generation_;
}

void
AtmCore::setFixedFrequencyMhz(Mhz f)
{
    if (f <= Mhz{0.0})
        util::fatal("fixed frequency must be positive, got ", f.value());
    fixedMhz_ = f;
    ++*generation_;
}

void
AtmCore::setCpmReduction(CpmSteps steps)
{
    bank_.setReduction(steps);
    ++*generation_;
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
