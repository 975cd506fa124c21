#include "circuit/delay_model.h"

#include <cmath>

#include "circuit/constants.h"
#include "util/logging.h"

namespace atmsim::circuit {

DelayModel::DelayModel(Volts vth, double alpha, Volts v_nominal,
                       Celsius t_nominal, double temp_coeff)
    : vth_(vth), alpha_(alpha), vNominal_(v_nominal), tNominal_(t_nominal),
      tempCoeff_(temp_coeff)
{
    if (v_nominal <= vth)
        util::fatal("nominal voltage ", v_nominal.value(),
                    " must exceed threshold ", vth.value());
    rawNominal_ = raw(v_nominal.value());
}

DelayModel
DelayModel::makeDefault()
{
    return DelayModel(kVth, kAlpha, kVddNominal, kTempNominal,
                      kTempDelayCoeffPerC);
}

double
DelayModel::raw(double v) const
{
    return v / std::pow(v - vth_.value(), alpha_);
}

double
DelayModel::factor(Volts v, Celsius t) const
{
    if (v <= vth_)
        util::fatal("supply voltage ", v.value(), " V at or below threshold ",
                    vth_.value(), " V");
    const double volt_part = raw(v.value()) / rawNominal_;
    return volt_part * nominalSupplyFactor(t);
}

double
DelayModel::nominalSupplyFactor(Celsius t) const
{
    return 1.0 + tempCoeff_ * (t - tNominal_).value();
}

double
DelayModel::dFactorDv(Volts v, Celsius t) const
{
    // d/dV [ V (V-Vth)^-a ] = (V-Vth)^-a - a V (V-Vth)^-(a+1)
    const double body = (v - vth_).value();
    const double draw = std::pow(body, -alpha_)
                      - alpha_ * v.value() * std::pow(body, -(alpha_ + 1.0));
    return draw / rawNominal_ * nominalSupplyFactor(t);
}

double
DelayModel::sensitivityPerVolt(Volts v, Celsius t) const
{
    return -dFactorDv(v, t) / factor(v, t);
}

Volts
DelayModel::voltageForFactor(double target, Celsius t) const
{
    if (target <= 0.0)
        util::fatal("delay factor target must be positive, got ", target);
    double v = vNominal_.value();
    const double floor = vth_.value() + 1e-4;
    for (int iter = 0; iter < 60; ++iter) {
        const double f = factor(Volts{v}, t) - target;
        const double df = dFactorDv(Volts{v}, t);
        const double step = f / df;
        double next = v - step;
        // Keep the iterate in the valid domain.
        if (next <= floor)
            next = (v + floor) / 2.0;
        if (std::abs(next - v) < 1e-12) {
            v = next;
            break;
        }
        v = next;
    }
    return Volts{v};
}

} // namespace atmsim::circuit
