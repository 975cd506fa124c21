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
    DelayModel model(kVth, kAlpha, kVddNominal, kTempNominal,
                     kTempDelayCoeffPerC);
    // One table per process, whatever the number of chips: a table
    // per model costs every chip 24 KiB and the set-up time to fill it.
    static const GridTable table = model.buildTable();
    model.table_ = &table;
    return model;
}

DelayModel::GridTable
DelayModel::buildTable() const
{
    if (vth_.value() >= kGridLoV)
        util::panic("delay-model grid starts at or below Vth");
    const double h = 1.0 / kGridNodesPerVolt;
    GridTable table{};
    for (std::size_t i = 0; i < kGridIntervals; ++i) {
        const double left = kGridLoV + static_cast<double>(i) * h;
        const double rawLeft = raw(left) / rawNominal_;
        const double rawRight = raw(left + h) / rawNominal_;
        // raw'' = alpha u^(-alpha-2) ((alpha-1) v + 2 Vth), u = v - Vth:
        // positive (raw is convex) and falling in v, so the left node
        // bounds it over the interval.
        const double u = left - vth_.value();
        const double rawCurv = alpha_ * std::pow(u, -alpha_ - 2.0)
                             * ((alpha_ - 1.0) * left + 2.0 * vth_.value());
        table[i] = {rawLeft, rawRight - rawLeft,
                    h * h / 8.0 * rawCurv / rawNominal_};
    }
    return table;
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

} // namespace atmsim::circuit
