/**
 * @file
 * Voltage- and temperature-dependent gate-delay model.
 *
 * Uses the alpha-power law d(V) proportional to V / (V - Vth)^alpha,
 * normalized to 1.0 at the nominal operating point, with a weak linear
 * temperature term. Both the CPM's synthetic paths and the core's real
 * critical paths scale their delay with this model, which is exactly
 * why ATM tracks environmental variation: the canary and the payload
 * age, heat and droop together.
 */

#pragma once

#include "util/quantity.h"

namespace atmsim::circuit {

using util::Celsius;
using util::Volts;

/** Parameterized alpha-power-law delay model. */
class DelayModel
{
  public:
    /**
     * @param vth Threshold voltage.
     * @param alpha Velocity saturation exponent.
     * @param v_nominal Normalization voltage (factor == 1 there).
     * @param t_nominal Normalization temperature.
     * @param temp_coeff Fractional delay increase per degC.
     */
    DelayModel(Volts vth, double alpha, Volts v_nominal, Celsius t_nominal,
               double temp_coeff);

    /** Construct with the platform constants from constants.h. */
    static DelayModel makeDefault();

    /**
     * Relative delay at (v, t) versus the nominal point.
     *
     * @param v Supply voltage; must exceed Vth.
     * @param t Temperature.
     * @return Multiplicative delay factor (1.0 at nominal).
     */
    double factor(Volts v, Celsius t) const;

    /**
     * factor(vNominal(), t), bit for bit, without the alpha-power
     * `pow`: at the normalization voltage the voltage term is
     * raw / raw, exactly 1, which leaves the temperature term.
     */
    double nominalSupplyFactor(Celsius t) const;

    /** Partial derivative of factor() with respect to voltage (1/V). */
    double dFactorDv(Volts v, Celsius t) const;

    /**
     * Local voltage sensitivity of delay: -d(ln d)/dV at (v, t), in
     * fractional delay change per volt. Positive number (delay grows
     * as voltage drops). About 0.64/V at the nominal point.
     */
    double sensitivityPerVolt(Volts v, Celsius t) const;

    /**
     * Invert factor(): find the voltage at which the delay factor
     * equals the target (Newton iteration).
     *
     * @param target Desired delay factor (> 0).
     * @param t Temperature.
     */
    Volts voltageForFactor(double target, Celsius t) const;

    Volts vth() const { return vth_; }
    Volts vNominal() const { return vNominal_; }
    Celsius tNominal() const { return tNominal_; }

  private:
    /** Raw (unnormalized) alpha-power delay on the bare voltage. */
    double raw(double v) const;

    Volts vth_;
    double alpha_;
    Volts vNominal_;
    Celsius tNominal_;
    double tempCoeff_;
    double rawNominal_;
};

} // namespace atmsim::circuit
