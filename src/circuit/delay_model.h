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

#include <array>
#include <cstddef>

#include "util/hotpath_annotations.h"
#include "util/quantity.h"

namespace atmsim::circuit {

using util::Celsius;
using util::Volts;

/** A proven enclosure of DelayModel::factor: lo <= factor <= hi. */
struct FactorBracket
{
    double lo;
    double hi;
};

/** Parameterized alpha-power-law delay model. */
class DelayModel
{
  public:
    /**
     * A model built here has no bracket table: factorBracket always
     * takes the exact path and returns a zero-width bracket.
     *
     * @param vth Threshold voltage.
     * @param alpha Velocity saturation exponent.
     * @param v_nominal Normalization voltage (factor == 1 there).
     * @param t_nominal Normalization temperature.
     * @param temp_coeff Fractional delay increase per degC.
     */
    DelayModel(Volts vth, double alpha, Volts v_nominal, Celsius t_nominal,
               double temp_coeff);

    /**
     * Construct with the platform constants from constants.h and
     * attach the process-wide bracket table (built on the first call,
     * shared by every model this returns).
     */
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
    double nominalSupplyFactor(Celsius t) const
    {
        return 1.0 + tempCoeff_ * (t - tNominal_).value();
    }

    /**
     * A bracket proven to contain the double factor(v, t) returns,
     * without a `pow` when v lies on the table grid (DESIGN.md,
     * engine architecture). `raw` is convex, so its chord between
     * two grid nodes bounds it from above, and the chord less
     * h^2/8 * raw'' at the left node bounds it from below (raw''
     * falls with v). A relative slack of kBracketSlack covers `pow`
     * and every rounding on both sides. Off the grid, or on a model
     * without a table, the exact path runs and the bracket has zero
     * width; a rail at or below Vth keeps factor's fatal().
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] FactorBracket factorBracket(Volts v, Celsius t) const
    {
        const double x = v.value();
        const double temp = nominalSupplyFactor(t);
        if (table_ != nullptr && x >= kGridLoV && x < kGridHiV
            && temp > 0.0) {
            // Exact on the grid: x - kGridLoV, the power-of-two
            // scale, and pos - node.
            const double pos = (x - kGridLoV) * kGridNodesPerVolt;
            const auto node = static_cast<std::size_t>(pos);
            const GridInterval &iv = (*table_)[node];
            const double chord =
                iv.rawLeft + iv.rawRise * (pos - static_cast<double>(node));
            return {(chord - iv.curvature) * temp * (1.0 - kBracketSlack),
                    chord * temp * (1.0 + kBracketSlack)};
        }
        const double f = factor(v, t);
        return {f, f};
    }

    Volts vth() const { return vth_; }
    Volts vNominal() const { return vNominal_; }
    Celsius tNominal() const { return tNominal_; }

    /** Table grid: nodes every 1/kGridNodesPerVolt V over
     *  [kGridLoV, kGridHiV]. */
    static constexpr double kGridLoV = 0.5;
    static constexpr double kGridHiV = 1.5;
    static constexpr double kGridNodesPerVolt = 1024.0;
    static constexpr auto kGridIntervals = static_cast<std::size_t>(
        (kGridHiV - kGridLoV) * kGridNodesPerVolt);

    /** Relative slack for `pow` and rounding (a few 1e-16 in all). */
    static constexpr double kBracketSlack = 1e-13;

  private:
    /** One grid interval, normalized by rawNominal_. */
    struct GridInterval
    {
        double rawLeft;   ///< raw at the left node.
        double rawRise;   ///< raw(right node) - raw(left node).
        double curvature; ///< h^2/8 * raw'' at the left node.
    };
    using GridTable = std::array<GridInterval, kGridIntervals>;

    /** Raw (unnormalized) alpha-power delay on the bare voltage. */
    double raw(double v) const;

    /** Tabulate this model over the grid (cold, once per process). */
    GridTable buildTable() const;

    Volts vth_;
    double alpha_;
    Volts vNominal_;
    Celsius tNominal_;
    double tempCoeff_;
    double rawNominal_;
    const GridTable *table_ = nullptr; ///< Shared; null = exact only.
};

} // namespace atmsim::circuit
