/**
 * @file
 * The five-CPM bank of one core. The worst (smallest) of the five
 * site measurements is reported every cycle to the DPLL (Sec. II of
 * the paper). Fine-tuning programs all sites of a core by the same
 * reduction from their presets (Sec. III-A).
 */

#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "cpm/cpm.h"
#include "util/hotpath_annotations.h"

namespace atmsim::cpm {

/** worstCount at the two ends of a delay-factor bracket. */
struct CountBracket
{
    int atHi; ///< At the bracket's hi factor: the fewest counts.
    int atLo; ///< At the bracket's lo factor: the most counts.
};

/** Bank of CPM sites within one core. */
class CpmBank
{
  public:
    /**
     * @param core Core silicon parameters (not owned).
     * @param model Shared delay model (not owned).
     */
    CpmBank(const variation::CoreSiliconParams *core,
            const circuit::DelayModel *model);

    /**
     * Program a uniform delay reduction across all sites relative to
     * their presets. This is exactly the paper's fine-tuning knob.
     *
     * @param steps Reduction steps (>= 0); clamped per site at 0.
     */
    void setReduction(CpmSteps steps);

    /** Current reduction from the preset. */
    CpmSteps reduction() const { return reduction_; }

    /** Access a site. */
    const Cpm &site(int index) const;
    std::size_t siteCount() const { return sites_.size(); }

    // --- Fault injection -----------------------------------------------

    /** Set one site's injected faults (see Cpm::setFaults). */
    void setFaults(int site, const CpmFaults &faults);

    // --- Engine kernels ------------------------------------------------

    /**
     * Worst (minimum) output count across the bank this cycle -- the
     * margin the DPLL acts on. Every site quantizes as
     * Cpm::outputCount does, given the core's DelayModel::factor(v, t)
     * for this cycle. The sites and the silicon speed factor are read
     * in place, so reprogramming, fault injection and aging need no
     * refresh.
     *
     * @param periodPs    Clock period (raw ps).
     * @param delayFactor DelayModel::factor(v, t) for this core.
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] int worstCount(double periodPs,
                                 double delayFactor) const noexcept
    {
        const Scale scale = scaleAt(delayFactor);
        int worst = std::numeric_limits<int>::max();
        for (const Cpm &site : sites_)
            worst = std::min(worst, outputOf(site, periodPs, scale));
        return worst;
    }

    /**
     * worstCount at both ends of a delay-factor bracket, in one pass
     * that shares each site's nominal * speed product. A site's count
     * cannot rise as the factor rises: the multiply, the subtraction,
     * the division and the truncation each keep that order under IEEE
     * rounding. So for every f in the bracket,
     * atHi <= worstCount(periodPs, f) <= atLo, and equal counts are
     * the exact count.
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] CountBracket
    worstCountBracket(double periodPs,
                      circuit::FactorBracket factor) const noexcept
    {
        const Scale lo = scaleAt(factor.lo);
        const Scale hi = scaleAt(factor.hi);
        CountBracket worst{std::numeric_limits<int>::max(),
                           std::numeric_limits<int>::max()};
        for (const Cpm &site : sites_) {
            if (site.stuckActive()) {
                worst.atHi = std::min(worst.atHi, site.stuckOutputCount());
                worst.atLo = std::min(worst.atLo, site.stuckOutputCount());
                continue;
            }
            const double basePs = site.nominalPs() * lo.speed;
            worst.atHi = std::min(worst.atHi, quantize(periodPs, basePs, hi));
            worst.atLo = std::min(worst.atLo, quantize(periodPs, basePs, lo));
        }
        return worst;
    }

    /**
     * Stuck-sensor probe: true when any site reads the same count,
     * above 0, at a longer period `slowPs` and a shorter period
     * `fastPs`. A healthy quantizer loses counts when the probe
     * removes enough slack; a pinned latch does not. Arguments as for
     * worstCount.
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] bool probeInsensitive(double slowPs, double fastPs,
                                        double delayFactor) const noexcept
    {
        const Scale scale = scaleAt(delayFactor);
        for (const Cpm &site : sites_) {
            const int slow = outputOf(site, slowPs, scale);
            const int fast = outputOf(site, fastPs, scale);
            if (slow == fast && slow > 0)
                return true;
        }
        return false;
    }

    /**
     * probeInsensitive over a delay-factor bracket. A site whose slow
     * and fast counts each agree at both ends reads its exact counts
     * (see worstCountBracket); the verdict is exact once such a site
     * is insensitive, or once every site agrees. Otherwise nullopt:
     * the caller probes at the exact factor.
     */
    ATM_HOT_PATH(engine_step)
    [[nodiscard]] std::optional<bool>
    probeInsensitiveBracket(double slowPs, double fastPs,
                            circuit::FactorBracket factor) const noexcept
    {
        const Scale lo = scaleAt(factor.lo);
        const Scale hi = scaleAt(factor.hi);
        bool decided = true;
        for (const Cpm &site : sites_) {
            if (site.stuckActive()) {
                if (site.stuckOutputCount() > 0)
                    return true;
                continue;
            }
            const double basePs = site.nominalPs() * lo.speed;
            const int slow = quantize(slowPs, basePs, hi);
            const int fast = quantize(fastPs, basePs, hi);
            if (slow != quantize(slowPs, basePs, lo)
                || fast != quantize(fastPs, basePs, lo)) {
                decided = false;
            } else if (slow == fast && slow > 0) {
                return true;
            }
        }
        if (!decided)
            return std::nullopt;
        return false;
    }

  private:
    /** This cycle's per-core quantizer inputs. */
    struct Scale
    {
        double delayFactor;
        double speed;           ///< Silicon speed factor.
        double effectiveStepPs; ///< Chain step * (delayFactor * speed).
        int chainLength;
    };

    /** Every site quantizes with the same chain (Cpm's constructor). */
    [[nodiscard]] Scale scaleAt(double delayFactor) const noexcept
    {
        const double speed = core_->speedFactor;
        const circuit::InverterChain &chain = sites_.front().chain();
        return {delayFactor, speed,
                chain.stepPs().value() * (delayFactor * speed),
                chain.length()};
    }

    /**
     * One unstuck site's output count, with Cpm::outputCount's
     * association: monitored = (nominal * speed) * factor, where
     * `basePs` is nominal * speed, and the slack is quantized in steps
     * of the scaled chain step, saturating at the chain length.
     */
    [[nodiscard]] static int quantize(double periodPs, double basePs,
                                      const Scale &scale) noexcept
    {
        const double slack = periodPs - basePs * scale.delayFactor;
        if (slack <= 0.0)
            return 0;
        const int count = static_cast<int>(slack / scale.effectiveStepPs);
        return std::min(count, scale.chainLength);
    }

    /** One site's output count (quantize, or the pinned count). */
    [[nodiscard]] static int outputOf(const Cpm &site, double periodPs,
                                      const Scale &scale) noexcept
    {
        if (site.stuckActive())
            return site.stuckOutputCount();
        return quantize(periodPs, site.nominalPs() * scale.speed, scale);
    }

    const variation::CoreSiliconParams *core_;
    std::vector<Cpm> sites_;
    CpmSteps reduction_{0};
};

} // namespace atmsim::cpm
