#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "chip/chip.h"
#include "sim/soa_state.h"
#include "util/rng.h"
#include "variation/reference_chips.h"

namespace atmsim::sim {
namespace {

using util::Amps;
using util::Celsius;
using util::Picoseconds;
using util::Volts;

TEST(SoaDeficit, SignTestAtBracketHiNeverMissesAPositiveDeficit)
{
    // timingDeficitPs tests the sign at the factor bracket's hi end
    // and pays for the exact factor only when that might be positive.
    // Against an independent exact evaluation, over core voltages
    // across the grid and periods within a hair of the real path
    // delay: the sign always matches, and a positive deficit is the
    // exact value bit for bit.
    chip::Chip chip(variation::makeReferenceChip(0));
    const auto n = static_cast<std::size_t>(chip.coreCount());
    const double noise = 0.7;
    EngineSoaState soa;
    soa.build(chip, std::vector<Picoseconds>(n, Picoseconds{3.0}),
              std::vector<Volts>(n, Volts{1.25}), noise);
    chip::ControlLoops &loops = chip.loops();
    const double vDie = chip.pdn().gridV().value();
    const double branchRes = chip.pdn().params().coreLocalResOhm;

    util::Rng rng(0xDEF1);
    std::vector<Amps> currents(n);
    long positive = 0, negative = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::vector<double> volts(n);
        for (std::size_t c = 0; c < n; ++c) {
            volts[c] = rng.uniform(0.45, 1.55);
            currents[c] = Amps{(vDie - volts[c]) / branchRes};
        }
        soa.refreshCoreV(chip, currents);
        for (std::size_t c = 0; c < n; ++c) {
            ASSERT_EQ(chip.core(static_cast<int>(c)).mode(),
                      chip::CoreMode::AtmOverclock);
            loops.vSlowValid[c] = 0; // vEff == the core voltage
            const chip::AtmCore &core = chip.core(static_cast<int>(c));
            const double f =
                chip.delayModel().factor(Volts{soa.coreV(c)},
                                         Celsius{soa.tempC(c)});
            const double real =
                (core.silicon().realPathIdlePs + 3.0)
                    * (core.silicon().speedFactor * f)
                + noise;
            loops.dpll.periodPs[c] = real + rng.uniform(-1e-5, 1e-5);
            const double exact = real - loops.dpll.periodPs[c];
            const double deficit = soa.timingDeficitPs(c);
            ASSERT_EQ(deficit > 0.0, exact > 0.0)
                << "v=" << soa.coreV(c) << " exact=" << exact;
            if (exact > 0.0) {
                ASSERT_EQ(deficit, exact);
                ++positive;
            } else {
                ASSERT_GE(deficit, exact);
                ++negative;
            }
        }
    }
    EXPECT_GT(positive, 0);
    EXPECT_GT(negative, 0);
    // Every positive deficit took the exact path.
    EXPECT_GE(soa.factorFallbacks().deficit, positive);
}

} // namespace
} // namespace atmsim::sim
