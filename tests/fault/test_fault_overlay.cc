// Property test of the fault overlay: random fault sets, applied and
// reverted in random interleavings, must leave the chip equal to a
// from-scratch recompute of the active faults after every edge, and
// bit for bit pristine once the last fault is gone.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "chip/chip.h"
#include "circuit/constants.h"
#include "fault/fault_injector.h"
#include "spec_draw.h"
#include "util/rng.h"
#include "variation/reference_chips.h"

namespace atmsim::fault {
namespace {

/** Sequences drawn; a fixed budget keeps sanitizer builds bounded. */
constexpr int kSequences = 10000;

/** Every quantity a fault can touch, as the chip holds it. */
struct FaultLevels
{
    std::vector<double> speed;
    std::vector<double> thermalC;
    double currentA = 0.0;
    std::vector<bool> dropped;
    std::vector<cpm::CpmFaults> sites; ///< core * kCpmSitesPerCore + site

    /** Bitwise equality: -0.0 and +0.0 differ, as a revert must not. */
    bool
    operator==(const FaultLevels &o) const
    {
        const auto bits = [](const std::vector<double> &v) {
            std::vector<std::uint64_t> out;
            for (double x : v)
                out.push_back(std::bit_cast<std::uint64_t>(x));
            return out;
        };
        return bits(speed) == bits(o.speed)
            && bits(thermalC) == bits(o.thermalC)
            && std::bit_cast<std::uint64_t>(currentA)
                   == std::bit_cast<std::uint64_t>(o.currentA)
            && dropped == o.dropped && sites == o.sites;
    }
};

FaultLevels
read(chip::Chip &chip)
{
    FaultLevels levels;
    for (int c = 0; c < chip.coreCount(); ++c) {
        levels.speed.push_back(chip.core(c).silicon().speedFactor);
        levels.thermalC.push_back(chip.thermal().faultOffsetC(c).value());
        levels.dropped.push_back(chip.sensorDropout(c));
        for (int s = 0; s < circuit::kCpmSitesPerCore; ++s)
            levels.sites.push_back(chip.core(c).cpmBank().site(s).faults());
    }
    levels.currentA = chip.pdn().faultCurrentA().value();
    return levels;
}

/** The overlay rule, from scratch: the base folded over the active
 *  faults in apply order. */
FaultLevels
recompute(FaultLevels levels, const std::vector<FaultSpec> &active)
{
    for (const FaultSpec &spec : active) {
        const auto core = static_cast<std::size_t>(spec.core);
        const int count = static_cast<int>(spec.magnitude);
        cpm::CpmFaults *site =
            spec.core < 0
                ? nullptr
                : &levels.sites[core * circuit::kCpmSitesPerCore
                                + static_cast<std::size_t>(spec.site)];
        switch (spec.kind) {
          case FaultKind::CpmStuckAt:
            site->stuckCount = count;
            break;
          case FaultKind::CpmSkippedStep:
            site->skippedSegments = count;
            break;
          case FaultKind::SensorDropout:
            levels.dropped[core] = true;
            break;
          case FaultKind::VrmLoadStep:
            levels.currentA += spec.magnitude;
            break;
          case FaultKind::DroopStorm:
            break;
          case FaultKind::AgingJump:
            levels.speed[core] *= 1.0 + spec.magnitude;
            break;
          case FaultKind::ThermalExcursion:
            levels.thermalC[core] += spec.magnitude;
            break;
        }
    }
    return levels;
}

/** Zero-factor monitored delay of every CPM site (derived from the
 *  skipped segments, so a restored site must recompute it exactly). */
std::vector<std::uint64_t>
nominals(const chip::Chip &chip)
{
    std::vector<std::uint64_t> out;
    for (const chip::AtmCore &core : chip.cores()) {
        for (std::size_t s = 0; s < core.cpmBank().siteCount(); ++s) {
            out.push_back(std::bit_cast<std::uint64_t>(
                core.cpmBank().site(static_cast<int>(s)).nominalPs()));
        }
    }
    return out;
}

TEST(FaultOverlayProperty, RandomNestingMatchesRecomputeAndRestoresPristine)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    // Non-default bases, so the injector must save them rather than
    // assume a healthy chip.
    chip.thermal().setFaultOffsetC(1, util::Celsius{3.25});
    chip.pdn().setFaultCurrentA(util::Amps{1.5});
    chip.setSensorDropout(2, true);
    chip.core(0).cpmBank().setFaults(
        1, {.stuckCount = std::nullopt, .skippedSegments = 2});
    const FaultLevels pristine = read(chip);
    const std::vector<std::uint64_t> pristine_nominals = nominals(chip);

    const util::Rng master(0x0fa17ULL);
    long edges = 0;
    for (int seq = 0; seq < kSequences; ++seq) {
        util::Rng rng = master.fork(static_cast<std::uint64_t>(seq));
        // Few targets, so same-target faults overlap often.
        std::vector<FaultSpec> pending;
        const int n = 1 + test_support::drawBelow(rng, 8);
        for (int i = 0; i < n; ++i)
            pending.push_back(test_support::drawSpec(rng, 3, 2));
        // One sequence in four stops early and leaves the restore of
        // what is still active to the injector's destructor.
        const int stop_after =
            test_support::drawBelow(rng, 4) == 0
                ? test_support::drawBelow(rng, 2 * n)
                : 2 * n;
        {
            FaultInjector injector(&chip);
            std::vector<FaultSpec> active;
            for (int e = 0; e < stop_after; ++e, ++edges) {
                const int pick = test_support::drawBelow(
                    rng, static_cast<int>(pending.size() + active.size()));
                if (pick < static_cast<int>(pending.size())) {
                    const auto it = pending.begin() + pick;
                    injector.apply(*it);
                    active.push_back(*it);
                    pending.erase(it);
                } else {
                    const FaultSpec spec =
                        active[static_cast<std::size_t>(pick)
                               - pending.size()];
                    injector.revert(spec);
                    active.erase(std::ranges::find(active, spec));
                }
                ASSERT_EQ(read(chip), recompute(pristine, active))
                    << "sequence " << seq << ", edge " << e;
                ASSERT_EQ(injector.activeCount(),
                          static_cast<int>(active.size()));
                ASSERT_EQ(injector.stormActive(),
                          std::ranges::any_of(active, [](const FaultSpec &s) {
                              return s.kind == FaultKind::DroopStorm;
                          }));
            }
        }
        ASSERT_EQ(read(chip), pristine) << "sequence " << seq;
        ASSERT_EQ(nominals(chip), pristine_nominals) << "sequence " << seq;
    }
    // The draw must actually exercise the edges it claims to.
    EXPECT_GT(edges, 6L * kSequences);
}

} // namespace
} // namespace atmsim::fault
