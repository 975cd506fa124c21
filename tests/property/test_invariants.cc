#include <gtest/gtest.h>

#include "chip/chip.h"
#include "circuit/constants.h"
#include "circuit/delay_model.h"
#include "core/characterizer.h"
#include "core/manager.h"
#include "pdn/pdn_network.h"
#include "variation/calibration.h"
#include "variation/chip_generator.h"
#include "workload/catalog.h"

namespace atmsim {
namespace {

using util::Amps;
using util::Celsius;
using util::CpmSteps;
using util::Picoseconds;
using util::Seconds;
using util::Volts;

// ---------------------------------------------------------------------
// Delay model: delay falls as the supply rises (a positive voltage
// sensitivity), over the whole bracket-table grid and beyond it.

class DelayModelGrid : public ::testing::TestWithParam<double>
{
};

TEST_P(DelayModelGrid, SensitivityPositiveEverywhere)
{
    const circuit::DelayModel model = circuit::DelayModel::makeDefault();
    const Celsius t_c{GetParam()};
    double prev = model.factor(Volts{0.36}, t_c);
    for (double v = 0.37; v <= 1.6; v += 0.01) {
        const double f = model.factor(Volts{v}, t_c);
        EXPECT_LT(f, prev) << "v=" << v << " t=" << t_c.value();
        prev = f;
    }
}

INSTANTIATE_TEST_SUITE_P(Temps, DelayModelGrid,
                         ::testing::Values(25.0, 45.0, 60.0, 75.0));

// ---------------------------------------------------------------------
// PDN: the integrator is stable and settles to DC for every time step
// the engine might use.

class PdnStability : public ::testing::TestWithParam<double>
{
};

TEST_P(PdnStability, SettlesToDcAtTimestep)
{
    const double dt_ns = GetParam();
    pdn::PdnNetwork net(pdn::PdnParams{}, pdn::Vrm(Volts{1.267}, 0.22e-3),
                        8);
    std::vector<Amps> loads(8, Amps{7.0});
    // Start cold (settled at zero load), then step the full load on.
    net.settle(std::vector<Amps>(8, Amps{0.0}), Amps{0.0});
    const long steps = static_cast<long>(3000.0 / dt_ns);
    for (long i = 0; i < steps; ++i)
        net.step(Seconds{dt_ns * 1e-9}, loads, Amps{10.0});
    EXPECT_NEAR(net.gridV().value(), net.dcGridV(Amps{66.0}).value(),
                2e-3)
        << "dt=" << dt_ns;
    // No runaway oscillation.
    EXPECT_GT(net.minGridV().value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Timesteps, PdnStability,
                         ::testing::Values(0.05, 0.1, 0.2, 0.5, 1.0));

// ---------------------------------------------------------------------
// Silicon invariants over randomly manufactured chips.

class RandomChipInvariants : public ::testing::TestWithParam<int>
{
  protected:
    RandomChipInvariants()
        : silicon_(variation::generateChip(
              "INV", 7000 + static_cast<std::uint64_t>(GetParam())))
    {
    }

    variation::ChipSilicon silicon_;
};

TEST_P(RandomChipInvariants, FrequencyMonotoneInReduction)
{
    for (const auto &core : silicon_.cores) {
        double prev = core.atmFrequencyMhz(CpmSteps{0}, 1.0).value();
        for (int k = 1; k <= core.presetSteps; ++k) {
            const double f =
                core.atmFrequencyMhz(CpmSteps{k}, 1.0).value();
            EXPECT_GT(f, prev) << core.name << " @ " << k;
            prev = f;
        }
    }
}

TEST_P(RandomChipInvariants, SafetySlackStrictlyDecreasing)
{
    for (const auto &core : silicon_.cores) {
        double prev = core.safetySlackPs(CpmSteps{0}).value();
        for (int k = 1; k <= core.presetSteps; ++k) {
            const double s = core.safetySlackPs(CpmSteps{k}).value();
            EXPECT_LT(s, prev) << core.name << " @ " << k;
            prev = s;
        }
    }
}

TEST_P(RandomChipInvariants, MaxSafeMonotoneInNoise)
{
    for (const auto &core : silicon_.cores) {
        CpmSteps prev = variation::analyticMaxSafeReduction(
            core, Picoseconds{0.0}, Picoseconds{0.0});
        for (double noise = 0.2; noise <= 2.0; noise += 0.2) {
            const CpmSteps k = variation::analyticMaxSafeReduction(
                core, Picoseconds{0.0}, Picoseconds{noise});
            EXPECT_LE(k, prev) << core.name;
            prev = k;
        }
    }
}

TEST_P(RandomChipInvariants, LimitRowsOrdered)
{
    chip::Chip chip(std::move(silicon_));
    core::Characterizer characterizer(&chip);
    const core::LimitTable table = characterizer.characterizeChip();
    for (const auto &core : table.cores) {
        EXPECT_GE(core.idle, core.ubench) << core.coreName;
        EXPECT_GE(core.ubench, core.normal) << core.coreName;
        EXPECT_GE(core.normal, core.worst) << core.coreName;
        EXPECT_GE(core.worst, 1) << core.coreName;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChipInvariants,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// Steady state: chip power grows with occupancy; frequency shrinks.

TEST(SteadyStateInvariants, PowerMonotoneInOccupancy)
{
    chip::Chip chip(variation::generateChip("OCC", 321));
    const auto &gcc = workload::findWorkload("gcc");
    double prev_power = 0.0;
    double prev_freq = 1e9;
    for (int busy = 0; busy <= chip.coreCount(); ++busy) {
        chip.clearAssignments();
        for (int c = 0; c < busy; ++c)
            chip.assignWorkload(c, &gcc);
        const chip::ChipSteadyState st = chip.solveSteadyState();
        EXPECT_GT(st.chipPowerW.value(), prev_power)
            << busy << " busy cores";
        EXPECT_LT(st.coreFreqMhz.back().value(), prev_freq + 1e-9)
            << busy << " busy cores";
        prev_power = st.chipPowerW.value();
        prev_freq = st.coreFreqMhz.back().value();
    }
}

// ---------------------------------------------------------------------
// Manager: scenario ordering holds on random silicon.

class RandomChipManager : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomChipManager, ScenarioOrderingHolds)
{
    chip::Chip chip(variation::generateChip(
        "MGR", 9100 + static_cast<std::uint64_t>(GetParam())));
    core::Characterizer characterizer(&chip);
    core::AtmManager manager(&chip, characterizer.characterizeChip());

    core::ScheduleRequest req;
    req.critical = &workload::findWorkload("squeezenet");
    req.background = &workload::findWorkload("swaptions");
    const double p_static =
        manager.evaluate(core::Scenario::StaticMargin, req).criticalPerf;
    const double p_def =
        manager.evaluate(core::Scenario::DefaultAtmUnmanaged, req)
            .criticalPerf;
    const double p_max =
        manager.evaluate(core::Scenario::ManagedMax, req).criticalPerf;
    EXPECT_NEAR(p_static, 1.0, 1e-9);
    EXPECT_GT(p_def, p_static);
    EXPECT_GT(p_max, p_def);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChipManager,
                         ::testing::Range(0, 4));

} // namespace
} // namespace atmsim
