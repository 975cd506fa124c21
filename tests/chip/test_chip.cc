#include <gtest/gtest.h>

#include "chip/chip.h"
#include "circuit/constants.h"
#include "util/logging.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::chip {
namespace {

using util::Mhz;
using util::Volts;

class ChipTest : public ::testing::Test
{
  protected:
    ChipTest() : chip_(variation::makeReferenceChip(0)) {}
    Chip chip_;
};

TEST_F(ChipTest, BasicShape)
{
    EXPECT_EQ(chip_.coreCount(), circuit::kCoresPerChip);
    EXPECT_EQ(chip_.name(), "P0");
    EXPECT_EQ(chip_.core(3).name(), "P0C3");
    EXPECT_THROW(chip_.core(8), util::FatalError);
}

TEST_F(ChipTest, ResetClockStartsAtSteadyState)
{
    ControlLoops &loops = chip_.loops();
    const Volts v{1.21};
    const util::Celsius t{52.0};
    loops.dpll.emergencies[2] = 5;
    loops.dpll.slewUps[2] = 7;
    loops.dpll.heldValid[2] = 1;
    loops.lastWorst[2] = 9;
    chip_.setSensorDropout(2, true);
    const long generation = chip_.configGeneration();

    chip_.resetClock(2, v, t);
    EXPECT_EQ(chip_.configGeneration(), generation + 1);
    EXPECT_DOUBLE_EQ(
        chip_.periodPs(2).value(),
        util::periodOf(chip_.core(2).steadyFrequencyMhz(v, t)).value());
    EXPECT_EQ(chip_.emergencyCount(2), 0);
    EXPECT_EQ(loops.dpll.slewUps[2], 0);
    EXPECT_EQ(loops.dpll.heldValid[2], 0);
    EXPECT_EQ(loops.lastWorst[2], -1);
    EXPECT_DOUBLE_EQ(loops.vSlow[2], v.value());
    EXPECT_EQ(loops.vSlowValid[2], 1);
    EXPECT_TRUE(chip_.sensorDropout(2)) << "reset must keep the fault";

    // A steady frequency above the DPLL's range starts at its bound.
    chip_.core(2).setMode(CoreMode::FixedFrequency);
    chip_.core(2).setFixedFrequencyMhz(Mhz{7000.0});
    chip_.resetClock(2, v, t);
    EXPECT_DOUBLE_EQ(loops.dpll.periodPs[2],
                     chip_.config().dpllParams.minPeriod.value());
    EXPECT_THROW(chip_.resetClock(8, v, t), util::FatalError);
}

TEST_F(ChipTest, ConfigSettersBumpTheGeneration)
{
    // The engine marks an observer's reconfiguration by this counter,
    // so every configuration setter must move it.
    long generation = chip_.configGeneration();
    const auto bumped = [&] {
        const long now = chip_.configGeneration();
        const bool moved = now == generation + 1;
        generation = now;
        return moved;
    };
    chip_.core(4).setMode(CoreMode::FixedFrequency);
    EXPECT_TRUE(bumped()) << "setMode";
    chip_.core(4).setFixedFrequencyMhz(Mhz{4200.0});
    EXPECT_TRUE(bumped()) << "setFixedFrequencyMhz";
    chip_.core(4).setCpmReduction(util::CpmSteps{1});
    EXPECT_TRUE(bumped()) << "setCpmReduction";
    chip_.resetClock(4, Volts{1.25}, util::Celsius{50.0});
    EXPECT_TRUE(bumped()) << "resetClock";
    EXPECT_THROW(chip_.core(4).setFixedFrequencyMhz(Mhz{0.0}),
                 util::FatalError);
    EXPECT_EQ(chip_.configGeneration(), generation)
        << "a rejected setting changes nothing";
}

TEST_F(ChipTest, ClockViewFollowsTheCoreMode)
{
    chip_.core(1).setMode(CoreMode::FixedFrequency);
    chip_.core(1).setFixedFrequencyMhz(Mhz{4200.0});
    EXPECT_DOUBLE_EQ(chip_.frequencyMhz(1).value(), 4200.0);
    EXPECT_DOUBLE_EQ(chip_.frequencyMhz(1).value(),
                     util::frequencyOf(chip_.periodPs(1)).value());
    chip_.core(1).setMode(CoreMode::Gated);
    EXPECT_NEAR(chip_.frequencyMhz(1).value(),
                circuit::kPStateMinMhz.value(), 1e-9);
}

TEST(ChipConfigTest, RejectsBadDpllParams)
{
    ChipConfig config;
    config.dpllParams.targetCounts = config.dpllParams.emergencyCounts;
    EXPECT_THROW(Chip(variation::makeReferenceChip(0), config),
                 util::FatalError);
}

TEST_F(ChipTest, IdleSteadyStateNearNominal)
{
    const ChipSteadyState st = chip_.solveSteadyState();
    // The VRM setpoint is chosen so idle cores sit near 1.25 V.
    for (Volts v : st.coreVoltageV)
        EXPECT_NEAR(v.value(), circuit::kVddNominal.value(), 0.01);
    // Idle chip power around 40 W.
    EXPECT_GT(st.chipPowerW.value(), 30.0);
    EXPECT_LT(st.chipPowerW.value(), 50.0);
    // Default ATM idles near 4.6 GHz on every core.
    for (Mhz f : st.coreFreqMhz)
        EXPECT_NEAR(f.value(), circuit::kDefaultAtmIdleMhz.value(),
                    30.0);
}

TEST_F(ChipTest, LoadDropsVoltageAndFrequency)
{
    const ChipSteadyState idle = chip_.solveSteadyState();
    const auto &daxpy = workload::findWorkload("daxpy");
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.assignWorkload(c, &daxpy, 4);
    const ChipSteadyState loaded = chip_.solveSteadyState();
    EXPECT_GT(loaded.chipPowerW.value(), idle.chipPowerW.value() + 50.0);
    EXPECT_LT(loaded.gridVoltageV.value(),
              idle.gridVoltageV.value() - 0.03);
    for (int c = 0; c < chip_.coreCount(); ++c) {
        EXPECT_LT(loaded.coreFreqMhz[c].value(),
                  idle.coreFreqMhz[c].value() - 80.0)
            << "core " << c;
    }
}

TEST_F(ChipTest, FrequencyPowerSlopeNearTwoMhzPerWatt)
{
    // Eq. 1 calibration: about 2 MHz lost per watt of chip power.
    const ChipSteadyState idle = chip_.solveSteadyState();
    const auto &daxpy = workload::findWorkload("daxpy");
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.assignWorkload(c, &daxpy, 4);
    const ChipSteadyState loaded = chip_.solveSteadyState();
    const double slope =
        (idle.coreFreqMhz[0].value() - loaded.coreFreqMhz[0].value())
        / (loaded.chipPowerW.value() - idle.chipPowerW.value());
    EXPECT_GT(slope, 1.0);
    EXPECT_LT(slope, 3.5);
}

TEST_F(ChipTest, GatedCoreDrawsAlmostNothing)
{
    const ChipSteadyState before = chip_.solveSteadyState();
    chip_.core(0).setMode(CoreMode::Gated);
    const ChipSteadyState after = chip_.solveSteadyState();
    EXPECT_LT(after.chipPowerW.value(), before.chipPowerW.value() - 2.0);
    EXPECT_DOUBLE_EQ(after.coreFreqMhz[0].value(), 0.0);
    EXPECT_GT(after.minActiveFreqMhz().value(), 0.0);
    chip_.core(0).setMode(CoreMode::AtmOverclock);
}

TEST_F(ChipTest, FixedCoresHoldFrequencyUnderLoad)
{
    for (int c = 0; c < chip_.coreCount(); ++c) {
        chip_.core(c).setMode(CoreMode::FixedFrequency);
        chip_.core(c).setFixedFrequencyMhz(circuit::kStaticMarginMhz);
    }
    const auto &x264 = workload::findWorkload("x264");
    for (int c = 0; c < chip_.coreCount(); ++c)
        chip_.assignWorkload(c, &x264);
    const ChipSteadyState st = chip_.solveSteadyState();
    for (Mhz f : st.coreFreqMhz)
        EXPECT_DOUBLE_EQ(f.value(), circuit::kStaticMarginMhz.value());
}

TEST_F(ChipTest, AssignmentBookkeeping)
{
    const auto &gcc = workload::findWorkload("gcc");
    chip_.assignWorkload(2, &gcc);
    EXPECT_EQ(chip_.assignment(2).traits, &gcc);
    EXPECT_EQ(chip_.assignment(2).threads, gcc.defaultThreads);
    chip_.assignWorkload(2, nullptr);
    EXPECT_TRUE(chip_.assignment(2).idle());
    chip_.assignWorkload(4, &gcc, 2);
    EXPECT_EQ(chip_.assignment(4).threads, 2);
    chip_.clearAssignments();
    EXPECT_TRUE(chip_.assignment(4).idle());
    EXPECT_THROW(chip_.assignWorkload(99, &gcc), util::FatalError);
}

TEST_F(ChipTest, PathExposureBySuite)
{
    const auto &silicon = chip_.core(0).silicon();
    EXPECT_DOUBLE_EQ(
        Chip::pathExposurePs(silicon, workload::idleWorkload()).value(),
        0.0);
    EXPECT_DOUBLE_EQ(
        Chip::pathExposurePs(silicon, workload::findWorkload("daxpy"))
            .value(),
        silicon.ubenchExtraPs);
    EXPECT_DOUBLE_EQ(
        Chip::pathExposurePs(silicon, workload::findWorkload("x264"))
            .value(),
        silicon.loadExposurePs);
    EXPECT_DOUBLE_EQ(
        Chip::pathExposurePs(silicon, workload::voltageVirus()).value(),
        silicon.loadExposurePs);
}

TEST_F(ChipTest, SteadyStateHelpers)
{
    ChipSteadyState st;
    st.coreFreqMhz = {Mhz{4800.0}, Mhz{0.0}, Mhz{4900.0}};
    EXPECT_DOUBLE_EQ(st.minActiveFreqMhz().value(), 4800.0);
    EXPECT_DOUBLE_EQ(st.maxFreqMhz().value(), 4900.0);
}

} // namespace
} // namespace atmsim::chip
