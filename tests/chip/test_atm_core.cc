#include <gtest/gtest.h>

#include <memory>

#include "chip/atm_core.h"
#include "circuit/constants.h"
#include "util/logging.h"
#include "util/units.h"
#include "variation/calibration.h"

namespace atmsim::chip {
namespace {

using util::Celsius;
using util::CpmSteps;
using util::Mhz;
using util::Volts;

class AtmCoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        util::Rng rng(31);
        variation::CoreLimitTargets targets;
        targets.idle = 8;
        targets.ubench = 7;
        targets.normal = 6;
        targets.worst = 5;
        targets.idleLimitMhz = 5000.0;
        silicon_ = variation::buildCoreFromTargets("T0C0", targets, 12,
                                                   1.0, rng);
        model_ = std::make_unique<circuit::DelayModel>(
            circuit::DelayModel::makeDefault());
        core_ = std::make_unique<AtmCore>(&silicon_, model_.get(),
                                          &generation_);
    }

    double steadyMhz(double v, double t) const
    {
        return core_->steadyFrequencyMhz(Volts{v}, Celsius{t}).value();
    }

    variation::CoreSiliconParams silicon_;
    std::unique_ptr<circuit::DelayModel> model_;
    long generation_ = 0;
    std::unique_ptr<AtmCore> core_;
};

TEST_F(AtmCoreTest, DefaultSteadyFrequencyIsFactoryAtm)
{
    EXPECT_NEAR(steadyMhz(1.25, 45.0),
                circuit::kDefaultAtmIdleMhz.value(), 1.0);
}

TEST_F(AtmCoreTest, ReductionRaisesSteadyFrequency)
{
    const double base = steadyMhz(1.25, 45.0);
    core_->setCpmReduction(CpmSteps{8});
    EXPECT_NEAR(steadyMhz(1.25, 45.0), 5000.0, 1.0);
    EXPECT_GT(steadyMhz(1.25, 45.0), base);
}

TEST_F(AtmCoreTest, SteadyFrequencyDropsWithVoltage)
{
    EXPECT_LT(steadyMhz(1.18, 45.0), steadyMhz(1.25, 45.0));
}

TEST_F(AtmCoreTest, FixedModeIgnoresEnvironment)
{
    core_->setMode(CoreMode::FixedFrequency);
    core_->setFixedFrequencyMhz(Mhz{4200.0});
    EXPECT_DOUBLE_EQ(steadyMhz(1.18, 70.0), 4200.0);
}

TEST_F(AtmCoreTest, GatedModeReportsZeroSteady)
{
    core_->setMode(CoreMode::Gated);
    EXPECT_DOUBLE_EQ(steadyMhz(1.25, 45.0), 0.0);
}

TEST_F(AtmCoreTest, Validation)
{
    EXPECT_THROW(core_->setFixedFrequencyMhz(Mhz{0.0}),
                 util::FatalError);
    EXPECT_THROW(AtmCore(nullptr, model_.get(), &generation_),
                 util::PanicError);
    EXPECT_THROW(AtmCore(&silicon_, model_.get(), nullptr),
                 util::PanicError);
}

TEST(CoreModeNames, Printable)
{
    EXPECT_STREQ(coreModeName(CoreMode::AtmOverclock), "atm");
    EXPECT_STREQ(coreModeName(CoreMode::Gated), "gated");
}

} // namespace
} // namespace atmsim::chip
