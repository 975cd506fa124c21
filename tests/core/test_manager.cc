#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/characterizer.h"
#include "core/manager.h"
#include "util/logging.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::core {
namespace {

class ManagerTest : public ::testing::Test
{
  protected:
    ManagerTest() : chip_(variation::makeReferenceChip(0))
    {
        Characterizer characterizer(&chip_);
        manager_ = std::make_unique<AtmManager>(
            &chip_, characterizer.characterizeChip());
    }

    ScheduleRequest
    request(const std::string &critical, const std::string &background)
    {
        ScheduleRequest req;
        req.critical = &workload::findWorkload(critical);
        req.background = &workload::findWorkload(background);
        return req;
    }

    chip::Chip chip_;
    std::unique_ptr<AtmManager> manager_;
};

TEST_F(ManagerTest, StaticMarginIsBaseline)
{
    const ScenarioResult result = manager_->evaluate(
        Scenario::StaticMargin, request("squeezenet", "lu_cb"));
    EXPECT_NEAR(result.criticalFreqMhz, 4200.0, 1e-6);
    EXPECT_NEAR(result.criticalPerf, 1.0, 1e-9);
}

TEST_F(ManagerTest, ScenarioOrderingMatchesPaper)
{
    // Fig. 14 shape: static < default ATM < fine-tuned unmanaged <
    // managed-max, for a compute-bound critical app.
    const ScheduleRequest req = request("squeezenet", "lu_cb");
    const double p_static =
        manager_->evaluate(Scenario::StaticMargin, req).criticalPerf;
    const double p_default =
        manager_->evaluate(Scenario::DefaultAtmUnmanaged, req)
            .criticalPerf;
    const double p_finetuned =
        manager_->evaluate(Scenario::FineTunedUnmanaged, req)
            .criticalPerf;
    const double p_max =
        manager_->evaluate(Scenario::ManagedMax, req).criticalPerf;
    EXPECT_GT(p_default, p_static + 0.02);
    EXPECT_GT(p_finetuned, p_default + 0.01);
    EXPECT_GT(p_max, p_finetuned + 0.01);
}

TEST_F(ManagerTest, DefaultAtmGainNearSixPercent)
{
    const ScenarioResult result = manager_->evaluate(
        Scenario::DefaultAtmUnmanaged, request("squeezenet", "lu_cb"));
    EXPECT_GT(result.criticalPerf, 1.03);
    EXPECT_LT(result.criticalPerf, 1.10);
}

TEST_F(ManagerTest, ManagedMaxReachesFifteenPercentForComputeBound)
{
    const ScenarioResult result = manager_->evaluate(
        Scenario::ManagedMax, request("squeezenet", "lu_cb"));
    EXPECT_GT(result.criticalPerf, 1.12);
    EXPECT_LT(result.criticalPerf, 1.20);
    // Background cores sit at the lowest p-state.
    for (int c = 0; c < chip_.coreCount(); ++c) {
        if (c == result.criticalCore)
            continue;
        EXPECT_DOUBLE_EQ(result.backgroundCapMhz[c], 2100.0);
    }
}

TEST_F(ManagerTest, ManagedMaxPicksFastestCore)
{
    const ScenarioResult result = manager_->evaluate(
        Scenario::ManagedMax, request("squeezenet", "lu_cb"));
    // P0C3 has the highest fine-tuned frequency on chip 0... but at
    // thread-worst configs the fastest deployed core wins; verify by
    // recomputing.
    const ScheduleRequest req = request("squeezenet", "lu_cb");
    EXPECT_EQ(result.criticalCore, manager_->pickCriticalCore(req));
    EXPECT_NE(result.criticalCore, 7); // never the slow core
}

TEST_F(ManagerTest, BalancedMeetsQosWithThrottling)
{
    ScheduleRequest req = request("ferret", "raytrace");
    req.qosTarget = 1.10;
    const ScenarioResult unmanaged =
        manager_->evaluate(Scenario::FineTunedUnmanaged, req);
    EXPECT_LT(unmanaged.criticalPerf, req.qosTarget);
    const ScenarioResult balanced =
        manager_->evaluate(Scenario::ManagedBalanced, req);
    EXPECT_TRUE(balanced.qosMet);
    EXPECT_GE(balanced.criticalPerf, req.qosTarget - 1e-6);
    EXPECT_GT(balanced.powerBudgetW, 0.0);
}

TEST_F(ManagerTest, BalancedLeavesLowPowerCoRunnersUnthrottled)
{
    // seq2seq : streamcluster meets QoS with the background still at
    // fine-tuned ATM (Sec. VII-D).
    ScheduleRequest req = request("seq2seq", "streamcluster");
    req.qosTarget = 1.10;
    const ScenarioResult result =
        manager_->evaluate(Scenario::ManagedBalanced, req);
    EXPECT_TRUE(result.qosMet);
    for (int c = 0; c < chip_.coreCount(); ++c) {
        if (c == result.criticalCore)
            continue;
        EXPECT_DOUBLE_EQ(result.backgroundCapMhz[c], 0.0)
            << "core " << c << " was throttled";
    }
}

TEST_F(ManagerTest, ColocationRule)
{
    EXPECT_TRUE(AtmManager::colocationAllowed(
        workload::findWorkload("squeezenet"),
        workload::findWorkload("lu_cb")));
    EXPECT_FALSE(AtmManager::colocationAllowed(
        workload::findWorkload("resnet"),
        workload::findWorkload("gcc")));
}

TEST_F(ManagerTest, ConservativePolicyPicksRobustCore)
{
    ScheduleRequest req = request("babi", "blackscholes");
    req.policy = GovernorPolicy::Conservative;
    const int core = manager_->pickCriticalCore(req);
    const auto robust = manager_->governor().robustCores();
    EXPECT_NE(std::find(robust.begin(), robust.end(), core),
              robust.end());
}

TEST_F(ManagerTest, AggressivePolicyBeatsFineTunedForBenignApps)
{
    // The Fig. 13 "aggressive" governor end-to-end: a light critical
    // app on its own best-fit configurations gains over the one-size
    // thread-worst deployment.
    ScheduleRequest fine = request("babi", "blackscholes");
    fine.policy = GovernorPolicy::FineTuned;
    const double p_fine =
        manager_->evaluate(Scenario::ManagedMax, fine).criticalPerf;

    ScheduleRequest aggressive = fine;
    aggressive.policy = GovernorPolicy::Aggressive;
    const double p_aggr =
        manager_->evaluate(Scenario::ManagedMax, aggressive)
            .criticalPerf;
    EXPECT_GT(p_aggr, p_fine + 0.005);
}

TEST_F(ManagerTest, BalancedGatesEveryBackgroundCoreWhenQosIsOutOfReach)
{
    // No throttling reaches a 2x speedup: every background core walks
    // down to the p-state floor and is then gated, the last resort.
    ScheduleRequest req = request("ferret", "raytrace");
    req.qosTarget = 2.0;
    const ScenarioResult result =
        manager_->evaluate(Scenario::ManagedBalanced, req);
    EXPECT_FALSE(result.qosMet);
    for (int c = 0; c < chip_.coreCount(); ++c) {
        if (c == result.criticalCore)
            continue;
        EXPECT_EQ(chip_.core(c).mode(), chip::CoreMode::Gated)
            << "core " << c;
        EXPECT_DOUBLE_EQ(result.backgroundCapMhz[c], -1.0);
    }
    EXPECT_EQ(chip_.core(result.criticalCore).mode(),
              chip::CoreMode::AtmOverclock);
    EXPECT_DOUBLE_EQ(result.backgroundCapMhz[result.criticalCore], 0.0);
}

TEST_F(ManagerTest, BudgetReportedForBalanced)
{
    ScheduleRequest req = request("squeezenet", "lu_cb");
    const ScenarioResult result =
        manager_->evaluate(Scenario::ManagedBalanced, req);
    // The budget is the chip power at which the critical core still
    // reaches the QoS frequency; it must be a plausible chip power.
    EXPECT_GT(result.powerBudgetW, 60.0);
    EXPECT_LT(result.powerBudgetW, 400.0);
}

TEST_F(ManagerTest, MissingCriticalIsFatal)
{
    ScheduleRequest req;
    EXPECT_THROW(manager_->evaluate(Scenario::StaticMargin, req),
                 util::FatalError);
}

TEST(ScenarioNames, Printable)
{
    EXPECT_STREQ(scenarioName(Scenario::ManagedBalanced),
                 "managed-balanced");
    EXPECT_STREQ(scenarioName(Scenario::FineTunedUnmanaged),
                 "fine-tuned-unmanaged");
}

} // namespace
} // namespace atmsim::core
