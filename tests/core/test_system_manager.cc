#include <gtest/gtest.h>

#include <algorithm>

#include "core/system_manager.h"
#include "util/logging.h"
#include "workload/catalog.h"

namespace atmsim::core {
namespace {

class SystemManagerTest : public ::testing::Test
{
  protected:
    SystemManagerTest()
        : server_(chip::System::makeReference()), manager_(&server_)
    {
    }

    CriticalJob
    job(const std::string &name, double qos = 1.10)
    {
        return {&workload::findWorkload(name), qos};
    }

    chip::System server_;
    SystemManager manager_;
};

TEST_F(SystemManagerTest, ManagesBothChips)
{
    EXPECT_EQ(manager_.chipCount(), 2);
    // Deployed frequencies follow the calibration (P0C3 fast, P0C7
    // slow).
    EXPECT_GT(manager_.deployedFreqMhz(0, 3),
              manager_.deployedFreqMhz(0, 7) + 200.0);
}

TEST_F(SystemManagerTest, SingleJobGetsFastestCoreServerWide)
{
    const SystemScheduleResult result = manager_.scheduleBatch(
        {job("squeezenet")}, &workload::findWorkload("raytrace"));
    ASSERT_EQ(result.placements.size(), 1u);
    const JobPlacement &placement = result.placements.front();
    // The fastest deployed core server-wide must host the job.
    double best = 0.0;
    for (int p = 0; p < 2; ++p) {
        for (int c = 0; c < 8; ++c)
            best = std::max(best, manager_.deployedFreqMhz(p, c));
    }
    EXPECT_DOUBLE_EQ(manager_.deployedFreqMhz(placement.chip,
                                              placement.core),
                     best);
    EXPECT_TRUE(result.allQosMet());
}

TEST_F(SystemManagerTest, BatchSpreadsAcrossSockets)
{
    const SystemScheduleResult result = manager_.scheduleBatch(
        {job("squeezenet"), job("seq2seq"), job("babi"), job("vips")},
        &workload::findWorkload("blackscholes"));
    ASSERT_EQ(result.placements.size(), 4u);
    // No two jobs share a core.
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = i + 1; j < 4; ++j) {
            EXPECT_FALSE(result.placements[i].chip
                             == result.placements[j].chip
                         && result.placements[i].core
                                == result.placements[j].core);
        }
    }
    EXPECT_TRUE(result.allQosMet());
    EXPECT_EQ(result.chipStates.size(), 2u);
}

TEST_F(SystemManagerTest, HardJobsThrottleTheirChip)
{
    // ferret needs throttling when co-located with busy backgrounds;
    // the per-chip loop must deliver its QoS anyway.
    const SystemScheduleResult result = manager_.scheduleBatch(
        {job("ferret"), job("vgg19")},
        &workload::findWorkload("lu_cb"));
    EXPECT_TRUE(result.allQosMet());
    // Throttling shows up as fixed-frequency background cores.
    int throttled = 0;
    for (int p = 0; p < 2; ++p) {
        for (int c = 0; c < 8; ++c) {
            if (server_.chip(p).core(c).mode()
                == chip::CoreMode::FixedFrequency)
                ++throttled;
        }
    }
    EXPECT_GT(throttled, 0);
}

TEST_F(SystemManagerTest, OutOfReachQosGatesTheBackgroundOfEveryChip)
{
    // Four jobs whose 2x target no throttling can meet: on each chip
    // every background core ends gated and the critical cores keep
    // their ATM configuration.
    const std::vector<CriticalJob> jobs(4, job("ferret", 2.0));
    const SystemScheduleResult result =
        manager_.scheduleBatch(jobs, &workload::findWorkload("lu_cb"));
    std::vector<std::vector<bool>> critical(2, std::vector<bool>(8));
    for (const JobPlacement &placement : result.placements) {
        EXPECT_FALSE(placement.qosMet);
        critical[placement.chip][placement.core] = true;
    }
    for (int p = 0; p < 2; ++p) {
        ASSERT_NE(std::count(critical[p].begin(), critical[p].end(), true),
                  0)
            << "no job landed on chip " << p;
        for (int c = 0; c < 8; ++c) {
            EXPECT_EQ(server_.chip(p).core(c).mode(),
                      critical[p][c] ? chip::CoreMode::AtmOverclock
                                     : chip::CoreMode::Gated)
                << "P" << p << "C" << c;
        }
    }
}

TEST_F(SystemManagerTest, FullHouseStillPlaces)
{
    std::vector<CriticalJob> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back(job("babi", 1.02));
    const SystemScheduleResult result =
        manager_.scheduleBatch(jobs, nullptr);
    EXPECT_EQ(result.placements.size(), 16u);
    EXPECT_TRUE(result.allQosMet());
}

TEST_F(SystemManagerTest, Validation)
{
    EXPECT_THROW(SystemManager(nullptr), util::PanicError);
    std::vector<CriticalJob> too_many(17, job("babi"));
    EXPECT_THROW(manager_.scheduleBatch(too_many, nullptr),
                 util::FatalError);
    std::vector<CriticalJob> null_job(1);
    EXPECT_THROW(manager_.scheduleBatch(null_job, nullptr),
                 util::FatalError);
    EXPECT_THROW(manager_.managerFor(5), util::FatalError);
    EXPECT_THROW((void)manager_.deployedFreqMhz(5, 0), util::FatalError);
}

} // namespace
} // namespace atmsim::core
