/**
 * @file
 * Fig. 11: the test-time stress procedure (voltage virus + power
 * virus across all cores) finds each core's deployable ATM limit;
 * optional one- and two-step rollbacks keep the exposed inter-core
 * variation trend while adding safety. P0C1 and P0C7 show a >200 MHz
 * differential at their limits.
 *
 * With --faults, the deployed (limit) configuration of chip 0 is
 * replayed through the detailed engine under the given fault campaign
 * (';'-separated FaultSpec strings, e.g.
 * "cpm-stuck:core=2,site=0,start=1,dur=4,mag=24") with the safety
 * monitor attached; --seed makes the replay deterministic, so a
 * campaign observed elsewhere can be reproduced exactly.
 */

#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "circuit/constants.h"
#include "core/safety_monitor.h"
#include "core/stress_test.h"
#include "fault/fault_campaign.h"
#include "sim/sim_engine.h"
#include "util/table.h"

using namespace atmsim;

namespace {

/** Replay a fault campaign against the deployed limit configuration. */
void
replayCampaign(const std::string &campaign_text,
               fault::FaultCampaign &campaign, std::uint64_t seed,
               bench::BenchSession &session)
{
    std::cout << "--- fault-campaign replay (seed " << seed << ") ---\n"
              << "campaign: " << campaign_text << "\n";
    auto chip = bench::makeReferenceChip(0);
    core::StressTester tester(chip.get());
    const core::DeployedConfig limit = tester.deriveDeployedConfig(0);
    for (int c = 0; c < chip->coreCount(); ++c) {
        chip->core(c).setMode(chip::CoreMode::AtmOverclock);
        chip->core(c).setCpmReduction(
            util::CpmSteps{limit.reductionPerCore[c]});
    }

    core::SafetyMonitor monitor(chip.get(), limit.reductionPerCore);
    monitor.setObservability(session.observability());

    sim::SimConfig config;
    config.stopOnViolation = false;
    config.runNoisePs = 1.1;
    config.seed = seed;
    session.applyEngineMode(config);
    session.setChip(chip->name());
    session.setFaultCampaign(campaign_text);
    session.setConfig(config);
    sim::SimEngine engine(chip.get(), config);
    engine.setCampaign(&campaign);
    engine.setObserver(&monitor);
    session.observe(engine);
    const sim::RunResult result = engine.run(12.0);
    session.noteEngineRun(result);

    result.safety.print(std::cout);
    util::TextTable table;
    table.setHeader({"core", "violations", "mean MHz", "state"});
    for (int c = 0; c < chip->coreCount(); ++c) {
        table.addRow({chip->core(c).name(),
                      std::to_string(result.coreStats[c].violations),
                      util::fmtInt(result.meanFreqMhz(c)),
                      core::coreSafetyStateName(monitor.state(c))});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::string faults;
    bench::BenchSession session(
        "fig11_stress_test", argc, argv,
        {{"--seed", &seed, "engine seed of the fault replay (default 1)"},
         {"--faults", &faults,
          "replay chip 0's limit configuration under this campaign"}});
    session.setSeed(seed);
    // A bad campaign fails before any output.
    fault::FaultCampaign campaign;
    if (!faults.empty()) {
        campaign = fault::FaultCampaign::parse(faults);
        campaign.validate(circuit::kCoresPerChip);
    }

    bench::banner("Figure 11",
                  "Post-stress-test core frequencies (MHz, idle "
                  "conditions): limit config and 1-2 step rollbacks.");

    for (int p = 0; p < 2; ++p) {
        auto chip = bench::makeReferenceChip(p);
        core::StressTester tester(chip.get());
        const core::DeployedConfig limit =
            tester.deriveDeployedConfig(0);
        const core::DeployedConfig rb1 = tester.deriveDeployedConfig(1);
        const core::DeployedConfig rb2 = tester.deriveDeployedConfig(2);

        util::TextTable table;
        table.setHeader({"core", "limit cfg", "f(limit)", "f(rollback1)",
                         "f(rollback2)"});
        for (int c = 0; c < chip->coreCount(); ++c) {
            table.addRow({chip->core(c).name(),
                          std::to_string(limit.reductionPerCore[c]),
                          util::fmtInt(limit.idleFreqMhz[c]),
                          util::fmtInt(rb1.idleFreqMhz[c]),
                          util::fmtInt(rb2.idleFreqMhz[c])});
        }
        table.print(std::cout);

        const chip::ChipSteadyState env =
            tester.stressEnvironment(limit.reductionPerCore);
        double max_temp = 0.0;
        for (util::Celsius t : env.coreTempC)
            max_temp = std::max(max_temp, t.value());
        std::cout << chip->name() << ": speed differential "
                  << util::fmtInt(limit.speedDifferentialMhz())
                  << " MHz (fastest "
                  << chip->core(limit.fastestCore()).name()
                  << ", slowest "
                  << chip->core(limit.slowestCore()).name()
                  << "); stress environment "
                  << util::fmtInt(env.chipPowerW.value()) << " W, "
                  << util::fmtInt(max_temp) << " degC\n\n";
    }
    std::cout << "thread-worst configurations sustain the stressmarks; "
                 "rollback preserves the variation trend (Fig. 11).\n";

    if (!faults.empty()) {
        std::cout << "\n";
        replayCampaign(faults, campaign, seed, session);
    }
    return 0;
}
