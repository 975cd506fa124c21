/**
 * @file
 * Self-tests of the benchmark harness: the tail rule, metric-name
 * validation, seed-to-input determinism and span self-time
 * arithmetic. Run with `python3 perfbench/run.py --selftest`; exits
 * non-zero on the first failed expectation.
 */

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

using namespace atmsim::perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

/** Every field of an input, so equal strings mean equal inputs. */
std::string
describe(const FaultCell &cell)
{
    std::ostringstream os;
    os << std::hexfloat << cell.chip << ' ' << cell.deployment << ' '
       << cell.spec.format() << ' ' << cell.spec.magnitude << ' '
       << cell.spec.startUs << ' ' << cell.simSeed;
    return os.str();
}

std::string
describe(const SteadyReplay &replay)
{
    std::ostringstream os;
    os << std::hexfloat << replay.chip << ' ';
    for (SteadyClass c : replay.assignment)
        os << static_cast<int>(c);
    os << ' ' << replay.spec.format() << ' ' << replay.spec.magnitude
       << ' ' << replay.spec.startUs << ' ' << replay.simSeed;
    return os.str();
}

void
tailRule()
{
    // 100 samples 1..100: the value with exactly 10 above it is 90.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const TailValue t = tailValue(v);
    expect(t.qualified, "100 samples qualify for a tail");
    expect(near(t.value, 90.0), "tail of 1..100 is 90");
    expect(t.beyond == 10, "tail leaves 10 samples beyond");
    expect(t.samples == 100, "tail reports the sample count");
    expect(near(t.percentile, 90.0), "tail of 100 samples is p90");

    // 11 samples: the smallest one is the only candidate.
    std::vector<double> eleven;
    for (int i = 0; i < 11; ++i)
        eleven.push_back(i * 2.0);
    const TailValue e = tailValue(eleven);
    expect(e.qualified && near(e.value, 0.0) && e.beyond == 10,
           "11 samples: tail is the minimum with 10 beyond");

    // 10 or fewer samples: nothing has 10 beyond; the max is reported.
    const TailValue few = tailValue({3.0, 1.0, 2.0});
    expect(!few.qualified && near(few.value, 3.0) && few.samples == 3,
           "3 samples: not qualified, maximum reported");

    expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
    expect(near(median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
}

void
metricNames()
{
    expect(validMetricName("unit_ms_p50"), "underscore name");
    expect(validMetricName("sim.steps_per_host_s"), "dotted name");
    expect(validMetricName("9lives-ok"), "digit first, dash inside");
    expect(!validMetricName(""), "empty name");
    expect(!validMetricName("_leading"), "underscore first");
    expect(!validMetricName(".leading"), "dot first");
    expect(!validMetricName("core/safety"), "slash in a name");
    expect(!validMetricName("has space"), "space in a name");
    expect(validMetricName(std::string(64, 'a')), "64 characters");
    expect(!validMetricName(std::string(65, 'a')), "65 characters");
    expect(validUnit("1/s") && validUnit("ms") && validUnit("%"),
           "common units");
    expect(!validUnit("") && !validUnit("m s")
               && !validUnit(std::string(17, 'a')),
           "bad units");
}

void
seedDeterminism()
{
    for (std::uint64_t seed : {1ULL, 2ULL, 12345ULL}) {
        for (long i : {0L, 1L, 999L}) {
            expect(describe(faultCell(seed, i, 32, 8))
                       == describe(faultCell(seed, i, 32, 8)),
                   "fault cell repeats");
            expect(describe(steadyReplay(seed, i, 8, 8))
                       == describe(steadyReplay(seed, i, 8, 8)),
                   "steady replay repeats");
            expect(chipSeed(seed, i) == chipSeed(seed, i),
                   "chip seed repeats");
        }
        expect(fleetSeedBase(seed) == fleetSeedBase(seed),
               "fleet seed base repeats");
    }
    expect(describe(faultCell(1, 0, 32, 8)) != describe(faultCell(2, 0, 32, 8)),
           "different seeds give different cells");
    expect(chipSeed(1, 0) != chipSeed(1, 1), "pool chips differ");
    expect(fleetSeedBase(1) != fleetSeedBase(2),
           "different seeds give different slices");

    // Pinned values: a change here changes every workload's inputs.
    InputRng rng(0);
    expect(rng.next() == 0xe220a8397b1dcdafULL, "SplitMix64 first value");
}

void
spanSelfTime()
{
    // root [0,100) with children [10,30) and [20,50) (overlapping,
    // union 40) and a grandchild [60,70) under child [55,80).
    std::vector<Span> spans = {
        {"root", 0, 100, -1, 0},  {"a", 10, 30, 0, 0},
        {"b", 20, 50, 0, 0},      {"c", 55, 80, 0, 0},
        {"d", 60, 70, 3, 0},      {"other", 200, 210, -1, 1},
    };
    const std::vector<double> self = selfTimesNs(spans);
    expect(near(self[0], 100 - 40 - 25), "root self time");
    expect(near(self[1], 20) && near(self[2], 30), "leaf self time");
    expect(near(self[3], 15), "child minus grandchild");
    expect(near(self[4], 10) && near(self[5], 10), "leaves");

    // A child running past its parent only counts inside it.
    const std::vector<double> clipped =
        selfTimesNs({{"p", 0, 10, -1, 0}, {"c", 5, 20, 0, 0}});
    expect(near(clipped[0], 5), "clipped child");

    const auto totals = summarizeSpans(spans);
    expect(totals.at("root").count == 1
               && near(totals.at("root").selfNs, 35),
           "summary self time");
}

} // namespace

int
main()
{
    tailRule();
    metricNames();
    seedDeterminism();
    spanSelfTime();
    if (g_failures == 0)
        std::cout << "perfbench selftest: all checks passed\n";
    return g_failures == 0 ? 0 : 1;
}
