/**
 * @file
 * Deliberately bad header used as a negative test for
 * `tools/atmlint --check units`.  It declares interfaces in exactly the
 * style the dimensional-safety layer forbids: raw doubles carrying a
 * unit in the identifier instead of the strong type (here a caller
 * could pass Nanoseconds where Picoseconds are expected and nothing
 * would complain), and an unseeded standard-library RNG.
 *
 * This file is never compiled; it exists only so ctest can assert
 * that the lint exits nonzero on it.
 */

#pragma once

#include <random>

namespace atmsim::lintfixture {

class BadClock
{
  public:
    // BAD: should be util::Picoseconds -- a Nanoseconds value passed
    // here is silently off by 1000x.
    void setPeriod(double period_ps);

    // BAD: should be util::Mhz / util::Volts / util::Celsius.
    double steadyState(double freq_mhz, double vdd_v, double temp_c);

    // BAD: unseeded standard-library RNG breaks reproducibility;
    // randomness must come from the explicitly seeded util::Rng.
    std::mt19937 gen_;
};

} // namespace atmsim::lintfixture
