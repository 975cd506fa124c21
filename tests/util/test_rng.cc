#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/logging.h"

#include "util/rng.h"

namespace atmsim::util {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.u64(), b.u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.u64() == b.u64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(15);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sum2 = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(21);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(0.5);
    EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ExponentialRejectsBadRate)
{
    Rng rng(23);
    EXPECT_THROW(rng.exponential(0.0), FatalError);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(25);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIndependentOfConsumption)
{
    Rng a(31);
    Rng fork_before = a.fork(5);
    for (int i = 0; i < 100; ++i)
        a.u64();
    Rng fork_after = a.fork(5);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(fork_before.u64(), fork_after.u64());
}

TEST(Rng, ForkStreamsDiffer)
{
    Rng a(33);
    Rng s1 = a.fork(1);
    Rng s2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (s1.u64() == s2.u64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(35);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(37);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto original = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(VanDerCorput, StratifiesEighths)
{
    // Any 8 consecutive draws must place exactly one sample in each
    // eighth of [0, 1) -- the property the characterization repeats
    // rely on.
    for (std::uint64_t scramble : {0ull, 0x123456789abcdefull,
                                   0xdeadbeefdeadbeefull}) {
        VanDerCorput seq(scramble);
        std::set<int> bins;
        for (int i = 0; i < 8; ++i)
            bins.insert(static_cast<int>(seq.at(i) * 8.0));
        EXPECT_EQ(bins.size(), 8u) << "scramble " << scramble;
    }
}

TEST(VanDerCorput, NextMatchesAt)
{
    VanDerCorput a(42), b(42);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.next(), b.at(i));
}

TEST(VanDerCorput, MatchesBitByBitReversal)
{
    // Reference: reverse the bits one at a time.
    const auto reference = [](std::uint64_t index, std::uint64_t scramble) {
        std::uint64_t bits = index + 1;
        std::uint64_t reversed = 0;
        for (int i = 0; i < 64; ++i) {
            reversed = (reversed << 1) | (bits & 1);
            bits >>= 1;
        }
        reversed ^= scramble;
        return static_cast<double>(reversed >> 11) * 0x1.0p-53;
    };
    for (std::uint64_t scramble : {0ull, 0x123456789abcdefull,
                                   0xdeadbeefdeadbeefull}) {
        const VanDerCorput seq(scramble);
        for (std::uint64_t i = 0; i < 4096; ++i)
            ASSERT_EQ(seq.at(i), reference(i, scramble)) << i;
        for (std::uint64_t i : {0x00000000ffffffffull, 0x8000000000000000ull,
                                0xfffffffffffffffeull, 0x0123456789abcdefull})
            ASSERT_EQ(seq.at(i), reference(i, scramble)) << i;
    }
}

TEST(VanDerCorput, ValuesInUnitInterval)
{
    VanDerCorput seq(99);
    for (int i = 0; i < 1000; ++i) {
        const double v = seq.next();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

} // namespace
} // namespace atmsim::util
