/**
 * @file
 * Properties of the dimensional-safety layer (util/quantity.h): the
 * strong types must be free -- same size and triviality as a bare
 * double -- and conversions must be explicit, exact where the math
 * allows it, and order-preserving.
 */

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstring>
#include <limits>
#include <type_traits>

#include <gtest/gtest.h>

#include "util/quantity.h"
#include "util/rng.h"

namespace atmsim {
namespace {

// --- Compile-time guarantees -------------------------------------

// Zero overhead: a Quantity is exactly a double (and CpmSteps an
// int), trivially copyable, so passing and returning by value costs
// the same as the raw representation.
static_assert(sizeof(util::Picoseconds) == sizeof(double));
static_assert(sizeof(util::Nanoseconds) == sizeof(double));
static_assert(sizeof(util::Mhz) == sizeof(double));
static_assert(sizeof(util::Volts) == sizeof(double));
static_assert(sizeof(util::Celsius) == sizeof(double));
static_assert(sizeof(util::Watts) == sizeof(double));
static_assert(sizeof(util::CpmSteps) == sizeof(int));
static_assert(std::is_trivially_copyable_v<util::Picoseconds>);
static_assert(std::is_trivially_copyable_v<util::Mhz>);
static_assert(std::is_trivially_copyable_v<util::CpmSteps>);

// No implicit cross-dimension or raw-double conversions: passing
// Nanoseconds where Picoseconds are expected (the classic silent
// 1000x bug) must not compile, and neither must a bare double.
static_assert(
    !std::is_convertible_v<util::Nanoseconds, util::Picoseconds>);
static_assert(
    !std::is_convertible_v<util::Picoseconds, util::Nanoseconds>);
static_assert(!std::is_convertible_v<double, util::Picoseconds>);
static_assert(!std::is_convertible_v<double, util::Mhz>);
static_assert(!std::is_convertible_v<util::Picoseconds, double>);
static_assert(!std::is_convertible_v<util::Volts, util::Celsius>);
static_assert(!std::is_convertible_v<int, util::CpmSteps>);

// Construction from the representation must still be possible, just
// explicit.
static_assert(
    std::is_constructible_v<util::Picoseconds, double>);
static_assert(std::is_constructible_v<util::CpmSteps, int>);

// Layout guarantees the SoA engine state (sim/soa_state.h) relies
// on: a Quantity is standard-layout with no padding, so unwrapping
// one into a raw-double array and re-wrapping is value-preserving,
// and arrays of either representation are byte-comparable.
static_assert(std::is_standard_layout_v<util::Picoseconds>);
static_assert(std::is_standard_layout_v<util::Volts>);
static_assert(std::is_standard_layout_v<util::Celsius>);
static_assert(alignof(util::Picoseconds) == alignof(double));
static_assert(alignof(util::Volts) == alignof(double));
static_assert(std::is_trivially_destructible_v<util::Volts>);

TEST(QuantityProperty, UnwrapRewrapIsBitwiseExact)
{
    // The SoA kernels keep double arrays and rebuild Quantities at
    // the API boundary; that round trip must never perturb a bit,
    // including signed zeros, denormals, and infinities.
    util::Rng rng(0x50a);
    for (int i = 0; i < 1000; ++i) {
        const double raw = (rng.uniform() - 0.5) * 1e6;
        EXPECT_EQ(util::Volts{raw}.value(), raw);
    }
    for (double edge : {0.0, -0.0,
                        std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::max()}) {
        const double wrapped = util::Picoseconds{edge}.value();
        EXPECT_EQ(std::memcmp(&wrapped, &edge, sizeof edge), 0);
    }
}

TEST(QuantityProperty, ArithmeticMatchesRawDoubleBitwise)
{
    // Quantity operators must lower to the identical double ops, in
    // the same order -- the engine's golden identity digests depend
    // on it.
    util::Rng rng(0x50b);
    for (int i = 0; i < 1000; ++i) {
        const double a = rng.uniform() * 250.0;
        const double b = rng.uniform() * 250.0;
        const double f = rng.uniform() * 2.0;
        EXPECT_EQ((util::Picoseconds{a} + util::Picoseconds{b}).value(),
                  a + b);
        EXPECT_EQ((util::Picoseconds{a} - util::Picoseconds{b}).value(),
                  a - b);
        EXPECT_EQ((util::Picoseconds{a} * f).value(), a * f);
        EXPECT_EQ(util::Picoseconds{a} <= util::Picoseconds{b},
                  a <= b);
    }
}

// --- Runtime properties ------------------------------------------

TEST(QuantityProperty, FrequencyPeriodRoundTripWithinOneUlp)
{
    // f -> period -> f is two divisions; each is correctly rounded,
    // so the round trip stays within one ulp of the original.
    util::Rng rng(0xA11CE5EEDULL);
    for (int i = 0; i < 10000; ++i) {
        const util::Mhz f{rng.uniform(100.0, 8000.0)};
        const util::Picoseconds period = util::periodOf(f);
        const util::Mhz back = util::frequencyOf(period);
        const double ulp =
            std::nextafter(f.value(),
                           std::numeric_limits<double>::infinity())
            - f.value();
        EXPECT_NEAR(back.value(), f.value(), ulp)
            << "f = " << f.value() << " MHz";
    }
}

TEST(QuantityProperty, PeriodFrequencyRoundTripWithinOneUlp)
{
    util::Rng rng(0xB0B5EEDULL);
    for (int i = 0; i < 10000; ++i) {
        const util::Picoseconds p{rng.uniform(120.0, 10000.0)};
        const util::Picoseconds back =
            util::periodOf(util::frequencyOf(p));
        const double ulp =
            std::nextafter(p.value(),
                           std::numeric_limits<double>::infinity())
            - p.value();
        EXPECT_NEAR(back.value(), p.value(), ulp)
            << "p = " << p.value() << " ps";
    }
}

TEST(QuantityProperty, ConversionIsOrderReversing)
{
    // Higher frequency must always mean a shorter period, including
    // for values drawn arbitrarily close together.
    util::Rng rng(0xC0FFEEULL);
    for (int i = 0; i < 10000; ++i) {
        const util::Mhz a{rng.uniform(100.0, 8000.0)};
        const util::Mhz b{rng.uniform(100.0, 8000.0)};
        // atmlint: allow(float-equality) -- duplicate draws really
        // are bit-identical; anything else must order strictly.
        if (a == b)
            continue;
        const util::Mhz lo = std::min(a, b);
        const util::Mhz hi = std::max(a, b);
        EXPECT_GT(util::periodOf(lo), util::periodOf(hi));
    }
}

TEST(QuantityProperty, OrderingMatchesUnderlyingValue)
{
    util::Rng rng(0xDEADULL);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-1e6, 1e6);
        const double y = rng.uniform(-1e6, 1e6);
        const util::Picoseconds qx{x};
        const util::Picoseconds qy{y};
        EXPECT_EQ(qx < qy, x < y);
        // atmlint: allow(float-equality) -- this property test
        // asserts Quantity::operator== forwards bit-exactly.
        EXPECT_EQ(qx == qy, x == y);
        EXPECT_EQ(qx <=> qy, x <=> y);
    }
}

TEST(QuantityProperty, ArithmeticMatchesUnderlyingValue)
{
    util::Rng rng(0xFEEDULL);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-1e3, 1e3);
        const double y = rng.uniform(-1e3, 1e3);
        const double k = rng.uniform(-8.0, 8.0);
        const util::Watts qx{x};
        const util::Watts qy{y};
        EXPECT_EQ((qx + qy).value(), x + y);
        EXPECT_EQ((qx - qy).value(), x - y);
        EXPECT_EQ((qx * k).value(), x * k);
        // atmlint: allow(float-equality) -- exact division-by-zero
        // guard on the raw drawn value.
        if (y != 0.0) {
            EXPECT_EQ(qx / qy, x / y); // ratio is dimensionless
            EXPECT_EQ((qx / y).value(), x / y);
        }
    }
}

TEST(QuantityProperty, CpmStepsArithmetic)
{
    const util::CpmSteps a{7};
    const util::CpmSteps b{3};
    EXPECT_EQ((a + b).value(), 10);
    EXPECT_EQ((a - b).value(), 4);
    EXPECT_EQ((-b).value(), -3);
    EXPECT_LT(b, a);
    util::CpmSteps c = a;
    c += b;
    EXPECT_EQ(c.value(), 10);
    c -= a;
    EXPECT_EQ(c.value(), 3);
}

} // namespace
} // namespace atmsim
