#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace atmsim::util {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed) : origin_(seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::u64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 bits of mantissa.
    return static_cast<double>(u64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::below(0) is undefined");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -n % n;
    for (;;) {
        std::uint64_t r = u64();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::gaussian()
{
    if (haveCached_) {
        haveCached_ = false;
        return cached_;
    }
    // Box-Muller transform.
    double u1 = 0.0;
    // atmlint: allow(float-equality) -- rejection sampling: log(u1)
    // needs u1 strictly above exactly 0.0, which uniform() can emit.
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = radius * std::sin(theta);
    haveCached_ = true;
    return radius * std::cos(theta);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        fatal("exponential rate must be positive, got ", rate);
    double u = 0.0;
    // atmlint: allow(float-equality) -- rejection sampling, as in
    // gaussian(): log(u) requires u != exact 0.0.
    while (u == 0.0)
        u = uniform();
    return -std::log(u) / rate;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    // Derive a child seed from the origin seed and the stream id so
    // that forking is independent of this stream's consumption state.
    std::uint64_t mix = origin_ ^ (0xd1342543de82ef95ULL * (stream_id + 1));
    return Rng(splitMix64(mix));
}

VanDerCorput::VanDerCorput(std::uint64_t scramble) : scramble_(scramble) {}

double
VanDerCorput::at(std::uint64_t index) const
{
    // Bit-reverse the index by swapping ever-smaller halves, then
    // scale into [0, 1). Straight-line code: every characterization
    // trial draws one element.
    const auto swap_blocks = [](std::uint64_t v, int shift,
                                std::uint64_t mask) {
        return ((v >> shift) & mask) | ((v & mask) << shift);
    };
    std::uint64_t r = index + 1; // skip the degenerate 0 -> 0.0 mapping
    r = (r >> 32) | (r << 32);
    r = swap_blocks(r, 16, 0x0000ffff0000ffffULL);
    r = swap_blocks(r, 8, 0x00ff00ff00ff00ffULL);
    r = swap_blocks(r, 4, 0x0f0f0f0f0f0f0f0fULL);
    r = swap_blocks(r, 2, 0x3333333333333333ULL);
    r = swap_blocks(r, 1, 0x5555555555555555ULL);
    const std::uint64_t reversed = r ^ scramble_;
    return static_cast<double>(reversed >> 11) * 0x1.0p-53;
}

double
VanDerCorput::next()
{
    return at(index_++);
}

} // namespace atmsim::util
