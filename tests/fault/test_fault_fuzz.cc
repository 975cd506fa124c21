// Deterministic mutation fuzzer for the fault-spec parsers. Valid spec
// strings drawn from the grammar are mutated by seeded byte flips,
// truncations and splices; every input must either be rejected with a
// util::FatalError or parse to a spec that validates and reads back
// bit for bit from its own format().

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_campaign.h"
#include "fault/fault_spec.h"
#include "spec_draw.h"
#include "util/logging.h"
#include "util/rng.h"

namespace atmsim::fault {
namespace {

/** Inputs per target; a fixed budget keeps sanitizer builds bounded. */
constexpr int kInputs = 20000;
constexpr int kCores = 8;

using test_support::drawBelow;

/** A valid spec string. */
std::string
validText(util::Rng &rng)
{
    return test_support::drawSpec(rng, kCores, 5).format();
}

/** One to three seeded edits of `text`: a bit flip, a grammar byte
 *  written over another, a truncation, or a splice with `donor`. */
std::string
mutate(util::Rng &rng, std::string text, const std::string &donor)
{
    constexpr std::string_view kGrammar =
        "0123456789.-+eE:=,;xnaif cdgkmoprstuv";
    const int edits = 1 + drawBelow(rng, 3);
    for (int e = 0; e < edits; ++e) {
        const int at = drawBelow(rng, static_cast<int>(text.size()) + 1);
        const auto pos = static_cast<std::size_t>(at);
        switch (drawBelow(rng, 4)) {
          case 0:
            if (pos < text.size())
                text[pos] = static_cast<char>(
                    text[pos] ^ static_cast<char>(1 << drawBelow(rng, 8)));
            break;
          case 1:
            if (pos < text.size())
                text[pos] = kGrammar[static_cast<std::size_t>(drawBelow(
                    rng, static_cast<int>(kGrammar.size())))];
            break;
          case 2:
            text.resize(pos);
            break;
          case 3:
            text = text.substr(0, pos)
                 + donor.substr(static_cast<std::size_t>(drawBelow(
                     rng, static_cast<int>(donor.size()) + 1)));
            break;
        }
    }
    return text;
}

/** Keeps the fatal lines of the rejected inputs out of the test log. */
class FaultSpecFuzz : public ::testing::Test
{
  protected:
    FaultSpecFuzz() { util::setLogSink(&silent_); }
    ~FaultSpecFuzz() override { util::setLogSink(nullptr); }

  private:
    struct Silent : util::LogSink
    {
        void write(util::LogLevel, const std::string &) override {}
    } silent_;
};

/** Same spec, with every double compared bit for bit. */
void
expectSameBits(const FaultSpec &a, const FaultSpec &b,
               const std::string &input)
{
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    EXPECT_EQ(a, b) << input;
    EXPECT_EQ(bits(a.startUs), bits(b.startUs)) << input;
    EXPECT_EQ(bits(a.durationUs), bits(b.durationUs)) << input;
    EXPECT_EQ(bits(a.magnitude), bits(b.magnitude)) << input;
}

TEST_F(FaultSpecFuzz, MutatedSpecsRejectOrRoundTrip)
{
    util::Rng rng(0x5bec1ULL);
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kInputs; ++i) {
        const std::string input =
            mutate(rng, validText(rng), validText(rng));
        try {
            const FaultSpec spec = FaultSpec::parse(input);
            spec.validate(kCores);
            expectSameBits(FaultSpec::parse(spec.format()), spec, input);
            ++accepted;
        } catch (const util::FatalError &) {
            ++rejected;
        }
    }
    // Both outcomes must be common, or the fuzzer tests nothing.
    EXPECT_GT(accepted, kInputs / 10);
    EXPECT_GT(rejected, kInputs / 10);
}

TEST_F(FaultSpecFuzz, MutatedCampaignsRejectOrRoundTrip)
{
    util::Rng rng(0xca3ba19ULL);
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kInputs; ++i) {
        std::string text;
        for (int n = 1 + drawBelow(rng, 3); n > 0; --n)
            text += validText(rng) + ';';
        const std::string input = mutate(rng, text, validText(rng));
        try {
            const FaultCampaign campaign = FaultCampaign::parse(input);
            campaign.validate(kCores);
            std::string formatted;
            for (const FaultSpec &spec : campaign.specs())
                formatted += spec.format() + ';';
            const FaultCampaign back = FaultCampaign::parse(formatted);
            ASSERT_EQ(back.size(), campaign.size()) << input;
            for (std::size_t s = 0; s < back.size(); ++s)
                expectSameBits(back.spec(s), campaign.spec(s), input);
            ++accepted;
        } catch (const util::FatalError &) {
            ++rejected;
        }
    }
    EXPECT_GT(accepted, kInputs / 10);
    EXPECT_GT(rejected, kInputs / 10);
}

} // namespace
} // namespace atmsim::fault
