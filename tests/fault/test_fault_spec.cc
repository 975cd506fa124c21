#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "fault/fault_spec.h"
#include "util/logging.h"

namespace atmsim::fault {
namespace {

TEST(FaultKindNames, RoundTrip)
{
    for (int k = 0; k < kFaultKindCount; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        EXPECT_EQ(faultKindFromName(faultKindName(kind)), kind);
    }
}

TEST(FaultKindNames, UnknownNameIsFatal)
{
    EXPECT_THROW(faultKindFromName("meltdown"), util::FatalError);
}

TEST(FaultSpecTest, FormatParseRoundTrip)
{
    FaultSpec spec;
    spec.kind = FaultKind::CpmStuckAt;
    spec.core = 3;
    spec.site = 2;
    spec.startUs = 1.5;
    spec.durationUs = 4.0;
    spec.magnitude = 12.0;
    const FaultSpec back = FaultSpec::parse(spec.format());
    EXPECT_EQ(back.kind, spec.kind);
    EXPECT_EQ(back.core, spec.core);
    EXPECT_EQ(back.site, spec.site);
    EXPECT_DOUBLE_EQ(back.startUs, spec.startUs);
    EXPECT_DOUBLE_EQ(back.durationUs, spec.durationUs);
    EXPECT_DOUBLE_EQ(back.magnitude, spec.magnitude);
}

TEST(FaultSpecTest, FormatIsExact)
{
    // Every double reads back with the bits it was written with, so a
    // debug line names the fault exactly.
    FaultSpec spec = FaultSpec::parse("aging-jump:core=1,mag=0.123456789");
    spec.startUs = 0.1 + 0.2;
    spec.durationUs = 1.0 / 3.0;
    EXPECT_EQ(spec.format(),
              "aging-jump:core=1,start=0.30000000000000004,"
              "dur=0.3333333333333333,mag=0.123456789");
    const FaultSpec back = FaultSpec::parse(spec.format());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.startUs),
              std::bit_cast<std::uint64_t>(spec.startUs));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.durationUs),
              std::bit_cast<std::uint64_t>(spec.durationUs));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.magnitude),
              std::bit_cast<std::uint64_t>(spec.magnitude));
    // A negative zero is not the default and is written out.
    spec.magnitude = -0.0;
    EXPECT_TRUE(std::signbit(FaultSpec::parse(spec.format()).magnitude));
}

TEST(FaultSpecTest, ParseDefaultsMissingFields)
{
    const FaultSpec spec = FaultSpec::parse("dropout:core=2");
    EXPECT_EQ(spec.kind, FaultKind::SensorDropout);
    EXPECT_EQ(spec.core, 2);
    EXPECT_EQ(spec.site, 0);
    EXPECT_DOUBLE_EQ(spec.startUs, 0.0);
    EXPECT_DOUBLE_EQ(spec.durationUs, 0.0);
    EXPECT_DOUBLE_EQ(spec.magnitude, 0.0);
}

TEST(FaultSpecTest, TimesConvertToEngineUnits)
{
    FaultSpec spec;
    spec.startUs = 2.0;
    spec.durationUs = 3.0;
    EXPECT_DOUBLE_EQ(spec.startNs(), 2000.0);
    EXPECT_DOUBLE_EQ(spec.endNs(), 5000.0);
    spec.durationUs = 0.0; // permanent
    EXPECT_TRUE(std::isinf(spec.endNs()));
}

TEST(FaultSpecTest, ParseRejectsMalformedInput)
{
    EXPECT_THROW(FaultSpec::parse("cpm-stuck:core"), util::FatalError);
    EXPECT_THROW(FaultSpec::parse("cpm-stuck:pants=3"),
                 util::FatalError);
    EXPECT_THROW(FaultSpec::parse("cpm-stuck:core=x"), util::FatalError);
    EXPECT_THROW(FaultSpec::parse("warp-core:core=1"), util::FatalError);
}

TEST(FaultSpecTest, ParseRejectsAFieldGivenTwice)
{
    // Last-one-wins would inject somewhere the first field never said.
    for (const char *text :
         {"thermal:core=2,start=1,dur=5,mag=5,mag=25,core=3",
          "thermal:core=2,core=2", "cpm-stuck:core=1,site=0,site=1",
          "dropout:core=0,start=1,start=1", "thermal:core=0,dur=1,dur=2"}) {
        EXPECT_THROW(FaultSpec::parse(text), util::FatalError) << text;
    }
}

TEST(FaultSpecTest, ParseRejectsTrailingText)
{
    // Every numeric field must be a number and nothing else.
    for (const char *text :
         {"thermal:core=2x", "thermal:core=2.0", "cpm-stuck:core=2,site=0x",
          "cpm-stuck:core=2,site=1.5", "thermal:core=2,start=1us",
          "thermal:core=2,dur=4 ", "thermal:core=2,mag=12C"}) {
        EXPECT_THROW(FaultSpec::parse(text), util::FatalError) << text;
    }
}

TEST(FaultSpecTest, NonFiniteFieldsAreRejected)
{
    // Integer fields never parse nan or inf; real fields may parse
    // them, but validate() must refuse the spec.
    for (const char *field : {"core", "site"}) {
        for (const char *value : {"nan", "inf", "-inf"}) {
            const std::string text = std::string("cpm-stuck:core=2,")
                                   + field + '=' + value;
            EXPECT_THROW(FaultSpec::parse(text), util::FatalError)
                << text;
        }
    }
    for (const char *field : {"start", "dur", "mag"}) {
        for (const char *value : {"nan", "inf", "-inf", "NaN"}) {
            const std::string text = std::string("thermal:core=2,")
                                   + field + '=' + value;
            EXPECT_THROW(FaultSpec::parse(text).validate(8),
                         util::FatalError)
                << text;
        }
    }
}

TEST(FaultSpecTest, ValidateChecksCoreRange)
{
    FaultSpec spec = FaultSpec::parse("thermal:core=7,mag=10");
    spec.validate(8);
    spec.core = 8;
    EXPECT_THROW(spec.validate(8), util::FatalError);
    spec.core = -1;
    EXPECT_THROW(spec.validate(8), util::FatalError);
}

TEST(FaultSpecTest, VrmStepIsChipWideOnly)
{
    FaultSpec spec = FaultSpec::parse("vrm-step:core=-1,mag=5");
    spec.validate(8);
    spec.core = 0;
    EXPECT_THROW(spec.validate(8), util::FatalError);
}

TEST(FaultSpecTest, ValidateChecksMagnitudes)
{
    FaultSpec storm = FaultSpec::parse("droop-storm:core=0,mag=2");
    storm.validate(8);
    storm.magnitude = 0.0;
    EXPECT_THROW(storm.validate(8), util::FatalError);

    FaultSpec aging = FaultSpec::parse("aging-jump:core=0,mag=0.02");
    aging.validate(8);
    aging.magnitude = -1.0;
    EXPECT_THROW(aging.validate(8), util::FatalError);

    FaultSpec stuck = FaultSpec::parse("cpm-stuck:core=0,mag=-1");
    EXPECT_THROW(stuck.validate(8), util::FatalError);

    // A CPM fault names a real site and a magnitude that fits the
    // count it programs; fractional magnitudes are accepted (they
    // truncate).
    for (const char *kind : {"cpm-stuck", "cpm-skip"}) {
        const std::string head = std::string(kind) + ":core=0,";
        FaultSpec::parse(head + "site=4,mag=12.5").validate(8);
        FaultSpec::parse(head + "site=0,mag=2147483647").validate(8);
        EXPECT_THROW(FaultSpec::parse(head + "site=5,mag=1").validate(8),
                     util::FatalError)
            << kind;
        EXPECT_THROW(FaultSpec::parse(head + "site=7,mag=1").validate(8),
                     util::FatalError)
            << kind;
        EXPECT_THROW(
            FaultSpec::parse(head + "site=0,mag=2147483648").validate(8),
            util::FatalError)
            << kind;
        EXPECT_THROW(FaultSpec::parse(head + "site=0,mag=1e12").validate(8),
                     util::FatalError)
            << kind;
    }

    // A thermal offset is a temperature difference; none can reach
    // absolute zero.
    FaultSpec::parse("thermal:core=2,mag=-273.14").validate(8);
    FaultSpec::parse("thermal:core=2,mag=1e6").validate(8);
    for (const char *mag : {"-273.15", "-400", "-1e308"}) {
        EXPECT_THROW(
            FaultSpec::parse(std::string("thermal:core=2,mag=") + mag)
                .validate(8),
            util::FatalError)
            << mag;
    }

    FaultSpec late = FaultSpec::parse("dropout:core=0,start=-1");
    EXPECT_THROW(late.validate(8), util::FatalError);
}

} // namespace
} // namespace atmsim::fault
