#include "fault/fault_spec.h"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "circuit/constants.h"
#include "util/logging.h"
#include "util/parse.h"

namespace atmsim::fault {

namespace {

constexpr std::array<const char *, kFaultKindCount> kKindNames = {
    "cpm-stuck", "cpm-skip", "dropout", "vrm-step",
    "droop-storm", "aging-jump", "thermal",
};

/** All of `value` as a T, or a fatal error naming the field. */
template <typename T>
T
fieldNumber(const std::string &key, const std::string &value,
            const std::string &text)
{
    const std::optional<T> parsed = util::parseNumber<T>(value);
    if (!parsed)
        util::fatal("malformed value '", value, "' for fault field '",
                    key, "' in '", text, "'");
    return *parsed;
}

/** Write `key`, then the shortest text that reads back as `value`. */
void
writeField(std::ostream &os, const char *key, double value)
{
    std::array<char, 32> buf{};
    const char *end =
        std::to_chars(buf.data(), buf.data() + buf.size(), value).ptr;
    os << key;
    os.write(buf.data(), end - buf.data());
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= kKindNames.size())
        util::panic("unknown fault kind ", static_cast<int>(kind));
    return kKindNames[index];
}

FaultKind
faultKindFromName(const std::string &name)
{
    for (std::size_t k = 0; k < kKindNames.size(); ++k) {
        if (name == kKindNames[k])
            return static_cast<FaultKind>(k);
    }
    util::fatal("unknown fault kind '", name, "'");
}

double
FaultSpec::endNs() const
{
    if (durationUs <= 0.0)
        return std::numeric_limits<double>::infinity();
    return (startUs + durationUs) * 1e3;
}

void
FaultSpec::validate(int core_count) const
{
    if (!std::isfinite(startUs) || startUs < 0.0)
        util::fatal("fault start must be finite and non-negative, got ",
                    startUs);
    if (!std::isfinite(durationUs) || durationUs < 0.0)
        util::fatal("fault duration must be finite and non-negative, "
                    "got ", durationUs);
    if (!std::isfinite(magnitude))
        util::fatal("fault magnitude must be finite, got ", magnitude);
    const bool chip_wide = kind == FaultKind::VrmLoadStep;
    if (chip_wide) {
        if (core != -1)
            util::fatal(faultKindName(kind), " is chip-wide; core must "
                        "be -1, got ", core);
    } else if (core < 0 || core >= core_count) {
        util::fatal(faultKindName(kind), " fault core ", core,
                    " out of range [0, ", core_count, ")");
    }
    switch (kind) {
      case FaultKind::CpmStuckAt:
      case FaultKind::CpmSkippedStep:
        if (site < 0 || site >= circuit::kCpmSitesPerCore)
            util::fatal("CPM fault site ", site, " out of range [0, ",
                        circuit::kCpmSitesPerCore, ")");
        // The injector truncates the magnitude to an int count.
        if (magnitude < 0.0
            || magnitude > std::numeric_limits<int>::max())
            util::fatal("CPM fault magnitude must lie in [0, ",
                        std::numeric_limits<int>::max(), "], got ",
                        magnitude);
        break;
      case FaultKind::SensorDropout:
        break;
      case FaultKind::VrmLoadStep:
      case FaultKind::DroopStorm:
        if (magnitude <= 0.0)
            util::fatal(faultKindName(kind),
                        " needs a positive current magnitude (A)");
        break;
      case FaultKind::AgingJump:
        if (magnitude <= -1.0)
            util::fatal("aging jump would make the core infinitely "
                        "fast; magnitude must exceed -1");
        break;
      case FaultKind::ThermalExcursion:
        // No offset may take a core at 0 degC to absolute zero.
        if (magnitude <= -273.15)
            util::fatal("thermal offset must exceed -273.15 degC, got ",
                        magnitude);
        break;
    }
}

std::string
FaultSpec::format() const
{
    std::ostringstream os;
    os << faultKindName(kind) << ":core=" << core;
    if (site != 0)
        os << ",site=" << site;
    writeField(os, ",start=", startUs);
    // Default (+0.0) fields are left out; -0.0 is written, bits kept.
    if (std::bit_cast<std::uint64_t>(durationUs) != 0)
        writeField(os, ",dur=", durationUs);
    if (std::bit_cast<std::uint64_t>(magnitude) != 0)
        writeField(os, ",mag=", magnitude);
    return os.str();
}

FaultSpec
FaultSpec::parse(const std::string &text)
{
    const std::size_t colon = text.find(':');
    FaultSpec spec;
    spec.kind = faultKindFromName(text.substr(0, colon));
    if (colon == std::string::npos)
        return spec;

    std::istringstream fields(text.substr(colon + 1));
    std::string field;
    std::set<std::string> seen;
    while (std::getline(fields, field, ',')) {
        if (field.empty())
            continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            util::fatal("malformed fault field '", field, "' in '",
                        text, "'");
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (!seen.insert(key).second)
            util::fatal("fault field '", key, "' given twice in '", text,
                        "'");
        if (key == "core")
            spec.core = fieldNumber<int>(key, value, text);
        else if (key == "site")
            spec.site = fieldNumber<int>(key, value, text);
        else if (key == "start")
            spec.startUs = fieldNumber<double>(key, value, text);
        else if (key == "dur")
            spec.durationUs = fieldNumber<double>(key, value, text);
        else if (key == "mag")
            spec.magnitude = fieldNumber<double>(key, value, text);
        else
            util::fatal("unknown fault field '", key, "' in '", text,
                        "'");
    }
    return spec;
}

} // namespace atmsim::fault
