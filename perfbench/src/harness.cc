#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace atmsim::perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- Inputs -----------------------------------------------------------

std::uint64_t
InputRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
InputRng::uniform(double lo, double hi)
{
    const double u =
        static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

std::uint64_t
InputRng::below(std::uint64_t n)
{
    if (n == 0)
        util::panic("InputRng::below(0)");
    return next() % n;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    InputRng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
    rng.next();
    InputRng mixed(rng.next() ^ (index * 0x9e3779b97f4a7c15ULL));
    return mixed.next();
}

// --- Sample statistics ------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailValue
tailValue(std::vector<double> values)
{
    TailValue tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n <= kTailBeyond) {
        tail.value = values.back();
        tail.percentile = 100.0;
        return tail;
    }
    // Index n-1-k has exactly k samples after it.
    const std::size_t idx = n - 1 - kTailBeyond;
    tail.value = values[idx];
    tail.beyond = kTailBeyond;
    tail.percentile =
        100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
    tail.qualified = true;
    return tail;
}

// --- Metric names -----------------------------------------------------

namespace {

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.'
            || c == '-';
    });
}

// --- Tracing ----------------------------------------------------------

std::vector<double>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const long p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[i]) {
            const double lo = std::max(spans[c].startNs, s.startNs);
            const double hi = std::min(spans[c].endNs, s.endNs);
            if (hi > lo)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0, cur_hi = -1.0;
        for (const auto &[lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::map<std::string, SpanTotals>
summarizeSpans(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesNs(spans);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name];
        t.count += 1;
        t.totalNs += spans[i].endNs - spans[i].startNs;
        t.selfNs += self[i];
    }
    return out;
}

std::atomic<Tracer *> Tracer::active_{nullptr};

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<long> t_openSpans;

} // namespace

void
Tracer::setActive(Tracer *tracer)
{
    active_.store(tracer, std::memory_order_release);
}

Tracer *
Tracer::active()
{
    return active_.load(std::memory_order_acquire);
}

long
Tracer::open(const char *name, long unit)
{
    Span span;
    span.name = name;
    span.parent = t_openSpans.empty() ? -1 : t_openSpans.back();
    span.unit = unit;
    span.startNs = nowNs();
    long index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<long>(spans_.size());
        spans_.push_back(std::move(span));
    }
    t_openSpans.push_back(index);
    return index;
}

void
Tracer::close(long index)
{
    const double end = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].endNs = end;
    }
    if (!t_openSpans.empty() && t_openSpans.back() == index)
        t_openSpans.pop_back();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::writeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"unit\":" << s.unit << '}'
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(const char *name, long unit)
    : tracer_(Tracer::active())
{
    if (tracer_)
        index_ = tracer_->open(name, unit);
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_)
        tracer_->close(index_);
}

// --- Per-layer accumulators -------------------------------------------

void
LayerCounters::add(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += value;
}

double
LayerCounters::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

// --- Results ----------------------------------------------------------

void
Tally::failCheck(const std::string &what)
{
    failedChecks.push_back(what);
    ++failed;
}

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    if (!validMetricName(name))
        util::fatal("perfbench: invalid metric name '", name, "'");
    if (!validUnit(unit))
        util::fatal("perfbench: invalid unit '", unit, "' for ", name);
    if (has(name))
        util::fatal("perfbench: metric '", name, "' reported twice");
    if (!std::isfinite(value))
        util::fatal("perfbench: metric '", name, "' is not finite");
    entries_.push_back({name, value, unit});
}

bool
Report::has(const std::string &name) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry &e) { return e.name == name; });
}

std::string
Report::json(bool correct, long attempted, long failed) const
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
           << e.value << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

double
peakRssMb()
{
    // VmHWM is this image's own high-water mark; ru_maxrss of
    // RUSAGE_SELF would also carry the pre-exec peak of whatever
    // launched atmbench. RUSAGE_CHILDREN reports the largest reaped
    // child (KiB), which covers forked fleet workers.
    long self_kib = 0;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            self_kib = std::strtol(line.c_str() + 6, nullptr, 10);
            break;
        }
    }
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    const long kib = std::max(self_kib, children.ru_maxrss);
    return static_cast<double>(kib) / 1024.0;
}

void
resetPeakRss()
{
    ::malloc_trim(0);
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
    std::ofstream("/proc/self/clear_refs") << "5";
}

} // namespace atmsim::perfbench
