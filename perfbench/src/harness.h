/**
 * @file
 * The benchmark harness shared by every workload: host clocks, the
 * seed-derived input generator, sample statistics (median and the
 * tail rule), metric-name validation, the span tracer of the traced
 * pass, per-layer accumulators, failure accounting and the one-line
 * JSON result.
 *
 * Host time is what the simulator takes to run; simulated time never
 * enters a timing metric here. All timings use std::chrono's
 * steady_clock.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace atmsim::perfbench {

/** Host monotonic time (seconds). */
[[nodiscard]] double nowSeconds();

/** Host monotonic time (nanoseconds). */
[[nodiscard]] double nowNs();

// --- Inputs -----------------------------------------------------------

/**
 * SplitMix64 stream: the only source of benchmark inputs. It is kept
 * here rather than borrowed from util::Rng so that a change to the
 * library's generator can never change what the benchmark feeds it.
 */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** Independent sub-seed for (stream, index) of a workload seed. */
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed,
                                       std::uint64_t stream,
                                       std::uint64_t index);

// --- Sample statistics ------------------------------------------------

/** Median (mean of the middle pair for even counts); 0 when empty. */
[[nodiscard]] double median(std::vector<double> values);

/** Tail samples the tail rule demands beyond the reported value. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * The tail rule: the value at the highest percentile that still has
 * at least kTailBeyond samples above it, with the sample count.
 * With kTailBeyond or fewer samples no value qualifies; the maximum
 * is reported instead and `qualified` is false.
 */
struct TailValue
{
    double value = 0.0;
    double percentile = 0.0; ///< Share of samples at or below (0-100).
    std::size_t samples = 0;
    std::size_t beyond = 0;  ///< Samples strictly after it in order.
    bool qualified = false;
};

[[nodiscard]] TailValue tailValue(std::vector<double> values);

// --- Metric names -----------------------------------------------------

/** Letter or digit first, then up to 63 of [A-Za-z0-9_.-]. */
[[nodiscard]] bool validMetricName(std::string_view name);

/** 1 to 16 of [A-Za-z0-9_/%.-]. */
[[nodiscard]] bool validUnit(std::string_view unit);

// --- Tracing ----------------------------------------------------------

/** One recorded span; times are host nanoseconds. */
struct Span
{
    std::string name;
    double startNs = 0.0;
    double endNs = 0.0;
    long parent = -1; ///< Index of the enclosing span, -1 for a root.
    long unit = -1;   ///< Unit id; -1 for set-up and checks.
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (overlapping children, as from a
 * parallel region, are counted once).
 */
[[nodiscard]] std::vector<double> selfTimesNs(const std::vector<Span> &spans);

/** Per-name totals over a span list. */
struct SpanTotals
{
    long count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;

    [[nodiscard]] double
    meanMs() const
    {
        return count > 0 ? totalNs / static_cast<double>(count) * 1e-6
                         : 0.0;
    }
};

[[nodiscard]] std::map<std::string, SpanTotals>
summarizeSpans(const std::vector<Span> &spans);

/**
 * In-memory span store. Spans are only recorded while a tracer is
 * installed (setActive); otherwise ScopedSpan reads no clock. Safe to
 * record from several threads; the parent of a span is the innermost
 * open span of the same thread.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Install (or with nullptr remove) the process-wide tracer. */
    static void setActive(Tracer *tracer);
    [[nodiscard]] static Tracer *active();

    /** Open a span; returns its index. */
    long open(const char *name, long unit);

    /** Close a span opened by open(). */
    void close(long index);

    /** Copy of every span recorded so far. */
    [[nodiscard]] std::vector<Span> spans() const;

    /** Write the spans as a JSON array to `path`; false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    static std::atomic<Tracer *> active_;
};

/** RAII span around one call into a layer; free when untraced. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, long unit);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    long index_ = -1;
};

// --- Per-layer accumulators -------------------------------------------

/**
 * Simulated statistics and layer counters folded from engine runs,
 * fleet campaigns and checks. Thread-safe; every field is a plain
 * sum so the fold order never matters.
 */
class LayerCounters
{
  public:
    void add(const std::string &name, double value);
    [[nodiscard]] double get(const std::string &name) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> values_;
};

// --- Results ----------------------------------------------------------

/**
 * Failure accounting of one run: attempted and failed units (chips,
 * on the fleet workload) and the output checks that failed.
 */
struct Tally
{
    long attempted = 0;
    long failed = 0;
    long generatorFailures = 0;
    std::vector<std::string> failedChecks;

    /** Record a failed output check (also a failed unit). */
    void failCheck(const std::string &what);
};

/** Ordered (name, value, unit) metrics printed as the result line. */
class Report
{
  public:
    /** Add a metric; fatal (util::FatalError) on an invalid name or
     *  unit, or a repeated name. */
    void set(const std::string &name, double value, const std::string &unit);

    [[nodiscard]] bool has(const std::string &name) const;

    /** The single result line. */
    [[nodiscard]] std::string json(bool correct, long attempted,
                                   long failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Peak resident set of this process image, or of its largest reaped
 *  child when that is larger (MB). */
[[nodiscard]] double peakRssMb();

/** Return freed heap to the system and restart this image's peak
 *  resident set (VmHWM) from its current resident set. */
void resetPeakRss();

} // namespace atmsim::perfbench
