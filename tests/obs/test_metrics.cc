#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"

namespace atmsim::obs {
namespace {

TEST(Counter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42);
    c.reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, SetAddReset)
{
    Gauge g;
    g.set(2.5);
    g.add(0.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramLinear, BucketEdgesAreUniform)
{
    Histogram h = Histogram::linear(0.0, 10.0, 5);
    ASSERT_EQ(h.bucketCount(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        const double lo = 2.0 * static_cast<double>(i);
        EXPECT_DOUBLE_EQ(h.bucketLo(i), lo);
        EXPECT_DOUBLE_EQ(h.bucketHi(i), lo + 2.0);
    }
}

TEST(HistogramLinear, RecordsIntoCorrectBucket)
{
    Histogram h = Histogram::linear(0.0, 10.0, 5);
    h.record(0.0);  // bucket 0 (inclusive lower edge)
    h.record(1.99); // bucket 0
    h.record(2.0);  // bucket 1 (edges are [lo, hi))
    h.record(9.99); // bucket 4
    EXPECT_EQ(h.bucketHits(0), 2);
    EXPECT_EQ(h.bucketHits(1), 1);
    EXPECT_EQ(h.bucketHits(4), 1);
    EXPECT_EQ(h.underflow(), 0);
    EXPECT_EQ(h.overflow(), 0);
    EXPECT_EQ(h.count(), 4);
}

TEST(HistogramLinear, UnderflowAndOverflowAreCounted)
{
    Histogram h = Histogram::linear(0.0, 10.0, 5);
    h.record(-0.001); // below the first edge
    h.record(10.0);   // at the last edge: overflow ([lo, hi))
    h.record(1e9);
    EXPECT_EQ(h.underflow(), 1);
    EXPECT_EQ(h.overflow(), 2);
    EXPECT_EQ(h.count(), 3); // moments still track every sample
    EXPECT_DOUBLE_EQ(h.minSeen(), -0.001);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 1e9);
}

TEST(HistogramExplicit, EdgesPartitionAsGiven)
{
    Histogram h = Histogram::explicitEdges({0.0, 1.0, 10.0, 100.0});
    ASSERT_EQ(h.bucketCount(), 3u);
    EXPECT_DOUBLE_EQ(h.bucketLo(1), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(1), 10.0);
    h.record(0.5);
    h.record(5.0);
    h.record(50.0);
    h.record(99.999);
    EXPECT_EQ(h.bucketHits(0), 1);
    EXPECT_EQ(h.bucketHits(1), 1);
    EXPECT_EQ(h.bucketHits(2), 2);
}

TEST(Histogram, MomentsAreExact)
{
    Histogram h = Histogram::linear(0.0, 10.0, 2);
    h.record(1.0);
    h.record(3.0);
    EXPECT_DOUBLE_EQ(h.sum(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_DOUBLE_EQ(h.minSeen(), 1.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 3.0);
}

TEST(Histogram, ResetZerosBinsButKeepsLayout)
{
    Histogram h = Histogram::linear(0.0, 10.0, 5);
    h.record(5.0);
    h.record(-1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.underflow(), 0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    ASSERT_EQ(h.bucketCount(), 5u);
    h.record(5.0);
    EXPECT_EQ(h.bucketHits(2), 1);
}

TEST(Histogram, Validation)
{
    EXPECT_THROW(Histogram::linear(0.0, 10.0, 0), util::FatalError);
    EXPECT_THROW(Histogram::linear(5.0, 5.0, 4), util::FatalError);
    EXPECT_THROW(Histogram::explicitEdges({1.0}), util::FatalError);
    EXPECT_THROW(Histogram::explicitEdges({1.0, 0.5}),
                 util::FatalError);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableInstances)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("engine.steps");
    a.inc(5);
    Counter &b = reg.counter("engine.steps");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 5);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), util::FatalError);
    EXPECT_THROW(reg.histogram("x", Histogram::linear(0, 1, 2)),
                 util::FatalError);
}

TEST(MetricsRegistry, HistogramPrototypeOnlyUsedOnce)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h", Histogram::linear(0, 10, 5));
    h.record(5.0);
    Histogram &again =
        reg.histogram("h", Histogram::linear(0, 100, 50));
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.bucketCount(), 5u); // first layout kept
}

TEST(MetricsRegistry, SnapshotIsSortedAndComparable)
{
    MetricsRegistry reg;
    reg.counter("b.count").inc(2);
    reg.gauge("a.level").set(1.5);
    reg.histogram("c.h", Histogram::linear(0, 1, 2)).record(0.4);

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries[0].name, "a.level");
    EXPECT_EQ(snap.entries[1].name, "b.count");
    EXPECT_EQ(snap.entries[2].name, "c.h");

    EXPECT_TRUE(snap == reg.snapshot());
    reg.counter("b.count").inc();
    EXPECT_FALSE(snap == reg.snapshot());

    const MetricSnapshotEntry *found = snap.find("b.count");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->counter, 2);
    EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsRegistry, ResetZerosEverything)
{
    MetricsRegistry reg;
    reg.counter("c").inc(3);
    reg.gauge("g").set(2.0);
    reg.histogram("h", Histogram::linear(0, 1, 2)).record(0.5);
    reg.reset();
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("c")->counter, 0);
    EXPECT_DOUBLE_EQ(snap.find("g")->gauge, 0.0);
    EXPECT_EQ(snap.find("h")->histogram.count(), 0);
    EXPECT_EQ(snap.find("h")->histogram.bucketCount(), 2u);
}

TEST(Histogram, MergeCombinesBinsAndMoments)
{
    Histogram a = Histogram::linear(0.0, 10.0, 5);
    Histogram b = Histogram::linear(0.0, 10.0, 5);
    a.record(1.0);
    a.record(-2.0); // underflow
    b.record(3.0);
    b.record(12.0); // overflow
    a.merge(b);
    EXPECT_EQ(a.count(), 4);
    EXPECT_EQ(a.underflow(), 1);
    EXPECT_EQ(a.overflow(), 1);
    EXPECT_DOUBLE_EQ(a.sum(), 14.0);
    EXPECT_DOUBLE_EQ(a.minSeen(), -2.0);
    EXPECT_DOUBLE_EQ(a.maxSeen(), 12.0);
    EXPECT_EQ(a.bucketHits(0), 1);
    EXPECT_EQ(a.bucketHits(1), 1);
}

TEST(Histogram, MergeEmptySidesAreNeutral)
{
    Histogram a = Histogram::linear(0.0, 10.0, 5);
    Histogram b = Histogram::linear(0.0, 10.0, 5);
    b.record(4.0);
    a.merge(b); // empty-this takes other's min/max
    EXPECT_DOUBLE_EQ(a.minSeen(), 4.0);
    EXPECT_DOUBLE_EQ(a.maxSeen(), 4.0);
    Histogram empty = Histogram::linear(0.0, 10.0, 5);
    a.merge(empty); // empty-other is a no-op
    EXPECT_EQ(a.count(), 1);
    EXPECT_DOUBLE_EQ(a.minSeen(), 4.0);
}

TEST(Histogram, MergeLayoutMismatchIsFatal)
{
    Histogram a = Histogram::linear(0.0, 10.0, 5);
    Histogram coarse = Histogram::linear(0.0, 10.0, 2);
    Histogram shifted = Histogram::linear(1.0, 11.0, 5);
    Histogram custom = Histogram::explicitEdges({0.0, 2.0, 10.0});
    EXPECT_THROW(a.merge(coarse), util::FatalError);
    EXPECT_THROW(a.merge(shifted), util::FatalError);
    EXPECT_THROW(a.merge(custom), util::FatalError);
}

TEST(MetricsRegistry, MergeFromFoldsShards)
{
    MetricsRegistry total;
    total.counter("trials").inc(2);
    total.gauge("level").set(1.0);
    total.histogram("h", Histogram::linear(0, 10, 5)).record(1.0);

    MetricsRegistry shard;
    shard.counter("trials").inc(3);
    shard.counter("shard.only").inc(1);
    shard.gauge("level").set(2.5);
    shard.histogram("h", Histogram::linear(0, 10, 5)).record(7.0);

    total.mergeFrom(shard);
    const MetricsSnapshot snap = total.snapshot();
    EXPECT_EQ(snap.find("trials")->counter, 5);
    EXPECT_EQ(snap.find("shard.only")->counter, 1);
    EXPECT_DOUBLE_EQ(snap.find("level")->gauge, 2.5); // last merge wins
    EXPECT_EQ(snap.find("h")->histogram.count(), 2);
}

TEST(MetricsRegistry, MergeFromSelfDoublesCounters)
{
    // Self-merge is allowed (the snapshot is taken first): counters
    // double, gauges and layouts survive.
    MetricsRegistry reg;
    reg.counter("c").inc(4);
    reg.gauge("g").set(1.5);
    reg.mergeFrom(reg);
    EXPECT_EQ(reg.snapshot().find("c")->counter, 8);
    EXPECT_DOUBLE_EQ(reg.snapshot().find("g")->gauge, 1.5);
}

TEST(MetricsRegistry, TextAndJsonExport)
{
    MetricsRegistry reg;
    reg.counter("engine.steps").inc(7);
    reg.gauge("grid.min_v").set(0.97);

    std::ostringstream text;
    reg.writeText(text);
    EXPECT_NE(text.str().find("engine.steps"), std::string::npos);
    EXPECT_NE(text.str().find("7"), std::string::npos);

    std::ostringstream json;
    reg.writeJson(json);
    EXPECT_NE(json.str().find("\"engine.steps\""), std::string::npos);
    EXPECT_NE(json.str().find("\"counter\""), std::string::npos);
}

TEST(MetricKindNames, Printable)
{
    EXPECT_STREQ(metricKindName(MetricKind::Counter), "counter");
    EXPECT_STREQ(metricKindName(MetricKind::Gauge), "gauge");
    EXPECT_STREQ(metricKindName(MetricKind::Histogram), "histogram");
}

} // namespace
} // namespace atmsim::obs
