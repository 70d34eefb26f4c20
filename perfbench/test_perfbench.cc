/**
 * @file
 * Tests of the benchmark's own code: order statistics, span self
 * time and coverage, the result check, and the per-layer metric list
 * against BENCHMARK.json. Short smoke runs of every workload are
 * separate ctest entries (see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check.hh"
#include "common/json.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; i--)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
    EXPECT_DOUBLE_EQ(percentile({4}, 99), 4);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(5), 50);
    EXPECT_EQ(tailPercentile(19), 50);
    EXPECT_EQ(tailPercentile(20), 50);
    EXPECT_EQ(tailPercentile(100), 90);
    EXPECT_EQ(tailPercentile(999), 90);
    EXPECT_EQ(tailPercentile(1000), 99);
    EXPECT_EQ(tailPercentile(10000), 99.9);
}

namespace {

Span
span(const char *name, int64_t a, int64_t b, int parent, int64_t op = 0)
{
    Span s;
    s.name = name;
    s.startNs = a;
    s.endNs = b;
    s.parent = parent;
    s.op = op;
    return s;
}

} // namespace

TEST(Spans, SelfTimeSubtractsDirectChildrenOnce)
{
    SpanRecorder rec(true);
    int op = rec.add(span("op", 0, 1000, -1));
    int a = rec.add(span("a", 100, 400, op));
    rec.add(span("a.inner", 150, 350, a));      // grandchild of op
    rec.add(span("b", 300, 600, op));           // overlaps a
    rec.add(span("c", 900, 1200, op));          // runs past the op
    // Children of op cover [100, 600) + [900, 1000) = 600 ns.
    EXPECT_NEAR(rec.selfSeconds(op), 400e-9, 1e-15);
    EXPECT_NEAR(rec.childCoverage(op), 0.6, 1e-12);
    // a's only child covers 200 of its 300 ns.
    EXPECT_NEAR(rec.selfSeconds(a), 100e-9, 1e-15);
    EXPECT_NEAR(rec.selfSeconds(2), 200e-9, 1e-15);
}

TEST(Spans, RecordedSpansNestAndCover)
{
    SpanRecorder rec(true);
    {
        ScopedSpan op(rec, "op", 7);
        ScopedSpan layer(rec, "layer", 7);
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].op, 7);
    EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
    EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);
    EXPECT_GE(rec.selfSeconds(0), 0);

    int outer = rec.begin("outer", 1);
    rec.begin("inner", 1);
    EXPECT_THROW(rec.end(outer), std::logic_error);
}

TEST(Spans, DisabledRecorderRecordsNothing)
{
    SpanRecorder rec(false);
    {
        ScopedSpan s(rec, "op", 0);
    }
    EXPECT_TRUE(rec.spans().empty());
}

TEST(Check, RepeatsMustMatchTheFirstOpOfTheirKind)
{
    ResultCheck c;
    EXPECT_TRUE(c.check("zcomp", {{"zcomp.cycles", 5}}).empty());
    EXPECT_TRUE(c.check("uncompressed", {{"uncompressed.cycles", 9}}).empty());
    EXPECT_TRUE(c.check("zcomp", {{"zcomp.cycles", 5}}).empty());
    EXPECT_EQ(c.check("zcomp", {{"zcomp.cycles", 5.000001}}).size(), 1u);
    EXPECT_EQ(c.check("zcomp", {}).size(), 1u);
    EXPECT_EQ(c.check("zcomp", {{"zcomp.cycles", 5}, {"x", 1}}).size(), 1u);
}

TEST(Check, ExpectedValuesAreExact)
{
    // Each case is the first op of its kind, so only the expected
    // values can fail it.
    ResultCheck c;
    c.setExpected(
        {{"k", {{"a", 1}}}, {"k2", {{"b", 2}}}, {"k3", {{"b", 2}}}});
    EXPECT_TRUE(c.check("k", {{"a", 1}}).empty());
    EXPECT_EQ(c.check("k2", {{"b", 3}}).size(), 1u);
    EXPECT_EQ(c.check("k3", {{"b", 2}, {"c", 3}}).size(), 1u);
    EXPECT_EQ(c.check("k4", {{"c", 3}}).size(), 1u);
}

TEST(Check, MissingExpectedKeyFails)
{
    // An op that stops producing a stored key (a scheme left the
    // registry, a shape or policy was renamed) fails even when it
    // agrees with the first op of its kind.
    ResultCheck c;
    c.setExpected({{"k", {{"a", 1}, {"b", 2}}}});
    std::vector<std::string> bad = c.check("k", {{"a", 1}});
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0].rfind("b: missing", 0), 0u) << bad[0];
    EXPECT_EQ(c.check("k", {{"a", 1}}).size(), 1u);
}

TEST(Check, PerturbedExpectationFailsEveryOp)
{
    // What --perturb-expected does: one stored value moves by one.
    ResultCheck c;
    Expected exp = {{"k", {{"cycles", 100}, {"bytes", 64}}}};
    exp.begin()->second.begin()->second += 1;
    c.setExpected(exp);
    for (int i = 0; i < 3; i++)
        EXPECT_FALSE(c.check("k", {{"cycles", 100}, {"bytes", 64}}).empty());
}

TEST(Check, ExpectedFileRoundTrips)
{
    // ctest runs this in the build directory.
    const std::string path = "perfbench_check_test.json";
    std::remove(path.c_str());
    Expected a = {{"x", {{"x.cycles", 4898584.607849238},
                         {"x.bytes", 86841000}}},
                  {"y", {{"y.cycles", 3}}}};
    storeExpected(path, "w1", a);
    storeExpected(path, "w2", {{"k", {{"y", 1}}}});
    EXPECT_EQ(loadExpected(path, "w1"), a);
    EXPECT_EQ(loadExpected(path, "w2").at("k").at("y"), 1);
    EXPECT_THROW(loadExpected(path, "w3"), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Workloads, NamesAndPerLayerTemplate)
{
    for (const std::string &w : workloadNames())
        EXPECT_NE(makeWorkload(w), nullptr);
    EXPECT_THROW(makeWorkload("nope"), std::invalid_argument);
    Metrics m = perLayerMetricTemplate();
    EXPECT_TRUE(m.count("sim.run_s.zcomp"));
    EXPECT_TRUE(m.count("cachecomp.ebpc.mb_per_s"));
    for (const auto &[name, metric] : m)
        EXPECT_FALSE(metric.unit.empty()) << name;
}

TEST(Workloads, PerLayerTemplateMatchesBenchmarkJson)
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
    std::ostringstream text;
    text << in.rdbuf();
    zcomp::Json root = zcomp::Json::parse(text.str());
    const zcomp::Json *listed = root.find("per_layer");
    ASSERT_NE(listed, nullptr);
    Metrics m = perLayerMetricTemplate();
    ASSERT_EQ(listed->size(), m.size());
    for (size_t i = 0; i < listed->size(); i++) {
        const std::string name = listed->at(i).find("name")->asString();
        ASSERT_TRUE(m.count(name)) << name;
        EXPECT_EQ(m[name].unit, listed->at(i).find("unit")->asString())
            << name;
    }
}
