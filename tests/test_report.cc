/** @file Unit tests for RunReport and the study-row report schema. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "common/report.hh"
#include "sim/exec_context.hh"
#include "stats_path.hh"

using namespace zcomp;
using namespace zcomp::bench;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &p) : path(p) {}
    ~TempPath() { std::remove(path.c_str()); }
};

/** A StudyRow with recognizable synthetic numbers in every field. */
StudyRow
fakeRow()
{
    StudyRow row;
    row.model = "TestNet";
    row.training = true;
    row.prepMillis = 12.5;
    row.results.resize(studyPolicies().size());
    row.simMillis.resize(studyPolicies().size());
    for (size_t pol = 0; pol < studyPolicies().size(); pol++) {
        row.simMillis[pol] = 100.0 + pol;
        RunStats &t = row.results[pol].total;
        t.cycles = 1000.0 * (pol + 1);
        t.breakdown.compute = 600.0;
        t.breakdown.memory = 300.0;
        t.breakdown.sync = 100.0;
        t.traffic.coreL1Bytes = 1111;
        t.traffic.l1L2Bytes = 2222;
        t.traffic.l2L3Bytes = 3333;
        t.traffic.l3DramBytes = 4444;
        t.traffic.nocHops = 55;
        LayerPassStats lp;
        lp.name = "conv1";
        lp.backward = pol == 1;
        lp.stats.cycles = 10.0;
        row.results[pol].layers.push_back(lp);
    }
    row.stats = Json::object();
    row.stats["counters"] = Json::object();
    row.stats["counters"]["x"] = uint64_t{9};
    return row;
}

} // namespace

TEST(MachineJson, HasEverySection)
{
    Json m = machineToJson(ArchConfig{});
    for (const char *key :
         {"summary", "numCores", "core", "l1", "l2", "l3", "prefetch",
          "dram", "noc", "zcomp"}) {
        EXPECT_NE(m.find(key), nullptr) << "missing " << key;
    }
    EXPECT_NE(m.find("core")->find("freqGHz"), nullptr);
    EXPECT_NE(m.find("l2")->find("sizeBytes"), nullptr);
    EXPECT_NE(m.find("zcomp")->find("logicThroughput"), nullptr);
}

TEST(StudyRowJson, ContainsEveryField)
{
    StudyRow row = fakeRow();
    Json j = studyRowToJson(row);

    EXPECT_EQ(j.find("model")->asString(), "TestNet");
    EXPECT_EQ(j.find("mode")->asString(), "training");
    EXPECT_DOUBLE_EQ(j.find("prepMillis")->asDouble(), 12.5);

    const Json *pols = j.find("policies");
    ASSERT_NE(pols, nullptr);
    ASSERT_EQ(pols->size(), static_cast<size_t>(numIoPolicies));
    for (int pol = 0; pol < numIoPolicies; pol++) {
        const char *pname = ioPolicyName(static_cast<IoPolicy>(pol));
        const Json *p = pols->find(pname);
        ASSERT_NE(p, nullptr) << "missing policy " << pname;
        EXPECT_DOUBLE_EQ(p->find("simMillis")->asDouble(),
                         100.0 + pol);

        const Json *total = p->find("total");
        ASSERT_NE(total, nullptr);
        EXPECT_DOUBLE_EQ(total->find("cycles")->asDouble(),
                         1000.0 * (pol + 1));
        const Json *bd = total->find("breakdown");
        ASSERT_NE(bd, nullptr);
        EXPECT_DOUBLE_EQ(bd->find("compute")->asDouble(), 600.0);
        const Json *tr = total->find("traffic");
        ASSERT_NE(tr, nullptr);
        EXPECT_EQ(tr->find("coreL1Bytes")->asUint(), 1111u);
        EXPECT_EQ(tr->find("l3DramBytes")->asUint(), 4444u);
        EXPECT_EQ(tr->find("nocHops")->asUint(), 55u);
        // Derived aggregates come along too.
        EXPECT_EQ(tr->find("totalBytes")->asUint(),
                  1111u + 2222u + 3333u + 4444u);

        const Json *layers = p->find("layers");
        ASSERT_NE(layers, nullptr);
        ASSERT_EQ(layers->size(), 1u);
        const Json &l = layers->at(0);
        EXPECT_EQ(l.find("name")->asString(), "conv1");
        EXPECT_EQ(l.find("backward")->asBool(), pol == 1);
        EXPECT_DOUBLE_EQ(
            l.find("stats")->find("cycles")->asDouble(), 10.0);
    }

    const Json *stats = j.find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("counters")->find("x")->asUint(), 9u);
}

TEST(StudyRowJson, OmitsStatsWhenNotCaptured)
{
    StudyRow row = fakeRow();
    row.stats = Json();
    Json j = studyRowToJson(row);
    EXPECT_EQ(j.find("stats"), nullptr);
}

TEST(RunReport, FileFollowsSchema)
{
    TempPath tmp("test_report_out.json");
    {
        RunReport rep(tmp.path, "unit test run", {"prog", "--flag"});
        rep.setMachine(ArchConfig{});
        rep.addRow(studyRowToJson(fakeRow()));
        rep.write();
    }

    std::string err;
    Json doc = Json::parse(slurp(tmp.path), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(doc.find("schema")->asString(), "zcomp-run-report-v1");
    EXPECT_EQ(doc.find("title")->asString(), "unit test run");
    ASSERT_EQ(doc.find("argv")->size(), 2u);
    EXPECT_EQ(doc.find("argv")->at(1).asString(), "--flag");
    EXPECT_NE(doc.find("machine")->find("summary"), nullptr);
    const Json *host = doc.find("host");
    ASSERT_NE(host, nullptr);
    EXPECT_GE(host->find("wallMillis")->asDouble(), 0.0);
    EXPECT_GE(host->find("jobs")->asInt(), 1);
    ASSERT_EQ(doc.find("rows")->size(), 1u);
    EXPECT_EQ(doc.find("rows")->at(0).find("model")->asString(),
              "TestNet");
}

TEST(RunReport, GlobalInstallAndFinish)
{
    EXPECT_EQ(RunReport::global(), nullptr);
    TempPath tmp("test_report_global.json");
    RunReport::enableGlobal(tmp.path, "global test", {"prog"});
    ASSERT_NE(RunReport::global(), nullptr);
    RunReport::global()->addRow(studyRowToJson(fakeRow()));
    RunReport::finishGlobal();
    EXPECT_EQ(RunReport::global(), nullptr);

    std::string err;
    Json doc = Json::parse(slurp(tmp.path), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(doc.find("rows")->size(), 1u);
}

/**
 * The numbers ExecContext::run() returns (and hence the per-phase
 * numbers in a report) must equal the deltas of the stats-tree
 * counters around the phase - the two views come from the same
 * underlying counters and must never drift apart.
 */
TEST(RunReport, ExecRunDeltaMatchesStatsTree)
{
    ArchConfig cfg;
    cfg.numCores = 2;
    ExecContext ctx(cfg);

    auto counter = [&](const char *path) {
        Json stats = ctx.sys().statsJson();
        const Json *c = statsCounter(stats, path);
        EXPECT_NE(c, nullptr) << path;
        return c ? c->asUint() : 0;
    };

    uint64_t l1_before = counter("mem.links.core_l1_bytes");
    uint64_t dram_before = counter("mem.links.l3_dram_bytes");
    uint64_t hops_before = counter("mem.noc.hops");

    TracePhase phase("loads", 2);
    for (int i = 0; i < 64; i++) {
        phase.perCore[0].push_back(TraceOp::load(
            0x100000 + static_cast<Addr>(i) * 64, 64, 1, 1));
    }
    RunStats r = ctx.run(phase);
    Json j = runStatsToJson(r);

    EXPECT_EQ(j.find("traffic")->find("coreL1Bytes")->asUint(),
              counter("mem.links.core_l1_bytes") - l1_before);
    EXPECT_EQ(j.find("traffic")->find("l3DramBytes")->asUint(),
              counter("mem.links.l3_dram_bytes") - dram_before);
    EXPECT_EQ(j.find("traffic")->find("nocHops")->asUint(),
              counter("mem.noc.hops") - hops_before);
    EXPECT_DOUBLE_EQ(j.find("cycles")->asDouble(), r.cycles);
}
