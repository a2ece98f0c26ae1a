// Server-side sweeps: deterministic expansion order, renderer goldens,
// the payload digest, and the session-level execution contract (streamed
// points, cache dedup, repeat-sweep byte identity, cancellation at point
// boundaries).
#include "service/sweep.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/json_value.hpp"
#include "service/session.hpp"
#include "telemetry/trace.hpp"

namespace csfma {
namespace {

SweepRequest sweep_of(const std::string& line) {
  ParseOutcome out = parse_request_line(line);
  EXPECT_TRUE(out.ok) << line << " -> " << out.message;
  return std::get<SweepRequest>(out.request.op);
}

TEST(Sweep, ExpansionOrderIsTheDocumentedNesting) {
  // unit outermost, then rounding, seed, ops — the index contract.
  SweepRequest req = sweep_of(
      R"({"type":"sweep","unit":["pcs","fcs"],"seed":[1,2],)"
      R"("ops":[100,200]})");
  const std::vector<SweepPoint> points = expand_sweep(req);
  ASSERT_EQ(points.size(), 8u);
  const char* want[][3] = {
      {"pcs", "1", "100"}, {"pcs", "1", "200"}, {"pcs", "2", "100"},
      {"pcs", "2", "200"}, {"fcs", "1", "100"}, {"fcs", "1", "200"},
      {"fcs", "2", "100"}, {"fcs", "2", "200"},
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_STREQ(to_string(points[i].req.unit), want[i][0]) << i;
    EXPECT_EQ(std::to_string(points[i].req.seed), want[i][1]) << i;
    EXPECT_EQ(std::to_string(points[i].req.ops), want[i][2]) << i;
  }
}

TEST(Sweep, ChainedExpansionVariesChainsThenDepth) {
  SweepRequest req = sweep_of(
      R"({"type":"sweep","mode":"chained","unit":"classic","seed":1,)"
      R"("chains":[4,8],"depth":[6,10]})");
  const std::vector<SweepPoint> points = expand_sweep(req);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].req.chains, 4u);
  EXPECT_EQ(points[0].req.depth, 6);
  EXPECT_EQ(points[1].req.chains, 4u);
  EXPECT_EQ(points[1].req.depth, 10);
  EXPECT_EQ(points[3].req.chains, 8u);
  EXPECT_EQ(points[3].req.depth, 10);
}

TEST(Sweep, ModelExpansionCrossesTheDesignKnobAxes) {
  // Model nesting: unit > rm > seed > block > group > rwidth > select >
  // depth > ops — the explorer's global point indices depend on it.
  SweepRequest req = sweep_of(
      R"({"type":"sweep","mode":"model","unit":"fcs","seed":1,)"
      R"("block":[29,33],"group":11,"rwidth":[0,11],)"
      R"("select":["lza","zd"],"depth":8})");
  const std::vector<SweepPoint> points = expand_sweep(req);
  ASSERT_EQ(points.size(), 8u);
  // block varies slowest of the three; select fastest.
  const int want_block[] = {29, 29, 29, 29, 33, 33, 33, 33};
  const int want_rwidth[] = {0, 0, 11, 11, 0, 0, 11, 11};
  const dse::BlockSelect want_select[] = {
      dse::BlockSelect::Lza, dse::BlockSelect::Zd,
      dse::BlockSelect::Lza, dse::BlockSelect::Zd,
      dse::BlockSelect::Lza, dse::BlockSelect::Zd,
      dse::BlockSelect::Lza, dse::BlockSelect::Zd,
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].req.mode, SimMode::Model);
    EXPECT_EQ(points[i].req.block, want_block[i]) << i;
    EXPECT_EQ(points[i].req.rwidth, want_rwidth[i]) << i;
    EXPECT_EQ(points[i].req.select, want_select[i]) << i;
    EXPECT_EQ(points[i].req.depth, 8);
  }
}

TEST(Sweep, ExpandedPointsShareTheBaseGeometry) {
  SweepRequest req = sweep_of(
      R"({"type":"sweep","unit":"pcs","seed":1,"ops":100,)"
      R"("shard_ops":256,"threads":2,"emin":-3,"emax":3})");
  const std::vector<SweepPoint> points = expand_sweep(req);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].req.shard_ops, 256u);
  EXPECT_EQ(points[0].req.threads, 2);
  EXPECT_EQ(points[0].req.emin, -3);
  EXPECT_EQ(points[0].req.emax, 3);
}

TEST(Sweep, DigestIsChainedFnvOverPayloads) {
  std::uint64_t d = kSweepDigestSeed;
  d = fold_sweep_digest(d, "payload-a");
  d = fold_sweep_digest(d, "payload-b");
  EXPECT_EQ(d, fnv1a64("payload-apayload-b"));
  EXPECT_NE(d, fold_sweep_digest(fold_sweep_digest(kSweepDigestSeed,
                                                   "payload-b"),
                                 "payload-a"))
      << "digest must be order-sensitive";
}

TEST(Sweep, ReplyGoldens) {
  EXPECT_EQ(sweep_accepted_reply("s1", "job-2", 6),
            R"({"type":"accepted","proto":1,"id":"s1","job":"job-2",)"
            R"("points":6})");
  SubmitRequest p;
  p.unit = UnitKind::Fcs;
  p.seed = 9;
  p.ops = 100;
  EXPECT_EQ(
      sweep_point_line("job-2", 3, 6, true, "00ff00ff00ff00ff", p,
                       R"({"schema":"csfma-report-v1"})"),
      R"({"type":"sweep_point","proto":1,"job":"job-2","index":3,)"
      R"("points":6,"cache":"hit","cache_key":"00ff00ff00ff00ff",)"
      R"("params":{"mode":"batch","unit":"fcs","rounding":"nearest-even",)"
      R"("seed":9,"ops":100,"emin":-8,"emax":8,"shard_ops":8192},)"
      R"("report":{"schema":"csfma-report-v1"}})");
  EXPECT_EQ(sweep_done_reply("s1", "job-2", 6, 4, 2, 0.5, 0xdeadbeefULL),
            R"({"type":"sweep_done","proto":1,"id":"s1","job":"job-2",)"
            R"("points":6,"cache_hits":4,"cache_misses":2,"elapsed_s":0.5,)"
            R"("digest":"00000000deadbeef"})");
}

// ---- session-level execution ------------------------------------------

class LineSink {
 public:
  ServiceSession::WriteFn fn() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    };
  }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

  std::vector<JsonValue> of_type(const std::string& type) const {
    std::vector<JsonValue> out;
    for (const std::string& line : lines()) {
      JsonValue v;
      JsonParseError err;
      EXPECT_TRUE(json_parse(line, &v, &err)) << line;
      if (const JsonValue* t = v.find("type");
          t != nullptr && t->as_string() == type)
        out.push_back(std::move(v));
    }
    return out;
  }

  /// Raw sweep_point lines in emission order, for byte comparisons.
  std::vector<std::string> raw_points() const {
    std::vector<std::string> out;
    for (const std::string& line : lines())
      if (line.find("\"type\":\"sweep_point\"") != std::string::npos)
        out.push_back(line);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

const char* kSmallSweep =
    R"({"type":"sweep","id":"s1","unit":["pcs","fcs"],"seed":[5,6],)"
    R"("ops":400,"shard_ops":128})";

TEST(SweepSession, StreamsEveryPointThenSummarizes) {
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallSweep);
  session.wait_idle();

  auto accepted = sink.of_type("accepted");
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].find("points")->as_int(), 4);

  auto points = sink.of_type("sweep_point");
  ASSERT_EQ(points.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(points[i].find("index")->as_int(), i);
    EXPECT_EQ(points[i].find("job")->as_string(), "job-1");
    EXPECT_EQ(points[i].find("cache")->as_string(), "miss");
    const JsonValue* report = points[i].find("report");
    ASSERT_NE(report, nullptr) << "point " << i;
    EXPECT_EQ(report->find("schema")->as_string(), "csfma-report-v1");
  }
  // Expansion order: unit outermost.
  EXPECT_EQ(points[0].find("params")->find("unit")->as_string(), "pcs");
  EXPECT_EQ(points[3].find("params")->find("unit")->as_string(), "fcs");

  auto done = sink.of_type("sweep_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].find("id")->as_string(), "s1");
  EXPECT_EQ(done[0].find("points")->as_int(), 4);
  EXPECT_EQ(done[0].find("cache_hits")->as_int(), 0);
  EXPECT_EQ(done[0].find("cache_misses")->as_int(), 4);
  EXPECT_EQ(done[0].find("digest")->as_string().size(), 16u);
  EXPECT_EQ(session.jobs_completed(), 1u);
}

TEST(SweepSession, RepeatSweepReplaysByteIdenticallyFromCache) {
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallSweep);
  session.wait_idle();
  std::string again = kSmallSweep;
  again.replace(again.find("s1"), 2, "s2");
  session.handle_line(again);
  session.wait_idle();

  auto done = sink.of_type("sweep_done");
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1].find("cache_hits")->as_int(), 4);
  EXPECT_EQ(done[1].find("cache_misses")->as_int(), 0);
  EXPECT_EQ(done[0].find("digest")->as_string(),
            done[1].find("digest")->as_string());

  // Byte identity point by point: strip only the job id (job-1 vs job-2),
  // everything else — including the spliced report — must match exactly.
  const auto raw = sink.raw_points();
  ASSERT_EQ(raw.size(), 8u);
  auto normalized = [](std::string s) {
    const std::size_t at = s.find("\"job\":\"job-");
    s.erase(at, s.find('"', at + 8 + 1) - at);
    const std::size_t cache = s.find("\"cache\":\"");
    s.erase(cache, s.find('"', cache + 9) - cache);
    return s;
  };
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(normalized(raw[i]), normalized(raw[i + 4])) << "point " << i;
}

TEST(SweepSession, SweepDeduplicatesAgainstPlainSubmits) {
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  // The first sweep point is exactly this submit, so the sweep starts
  // with one hit; the remaining three points are fresh.
  session.handle_line(
      R"({"type":"submit","id":"pre","unit":"pcs","seed":5,"ops":400,)"
      R"("shard_ops":128})");
  session.wait_idle();
  session.handle_line(kSmallSweep);
  session.wait_idle();
  auto done = sink.of_type("sweep_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].find("cache_hits")->as_int(), 1);
  EXPECT_EQ(done[0].find("cache_misses")->as_int(), 3);
}

/// The report spliced into a result or sweep_point line (its last member).
std::string report_of(const std::string& line) {
  const std::size_t at = line.find("\"report\":");
  EXPECT_NE(at, std::string::npos) << line;
  return line.substr(at + 9, line.size() - 1 - (at + 9));
}

TEST(SweepSession, ModelSweepPointsEqualPlainSubmits) {
  // Points that differ only in depth and rwidth (and select, for PCS) share
  // one energy workload, which the sweep measures once.  Each streamed
  // payload must still be byte-equal to a plain submit of that point in a
  // fresh session, and the digest must fold exactly those payloads.
  LineSink sink;
  TraceSession trace;
  ServiceConfig cfg;
  ServiceConfig traced = cfg;
  traced.trace = &trace;
  ServiceSession session(traced, sink.fn());
  session.handle_line(
      R"({"type":"sweep","id":"m","mode":"model","unit":["pcs","fcs"],)"
      R"("seed":9,"block":33,"group":11,"rwidth":[0,11],)"
      R"("select":["lza","zd"],"depth":[2,8],"ops":16})");
  session.wait_idle();
  const std::vector<std::string> raw = sink.raw_points();
  ASSERT_EQ(raw.size(), 16u);

  LineSink plain_sink;
  ServiceSession plain(cfg, plain_sink.fn());
  std::size_t i = 0;
  std::uint64_t digest = kSweepDigestSeed;
  // Model nesting: unit > rwidth > select > depth.
  for (const char* unit : {"pcs", "fcs"})
    for (int rwidth : {0, 11})
      for (const char* select : {"lza", "zd"})
        for (int depth : {2, 8}) {
          const std::string id = "p" + std::to_string(i);
          plain.handle_line(
              R"({"type":"submit","id":")" + id +
              R"(","mode":"model","unit":")" + unit +
              R"(","seed":9,"block":33,"group":11,"rwidth":)" +
              std::to_string(rwidth) + R"(,"select":")" + select +
              R"(","depth":)" + std::to_string(depth) + R"(,"ops":16})");
          plain.wait_idle();
          const std::vector<std::string> lines = plain_sink.lines();
          const std::string& result = lines.back();
          ASSERT_NE(result.find("\"type\":\"result\""), std::string::npos)
              << result;
          ASSERT_NE(result.find("\"cache\":\"miss\""), std::string::npos)
              << result;
          const std::string payload = report_of(result);
          EXPECT_EQ(report_of(raw[i]), payload) << "point " << i;
          digest = fold_sweep_digest(digest, payload);
          ++i;
        }
  auto done = sink.of_type("sweep_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].find("cache_misses")->as_int(), 16);
  EXPECT_EQ(done[0].find("digest")->as_string(), hex16(digest));
  // One workload for PCS (select is FCS-only), one per select for FCS.
  std::map<std::string, int> workloads;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.name != "model-eval") continue;
    for (const TraceArg& a : ev.args)
      if (a.key == "workload") ++workloads[a.value];
  }
  EXPECT_EQ(workloads["measured"], 3);
  EXPECT_EQ(workloads["reused"], 13);
}

TEST(SweepSession, StatusReportsPointProgress) {
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallSweep);
  session.wait_idle();
  session.handle_line(R"({"type":"status","id":"st","job":"job-1"})");
  auto status = sink.of_type("status");
  ASSERT_EQ(status.size(), 1u);
  const auto& jobs = status[0].find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].find("state")->as_string(), "done");
  EXPECT_EQ(jobs[0].find("points_done")->as_int(), 4);
  EXPECT_EQ(jobs[0].find("points_total")->as_int(), 4);
}

TEST(SweepSession, CancelStopsAtAPointBoundary) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  ServiceSession session(cfg, sink.fn());
  // Points big enough that the cancel lands while the sweep is running.
  session.handle_line(
      R"({"type":"sweep","id":"big","unit":["pcs","fcs"],"seed":1,)"
      R"("ops":400000000,"shard_ops":4096})");
  session.handle_line(R"({"type":"cancel","id":"c","job":"job-1"})");
  session.wait_idle();

  EXPECT_EQ(sink.of_type("cancel_ok").size(), 1u);
  auto cancelled = sink.of_type("cancelled");
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0].find("job")->as_string(), "job-1");
  // No summary for a cancelled sweep, and never all the points.
  EXPECT_EQ(sink.of_type("sweep_done").size(), 0u);
  EXPECT_LT(sink.of_type("sweep_point").size(), 2u);
  EXPECT_EQ(session.jobs_cancelled(), 1u);
}

}  // namespace
}  // namespace csfma
