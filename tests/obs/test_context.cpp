// Causal request tracing: span-tree construction, critical-path
// decomposition (winner children, serial backoffs, credited hedge waits,
// abandoned-wave attribution), tail-based exemplar sampling, latency-band
// aggregation, and Chrome export referential integrity.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rb::obs {
namespace {

TEST(RequestTracer, DisabledTracerIsInert) {
  RequestTracer tr;
  EXPECT_FALSE(tr.enabled());
  const TraceContext ctx = tr.start_trace("get", 0);
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(tr.begin_span(ctx, Segment::kQueue, "queue", 0), 0u);
  EXPECT_FALSE(tr.finish(ctx.trace_id, 10, TraceOutcome::kCompleted));
  EXPECT_EQ(tr.finished(), 0u);
  EXPECT_TRUE(tr.exemplars().empty());
  EXPECT_TRUE(tr.band_summary().empty());
}

TEST(RequestTracer, BuildsOneTreePerRequest) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 100);
  ASSERT_TRUE(root.active());
  const std::uint64_t attempt =
      tr.begin_span(root, Segment::kAttempt, "attempt", 100, 3);
  ASSERT_NE(attempt, 0u);
  const TraceContext actx{root.trace_id, attempt};
  const std::uint64_t queue =
      tr.begin_span(actx, Segment::kQueue, "queue", 110, 3);
  tr.end_span(root.trace_id, queue, 140);
  tr.end_span(root.trace_id, attempt, 200);
  tr.mark_won(root.trace_id, attempt);
  ASSERT_TRUE(tr.finish(root.trace_id, 200, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  ASSERT_EQ(ex.size(), 1u);
  ASSERT_EQ(ex[0].spans.size(), 3u);
  // [0] is the root; children parent up the chain the context carried.
  EXPECT_EQ(ex[0].spans[0].segment, Segment::kRequest);
  EXPECT_EQ(ex[0].spans[0].parent_id, 0u);
  EXPECT_EQ(ex[0].spans[1].parent_id, ex[0].spans[0].span_id);
  EXPECT_TRUE(ex[0].spans[1].won);
  EXPECT_EQ(ex[0].spans[1].ref, 3);
  EXPECT_EQ(ex[0].spans[2].parent_id, attempt);
  EXPECT_EQ(ex[0].spans[2].duration_ps(), 30);
}

TEST(RequestTracer, DecomposesWinningAttempt) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t attempt =
      tr.begin_span(root, Segment::kAttempt, "attempt", 0, 0);
  const TraceContext actx{root.trace_id, attempt};
  tr.add_span(actx, Segment::kNetwork, "net.out", 0, 10, 7);
  tr.add_span(actx, Segment::kQueue, "queue", 10, 40, 0);
  tr.add_span(actx, Segment::kService, "service", 40, 90, 0);
  tr.add_span(actx, Segment::kNetwork, "net.response", 90, 100, 7);
  tr.end_span(root.trace_id, attempt, 100);
  tr.mark_won(root.trace_id, attempt);
  ASSERT_TRUE(tr.finish(root.trace_id, 100, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  const CriticalPath& p = ex[0].path;
  EXPECT_EQ(p.total_ps, 100);
  EXPECT_EQ(p.network_ps, 20);
  EXPECT_EQ(p.queue_ps, 30);
  EXPECT_EQ(p.service_ps, 50);
  EXPECT_EQ(p.backoff_ps, 0);
  EXPECT_EQ(p.other_ps, 0);
  EXPECT_DOUBLE_EQ(p.share(Segment::kService), 0.5);
  EXPECT_DOUBLE_EQ(p.share(Segment::kQueue), 0.3);
}

TEST(RequestTracer, CreditsAbandonedWaveWaits) {
  // Timeout-then-retry tail shape: wave 1 sits in a stuck replica's queue
  // (span never closes — the gateway abandoned it), a backoff follows, wave
  // 2 wins on a healthy replica. The 60 ticks stuck on the zombie must land
  // in kQueue, not the "other" dumping ground.
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t a1 = tr.begin_span(root, Segment::kAttempt, "attempt", 0, 1);
  const TraceContext c1{root.trace_id, a1};
  tr.begin_span(c1, Segment::kQueue, "queue", 0, 1);  // never ends
  tr.add_span(root, Segment::kBackoff, "backoff", 60, 70);
  const std::uint64_t a2 = tr.begin_span(root, Segment::kAttempt, "attempt", 70, 2);
  const TraceContext c2{root.trace_id, a2};
  tr.add_span(c2, Segment::kService, "service", 70, 100, 2);
  tr.end_span(root.trace_id, a2, 100);
  tr.mark_won(root.trace_id, a2);
  ASSERT_TRUE(tr.finish(root.trace_id, 100, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  const CriticalPath& p = ex[0].path;
  EXPECT_EQ(p.queue_ps, 60);
  EXPECT_EQ(p.backoff_ps, 10);
  EXPECT_EQ(p.service_ps, 30);
  EXPECT_EQ(p.other_ps, 0);
}

TEST(RequestTracer, OverlappingZombiesNeverDoubleBill) {
  // Two abandoned attempts whose queue spans cover the same interval: the
  // claimed-interval clipping must charge each picosecond once.
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t a = tr.begin_span(root, Segment::kAttempt, "attempt", 0, i);
    const TraceContext c{root.trace_id, a};
    tr.begin_span(c, Segment::kQueue, "queue", 0, i);  // both clamp to 80
  }
  const std::uint64_t w = tr.begin_span(root, Segment::kAttempt, "attempt", 80, 2);
  const TraceContext cw{root.trace_id, w};
  tr.add_span(cw, Segment::kService, "service", 80, 100, 2);
  tr.end_span(root.trace_id, w, 100);
  tr.mark_won(root.trace_id, w);
  ASSERT_TRUE(tr.finish(root.trace_id, 100, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  const CriticalPath& p = ex[0].path;
  EXPECT_EQ(p.queue_ps, 80);  // not 160
  EXPECT_EQ(p.service_ps, 20);
  EXPECT_EQ(p.total_ps, 100);
  EXPECT_EQ(p.other_ps, 0);
}

TEST(RequestTracer, WinningHedgeChargesHedgeWait) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t primary =
      tr.begin_span(root, Segment::kAttempt, "attempt", 0, 0);
  const TraceContext cp{root.trace_id, primary};
  tr.begin_span(cp, Segment::kService, "service", 0, 0);  // straggler
  tr.add_span(root, Segment::kHedgeWait, "hedge_wait", 0, 30);
  const std::uint64_t hedge = tr.begin_span(root, Segment::kAttempt, "hedge", 30, 1);
  const TraceContext ch{root.trace_id, hedge};
  tr.add_span(ch, Segment::kService, "service", 30, 50, 1);
  tr.end_span(root.trace_id, hedge, 50);
  tr.mark_won(root.trace_id, hedge);
  ASSERT_TRUE(tr.finish(root.trace_id, 50, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  const CriticalPath& p = ex[0].path;
  EXPECT_EQ(p.hedge_wait_ps, 30);
  EXPECT_EQ(p.service_ps, 20);
  EXPECT_EQ(p.other_ps, 0);
}

TEST(RequestTracer, LosingHedgeWaitIsFree) {
  // The primary answered anyway: the hedge delay overlapped it and must not
  // appear on the critical path.
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t primary =
      tr.begin_span(root, Segment::kAttempt, "attempt", 0, 0);
  const TraceContext cp{root.trace_id, primary};
  tr.add_span(cp, Segment::kService, "service", 0, 40, 0);
  tr.add_span(root, Segment::kHedgeWait, "hedge_wait", 0, 30);
  tr.begin_span(root, Segment::kAttempt, "hedge", 30, 1);  // abandoned
  tr.end_span(root.trace_id, primary, 40);
  tr.mark_won(root.trace_id, primary);
  ASSERT_TRUE(tr.finish(root.trace_id, 40, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  const CriticalPath& p = ex[0].path;
  EXPECT_EQ(p.hedge_wait_ps, 0);
  EXPECT_EQ(p.service_ps, 40);
}

TEST(RequestTracer, FirstCloseWinsAndUnknownIdsAreIgnored) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t q = tr.begin_span(root, Segment::kQueue, "queue", 5);
  tr.end_span(root.trace_id, q, 20);
  tr.end_span(root.trace_id, q, 900);      // late duplicate: first close wins
  tr.end_span(root.trace_id + 99, q, 10);  // unknown trace: ignored
  tr.end_span(root.trace_id, q + 99, 10);  // unknown span: ignored
  tr.mark_won(root.trace_id + 99, q);      // ignored too
  ASSERT_TRUE(tr.finish(root.trace_id, 50, TraceOutcome::kCompleted));
  // Spans for an already-finished trace race their teardown by design.
  EXPECT_EQ(tr.begin_span(root, Segment::kQueue, "late", 60), 0u);
  EXPECT_FALSE(tr.finish(root.trace_id, 70, TraceOutcome::kCompleted));

  const auto ex = tr.exemplars();
  ASSERT_EQ(ex.size(), 1u);
  bool saw_queue = false;
  for (const CausalSpan& s : ex[0].spans) {
    if (s.span_id == q) {
      saw_queue = true;
      EXPECT_EQ(s.end_ps, 20);
    }
  }
  EXPECT_TRUE(saw_queue);
}

TEST(RequestTracer, OpenSpansClampToFinishTime) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t q = tr.begin_span(root, Segment::kQueue, "queue", 10);
  ASSERT_TRUE(tr.finish(root.trace_id, 100, TraceOutcome::kFailed));
  const auto ex = tr.exemplars();
  for (const CausalSpan& s : ex[0].spans) {
    if (s.span_id == q) {
      EXPECT_EQ(s.end_ps, 100);
    }
  }
}

TEST(RequestTracer, ReservoirKeepsSlowestAndFailures) {
  RequestTracer tr;
  ExemplarParams ep;
  ep.max_exemplars = 2;
  tr.set_params(ep);
  tr.set_enabled(true);
  const auto run_one = [&tr](std::int64_t latency_ps, TraceOutcome o) {
    const TraceContext ctx = tr.start_trace("get", 0);
    tr.finish(ctx.trace_id, latency_ps, o);
    return ctx.trace_id;
  };
  run_one(10, TraceOutcome::kCompleted);
  run_one(30, TraceOutcome::kCompleted);
  run_one(20, TraceOutcome::kCompleted);  // evicts the 10-tick tree
  const auto ex = tr.exemplars();
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].finish_ps, 30);  // slowest first
  EXPECT_EQ(ex[1].finish_ps, 20);
  run_one(15, TraceOutcome::kCompleted);  // faster than everything retained
  EXPECT_EQ(tr.exemplars()[0].finish_ps, 30);
  EXPECT_EQ(tr.exemplars()[1].finish_ps, 20);

  // A failure always qualifies and is never evicted for a completed tree.
  const std::uint64_t failed_id = run_one(1, TraceOutcome::kFailed);
  const auto ex2 = tr.exemplars();
  ASSERT_EQ(ex2.size(), 2u);
  bool has_failed = false;
  for (const ExemplarTrace& e : ex2) has_failed |= e.trace_id == failed_id;
  EXPECT_TRUE(has_failed);
  EXPECT_EQ(tr.finished(), 5u);  // compact records cover every finish
}

TEST(RequestTracer, LatencyThresholdRetainsSloViolators) {
  RequestTracer tr;
  ExemplarParams ep;
  ep.max_exemplars = 8;
  ep.latency_threshold_s = 50e-12;  // 50 ps, in the tracer's seconds unit
  tr.set_params(ep);
  tr.set_enabled(true);
  const TraceContext fast = tr.start_trace("get", 0);
  const TraceContext slow = tr.start_trace("get", 0);
  EXPECT_TRUE(tr.finish(fast.trace_id, 10, TraceOutcome::kCompleted));
  EXPECT_TRUE(tr.finish(slow.trace_id, 60, TraceOutcome::kCompleted));
  // The reservoir isn't full, so both were kept — but only the slow one
  // qualifies on the threshold once it is.
  for (int i = 0; i < 8; ++i) {
    const TraceContext c = tr.start_trace("get", 0);
    tr.finish(c.trace_id, 100 + i, TraceOutcome::kCompleted);
  }
  const TraceContext under = tr.start_trace("get", 0);
  EXPECT_FALSE(tr.finish(under.trace_id, 20, TraceOutcome::kCompleted));
  const TraceContext over = tr.start_trace("get", 0);
  EXPECT_TRUE(tr.finish(over.trace_id, 55, TraceOutcome::kCompleted));
}

TEST(RequestTracer, BandSummaryCoversEveryFinishedTrace) {
  RequestTracer tr;
  tr.set_enabled(true);
  for (int i = 1; i <= 1000; ++i) {
    const TraceContext ctx = tr.start_trace("get", 0);
    const std::uint64_t a = tr.begin_span(ctx, Segment::kAttempt, "attempt", 0, 0);
    const TraceContext ac{ctx.trace_id, a};
    tr.add_span(ac, Segment::kService, "service", 0, i, 0);
    tr.end_span(ctx.trace_id, a, i);
    tr.mark_won(ctx.trace_id, a);
    tr.finish(ctx.trace_id, i, TraceOutcome::kCompleted);
  }
  const auto bands = tr.band_summary();
  ASSERT_EQ(bands.size(), 5u);
  EXPECT_STREQ(bands[0].band, "p0-50");
  EXPECT_STREQ(bands[4].band, "p99.9-100");
  std::uint64_t total = 0;
  double prev_mean = 0.0;
  for (const BandDecomposition& b : bands) {
    total += b.count;
    if (b.count == 0) continue;  // percentile cuts may leave a band empty
    EXPECT_GT(b.service_share, 0.99);  // service covers each whole request
    EXPECT_GE(b.mean_latency_s, prev_mean);  // bands are sorted by latency
    prev_mean = b.mean_latency_s;
  }
  EXPECT_EQ(total, 1000u);  // every finished trace lands in exactly one band
  EXPECT_GT(bands[0].count, 0u);                   // the body is populated...
  EXPECT_GT(bands[3].count + bands[4].count, 0u);  // ...and so is the tail
}

TEST(RequestTracer, ChromeExportHasReferentialIntegrity) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext root = tr.start_trace("get", 0);
  const std::uint64_t a1 = tr.begin_span(root, Segment::kAttempt, "attempt", 0, 1);
  const TraceContext c1{root.trace_id, a1};
  tr.begin_span(c1, Segment::kQueue, "queue", 0, 1);
  tr.add_span(root, Segment::kBackoff, "backoff", 40, 50);
  const std::uint64_t a2 = tr.begin_span(root, Segment::kAttempt, "attempt", 50, 2);
  const TraceContext c2{root.trace_id, a2};
  tr.add_span(c2, Segment::kService, "service", 50, 90, 2);
  tr.end_span(root.trace_id, a2, 90);
  tr.mark_won(root.trace_id, a2);
  ASSERT_TRUE(tr.finish(root.trace_id, 90, TraceOutcome::kCompleted));

  TraceRecorder rec;
  rec.set_enabled(true);
  tr.export_chrome(rec);
  const JsonValue doc = json_parse(rec.to_chrome_json());
  const auto& events = doc.at("traceEvents").array;
  std::set<double> span_ids;
  std::vector<double> parent_refs;
  bool saw_service = false, saw_outcome = false, saw_won = false;
  for (const JsonValue& e : events) {
    if (e.at("ph").string == "M") continue;
    EXPECT_EQ(e.at("ph").string, "X");  // causal spans export as complete
    const std::string& cat = e.at("cat").string;
    EXPECT_EQ(cat.rfind("trace.", 0), 0u);
    if (cat == "trace.service") saw_service = true;
    const auto& args = e.at("args").object;
    span_ids.insert(args.at("span_id").number);
    const auto pid = args.find("parent_span_id");
    if (pid != args.end()) parent_refs.push_back(pid->second.number);
    if (args.count("outcome") != 0) {
      saw_outcome = true;
      EXPECT_EQ(args.at("outcome").string, "completed");
    }
    if (args.count("won") != 0) saw_won = true;
  }
  EXPECT_EQ(span_ids.size(), 6u);
  EXPECT_EQ(parent_refs.size(), 5u);  // everything but the root has a parent
  for (const double p : parent_refs) {
    EXPECT_EQ(span_ids.count(p), 1u);
  }
  EXPECT_TRUE(saw_service);
  EXPECT_TRUE(saw_outcome);
  EXPECT_TRUE(saw_won);
}

TEST(RequestTracer, ClearResetsEverything) {
  RequestTracer tr;
  tr.set_enabled(true);
  const TraceContext ctx = tr.start_trace("get", 0);
  tr.finish(ctx.trace_id, 10, TraceOutcome::kCompleted);
  tr.clear();
  EXPECT_EQ(tr.finished(), 0u);
  EXPECT_TRUE(tr.exemplars().empty());
  // Ids restart, so identically-seeded runs produce identical trees.
  const TraceContext again = tr.start_trace("get", 0);
  EXPECT_EQ(again.trace_id, ctx.trace_id);
  EXPECT_EQ(again.span_id, ctx.span_id);
}

}  // namespace
}  // namespace rb::obs
