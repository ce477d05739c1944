// EXT — Max-min allocator scaling: flow-event throughput of the fabric core
// across active-flow count × topology size × allocation mode.
//
// Protocol per case: start N concurrent random-pair flows on a fat-tree
// (they land on one coalesced reallocation epoch), then churn — every
// completion starts a replacement flow until the churn budget is spent — and
// run to empty. Wall-clock covers the whole run; a "flow event" is any
// start/completion/failure/cancellation. Each case runs three times, each
// with a fresh simulator, and reports the fastest wall time, so one slow
// host phase does not halve a printed rate; the deterministic counts
// (events, solves, rounds, coalesced, makespan) must repeat exactly across
// the runs, or the bench fails. Reported telemetry (events/sec,
// ns/flow-event, reallocations, solve rounds, coalescing counters) is the
// perf baseline the roadmap's "as fast as the hardware allows" trajectory is
// measured against.
//
// --quick runs a single small case per mode and enforces a generous
// wall-clock ceiling on the full max-min solve so gross allocator
// regressions fail CI without flaky thresholds.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.hpp"
#include "net/fabric.hpp"
#include "sim/random.hpp"

namespace {

using namespace rb;

struct CaseResult {
  double events = 0;
  double wall_s = 0;
  double makespan_s = 0;
  net::AllocatorStats stats;
};

const char* mode_name(net::RateAllocation alloc) {
  switch (alloc) {
    case net::RateAllocation::kMaxMinFair:
      return "maxmin_full";
    case net::RateAllocation::kEqualSharePerLink:
      return "equal_share";
  }
  return "?";
}

CaseResult run_case(int k, int n, int churn, bool rack_local,
                    net::RateAllocation alloc) {
  const auto topo = net::make_fat_tree(k);
  sim::Simulator sim;
  const net::Router router{topo};
  net::FlowSimulator fabric{sim, topo, router, alloc};
  const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
  sim::Rng rng{17};
  // Rack-local traffic never leaves the edge switch, so the flow/link graph
  // splits into per-rack components; uniform random pairs percolate into one
  // component through the core. Hosts are contiguous per edge switch in
  // construction order, k/2 to a rack.
  const std::size_t rack = static_cast<std::size_t>(k / 2);
  auto pick = [&](net::NodeId& src, net::NodeId& dst) {
    if (rack_local) {
      const std::size_t base = rng.uniform_index(hosts.size() / rack) * rack;
      const std::size_t a = rng.uniform_index(rack);
      std::size_t b = rng.uniform_index(rack - 1);
      if (b >= a) ++b;
      src = hosts[base + a];
      dst = hosts[base + b];
    } else {
      src = hosts[rng.uniform_index(hosts.size())];
      dst = hosts[rng.uniform_index(hosts.size())];
    }
  };
  int remaining_churn = churn;
  std::function<void(const net::FlowRecord&)> on_done =
      [&](const net::FlowRecord&) {
        if (remaining_churn <= 0) return;
        --remaining_churn;
        net::NodeId src, dst;
        pick(src, dst);
        fabric.start_flow(src, dst,
                          1 * sim::kMiB + rng.uniform_index(4 * sim::kMiB),
                          on_done);
      };
  CaseResult r;
  r.wall_s = bench::time_ms([&] {
    for (int i = 0; i < n; ++i) {
      net::NodeId src, dst;
      pick(src, dst);
      fabric.start_flow(src, dst,
                        1 * sim::kMiB + rng.uniform_index(4 * sim::kMiB),
                        on_done);
    }
    sim.run();
  }) / 1e3;
  r.events = static_cast<double>(fabric.started_flows() +
                                 fabric.completed_flows() +
                                 fabric.failed_flows() +
                                 fabric.cancelled_flows());
  r.makespan_s = sim::to_seconds(sim.now());
  r.stats = fabric.allocator_stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rb;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::heading("EXT", "Max-min allocator scaling: flow-events/sec across "
                        "fabric size and allocation mode");
  bench::Report report{"ext_maxmin_scale", argc, argv};
  report.config("quick", quick);
  report.config("seed", std::uint64_t{17});

  struct Case {
    int k, n, churn;
    bool rack_local;
  };
  // The ft8_n10000 case is the PR acceptance config: the pre-arena solver
  // is the baseline its ≥5× events/sec target is measured against. The
  // rack-local ft8 case keeps the fabric large but the traffic partitioned
  // into small per-rack components, each needing only a few rounds of its
  // own: it is the full-solve baseline for a solver that skips the rounds
  // an epoch's changes cannot reach.
  const std::vector<Case> cases =
      quick ? std::vector<Case>{{4, 500, 200, false}}
            : std::vector<Case>{{4, 2000, 500, false},
                                {8, 2000, 2000, true},
                                {8, 10000, 1000, false}};
  const net::RateAllocation modes[] = {
      net::RateAllocation::kMaxMinFair,
      net::RateAllocation::kEqualSharePerLink,
  };

  // Generous ceiling for the quick full-solve case (actual: well under 1 s
  // on any modern machine); a gross allocator regression trips it in CI.
  // It is checked against the first run's wall time, a single sample.
  constexpr double kQuickCeilingSeconds = 30.0;
  constexpr int kRuns = 3;
  bool perf_ok = true;
  bool repeat_ok = true;

  std::printf("%-20s %-12s %9s %9s %11s %9s %9s %9s %9s\n", "mode", "topo",
              "flows", "events", "ev/s", "ns/ev", "solves", "rounds",
              "coalesced");
  for (const Case& c : cases) {
    for (const auto alloc : modes) {
      CaseResult r = run_case(c.k, c.n, c.churn, c.rack_local, alloc);
      const double first_wall_s = r.wall_s;
      for (int run = 1; run < kRuns; ++run) {
        const CaseResult again =
            run_case(c.k, c.n, c.churn, c.rack_local, alloc);
        if (again.events != r.events || again.makespan_s != r.makespan_s ||
            again.stats.reallocations != r.stats.reallocations ||
            again.stats.solve_rounds != r.stats.solve_rounds ||
            again.stats.coalesced_events != r.stats.coalesced_events) {
          repeat_ok = false;
          std::fprintf(stderr,
                       "NONDETERMINISM: %s ft%d n%d run %d differs from run "
                       "0 in events, solves, rounds, coalesced or makespan\n",
                       mode_name(alloc), c.k, c.n, run);
        }
        r.wall_s = std::min(r.wall_s, again.wall_s);
      }
      const double evps = r.events / r.wall_s;
      const double ns_per_event = r.wall_s * 1e9 / r.events;
      const std::string topo =
          "ft" + std::to_string(c.k) + (c.rack_local ? "local" : "");
      std::printf("%-20s %-12s %9d %9.0f %11.1f %9.1f %9llu %9llu %9llu\n",
                  mode_name(alloc), topo.c_str(), c.n, r.events, evps,
                  ns_per_event,
                  static_cast<unsigned long long>(r.stats.reallocations),
                  static_cast<unsigned long long>(r.stats.solve_rounds),
                  static_cast<unsigned long long>(r.stats.coalesced_events));
      const std::string key = std::string{mode_name(alloc)} + "." + topo +
                              "_n" + std::to_string(c.n);
      report.metric(key + ".events", r.events);
      report.metric(key + ".wall_seconds", r.wall_s);
      report.metric(key + ".events_per_sec", evps);
      report.metric(key + ".ns_per_flow_event", ns_per_event);
      report.metric(key + ".reallocations", r.stats.reallocations);
      report.metric(key + ".solve_rounds", r.stats.solve_rounds);
      report.metric(key + ".coalesced_events", r.stats.coalesced_events);
      report.metric(key + ".makespan_seconds", r.makespan_s);
      if (quick && alloc == net::RateAllocation::kMaxMinFair &&
          first_wall_s > kQuickCeilingSeconds) {
        perf_ok = false;
        std::fprintf(stderr,
                     "PERF REGRESSION: quick full-solve case took %.1fs "
                     "(ceiling %.0fs)\n",
                     first_wall_s, kQuickCeilingSeconds);
      }
    }
  }
  bench::note("flat-arena allocator: one coalesced epoch absorbs each");
  bench::note("same-timestamp burst, and every max-min epoch solves all");
  bench::note("active flows (rack-local rows are the full-solve baseline).");
  bench::note("rates: fastest of " + std::to_string(kRuns) +
              " runs, each with a fresh simulator.");
  if (!perf_ok || !repeat_ok) return 1;
  return 0;
}
