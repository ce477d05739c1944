// EXT-SERVE — tail latency and availability of the sharded KV serving
// plane. The roadmap's low-latency argument (E1's FPGA front-ends, the
// tail-at-scale framing) only matters if the serving layer above the
// hardware keeps its tail under control; this bench measures that layer.
//
//   Part 1 — offered-load sweep on a fixed cluster: goodput, availability
//   and p50/p99/p999 as load crosses the admission knee. Bounded queues +
//   load shedding keep goodput flat and the completed-request tail bounded
//   while p999 rises sharply approaching saturation — the signature of
//   admission control doing its job (vs unbounded queues, where latency
//   diverges and goodput collapses).
//
//   Part 2 — replication vs availability under seeded replica-host churn:
//   identical offered load and fault plan, R=1 vs R=3. Failover across
//   surviving owners turns downtime into retries instead of failures.
//
//   Part 3 — resharding cost: fraction of keys that move when one node
//   joins a consistent-hash ring (64 vnodes) vs a naive mod-N rehash.
//
// `--quick` shrinks horizons and the sweep for CI smoke runs; `--json`
// (or RB_BENCH_JSON) emits machine-readable telemetry; `--trace <path>`
// (or RB_TRACE) turns on causal request tracing and exports the retained
// tail exemplar trees as Chrome trace JSON.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "serve/frontdoor.hpp"
#include "serve/ring.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace rb;

constexpr std::uint64_t kSeed = 0x5EA7;

serve::FrontDoorParams base_params(bool quick) {
  serve::FrontDoorParams p;
  p.replicas = 8;
  p.replication = 3;
  p.key_universe = quick ? 2'000 : 10'000;
  p.zipf_s = 0.99;
  p.read_fraction = 0.9;
  p.value_bytes = 256;
  p.horizon = (quick ? 100 : 400) * sim::kMillisecond;
  p.seed = kSeed;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = 500 * sim::kMicrosecond;
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 32;
  p.replica.batch_max = 8;
  return p;
}

struct RunResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  double goodput_qps = 0.0;
  double availability = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  bool ledger_ok = false;
};

RunResult run(const serve::FrontDoorParams& params, double churn_mtbf_s,
              double churn_mttr_s, bool tracing = false) {
  if (tracing) {
    // Causal tracing per run: retain the slowest trees, export them as
    // Chrome spans at the end of the run.
    auto& tracer = obs::RequestTracer::global();
    tracer.clear();
    obs::ExemplarParams ep;
    ep.max_exemplars = 32;
    tracer.set_params(ep);
    tracer.set_enabled(true);
  }
  net::Topology topo = net::make_leaf_spine(3, 4, 3);  // 9 hosts
  sim::Simulator sim;
  net::Router router{topo};
  serve::FrontDoor door{sim, topo, router, params};
  door.preload();

  std::optional<faults::FaultInjector> injector;
  if (churn_mtbf_s > 0.0) {
    injector.emplace(sim, topo,
                     serve::make_host_churn_plan(door.replica_hosts(),
                                                 churn_mtbf_s, churn_mttr_s,
                                                 params.horizon, kSeed));
    injector->on_event(
        [&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
    injector->arm();
  }
  door.start();
  sim.run();

  const serve::SloAccountant& slo = door.slo();
  RunResult out;
  out.issued = slo.issued();
  out.completed = slo.completed();
  out.rejected = slo.rejected();
  out.failed = slo.failed();
  out.retries = slo.retries();
  out.goodput_qps = slo.goodput_qps(params.horizon);
  out.availability = slo.availability();
  out.ledger_ok = slo.ledger_ok();
  if (!slo.latency_seconds().empty()) {
    out.p50_ms = slo.latency_seconds().p50() * 1e3;
    out.p99_ms = slo.latency_seconds().p99() * 1e3;
    out.p999_ms = slo.latency_seconds().p999() * 1e3;
  }
  if (tracing) {
    auto& tracer = obs::RequestTracer::global();
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    const bool was = rec.enabled();
    rec.set_enabled(true);
    tracer.export_chrome(rec);
    rec.set_enabled(was);
    tracer.set_enabled(false);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
  }
  if (trace_path.empty()) {
    if (const char* env = std::getenv("RB_TRACE")) trace_path = env;
  }
  const bool tracing = !trace_path.empty();

  bench::heading("EXT-SERVE",
                 "KV serving plane: admission knee & replicated failover");
  bench::Report report{"ext_serving_tail", argc, argv};

  const auto params = base_params(quick);
  const double capacity = serve::estimated_capacity_qps(params, 8);
  report.config("seed", kSeed);
  report.config("quick", quick);
  report.config("replicas", std::uint64_t{8});
  report.config("horizon_s", sim::to_seconds(params.horizon));
  report.config("capacity_qps", capacity);

  // --- Part 1: offered-load sweep across the admission knee --------------
  std::printf("-- load sweep: 8 replicas, R=3, leaf-spine 3x4, capacity "
              "~%.0f req/s --\n\n", capacity);
  std::printf("%-8s %10s %10s %8s %8s %9s %9s %9s\n", "load", "offered",
              "goodput", "avail", "shed", "p50(ms)", "p99(ms)", "p999(ms)");
  const std::vector<double> full_loads = {0.25, 0.5, 0.75, 0.9, 1.0,
                                          1.25, 1.75, 2.5};
  const std::vector<double> quick_loads = {0.5, 1.0, 2.5};
  const auto& loads = quick ? quick_loads : full_loads;
  double goodput_at_125 = 0.0, goodput_at_max = 0.0;
  double p999_at_low = 0.0, p999_at_max = 0.0;
  for (const double load : loads) {
    auto p = params;
    p.offered_qps = load * capacity;
    const auto r = run(p, 0.0, 0.0, tracing);
    const double shed_pct =
        r.issued == 0 ? 0.0
                      : 100.0 * static_cast<double>(r.rejected) /
                            static_cast<double>(r.issued);
    std::printf("%-8.2f %10.0f %10.0f %7.1f%% %7.1f%% %9.3f %9.3f %9.3f\n",
                load, p.offered_qps, r.goodput_qps, r.availability * 100.0,
                shed_pct, r.p50_ms, r.p99_ms, r.p999_ms);
    char key[32];
    std::snprintf(key, sizeof key, "load.%03d", static_cast<int>(load * 100));
    const std::string prefix = key;
    report.metric(prefix + ".offered_qps", p.offered_qps);
    report.metric(prefix + ".goodput_qps", r.goodput_qps);
    report.metric(prefix + ".availability", r.availability);
    report.metric(prefix + ".rejected", r.rejected);
    report.metric(prefix + ".p50_ms", r.p50_ms);
    report.metric(prefix + ".p99_ms", r.p99_ms);
    report.metric(prefix + ".p999_ms", r.p999_ms);
    report.metric(prefix + ".ledger_ok", r.ledger_ok);
    if (load == 0.5) p999_at_low = r.p999_ms;
    if (load == 1.25) goodput_at_125 = r.goodput_qps;
    if (load == loads.back()) {
      goodput_at_max = r.goodput_qps;
      p999_at_max = r.p999_ms;
    }
  }
  // Knee shape, as single numbers: p999 rises sharply past the knee while
  // goodput stays flat (shedding, not collapsing).
  if (p999_at_low > 0.0) {
    report.metric("knee.p999_rise_ratio", p999_at_max / p999_at_low);
  }
  if (!quick && goodput_at_125 > 0.0) {
    report.metric("knee.goodput_flat_ratio", goodput_at_max / goodput_at_125);
  }
  bench::note("bounded queues shed past the knee: goodput saturates near");
  bench::note("capacity while p999 jumps to the queue-bound — it never");
  bench::note("diverges, because waiting time is capped by admission.");

  // --- Part 2: replication factor vs availability under churn ------------
  const double mtbf_s = quick ? 0.4 : 0.8;
  const double mttr_s = quick ? 0.15 : 0.25;
  std::printf("\n-- seeded replica churn (host MTBF %.2f s, MTTR %.2f s), "
              "offered 0.5x capacity --\n\n", mtbf_s, mttr_s);
  std::printf("%-4s %9s %10s %8s %8s %8s %13s\n", "R", "issued", "completed",
              "retried", "failed", "shed", "availability");
  double avail_r1 = 0.0, avail_r3 = 0.0;
  for (const std::size_t replication : {std::size_t{1}, std::size_t{3}}) {
    auto p = params;
    p.replication = replication;
    p.offered_qps = 0.5 * capacity;
    const auto r = run(p, mtbf_s, mttr_s, tracing);
    std::printf("%-4zu %9llu %10llu %8llu %8llu %8llu %12.2f%%\n",
                replication, static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.rejected),
                r.availability * 100.0);
    const std::string prefix =
        std::string{"chaos.r"} + std::to_string(replication);
    report.metric(prefix + ".availability", r.availability);
    report.metric(prefix + ".failed", r.failed);
    report.metric(prefix + ".retries", r.retries);
    report.metric(prefix + ".ledger_ok", r.ledger_ok);
    (replication == 1 ? avail_r1 : avail_r3) = r.availability;
  }
  report.metric("chaos.availability_gain", avail_r3 - avail_r1);
  bench::note("same churn, same load: R=3 turns a sole owner's downtime into");
  bench::note("failover retries; R=1 has nowhere to go and fails requests.");

  // --- Part 3: resharding movement, consistent hash vs mod-N -------------
  std::printf("\n-- keys moved when one node joins (64 vnodes/node, 20k keys)"
              " --\n\n");
  std::printf("%-8s %12s %12s\n", "N -> N+1", "ring moved", "mod-N moved");
  constexpr std::size_t kKeys = 20'000;
  for (const std::size_t n : {std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{32}}) {
    serve::HashRing ring;
    for (serve::ReplicaId id = 0; id < static_cast<serve::ReplicaId>(n); ++id)
      ring.add_node(id);
    std::vector<serve::ReplicaId> before;
    before.reserve(kKeys);
    std::vector<std::string> keys;
    keys.reserve(kKeys);
    for (std::size_t k = 0; k < kKeys; ++k) {
      keys.push_back("key-" + std::to_string(k));
      before.push_back(ring.primary(keys.back()));
    }
    ring.add_node(static_cast<serve::ReplicaId>(n));
    std::size_t moved = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
      moved += ring.primary(keys[k]) != before[k];
    }
    const double ring_frac = static_cast<double>(moved) / kKeys;
    const double naive_frac = static_cast<double>(n) / (n + 1);
    std::printf("%zu -> %-3zu %11.1f%% %11.1f%%\n", n, n + 1,
                ring_frac * 100.0, naive_frac * 100.0);
    report.metric("reshard.n" + std::to_string(n) + ".moved_fraction",
                  ring_frac);
  }
  bench::note("consistent hashing moves ~1/(N+1) of keys on a join; a mod-N");
  bench::note("rehash would reshuffle nearly everything.");

  if (tracing) {
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    rec.write_chrome_json(trace_path);
    std::printf("\nwrote %zu causal spans to %s\n", rec.event_count(),
                trace_path.c_str());
  }
  return 0;
}
