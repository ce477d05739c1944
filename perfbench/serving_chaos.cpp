// serving_chaos: open-loop Poisson traffic into a FrontDoor with 8
// replicas while seeded host churn kills and repairs replica hosts. The
// retry budget, circuit breakers and hedging are all on. Why: a request
// costs a handful of simulator events, so the event kernel, FrontDoor
// bookkeeping, route lookups and in-memory LSM gets and puts share the
// time; no FlowSimulator runs, so a fabric-solver change must not show.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "harness.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "serve/frontdoor.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "storage/lsm.hpp"

namespace perfbench {
namespace {

using namespace rb;

constexpr sim::SimTime kStep = sim::kMillisecond;

struct Sizes {
  std::size_t key_universe;
  double load;  // offered rate as a share of estimated_capacity_qps
  sim::SimTime warmup;
  std::uint64_t steps_per_episode;
  double churn_mtbf_s;  // per replica host
  double churn_mttr_s;
  std::size_t replay_gets;
};

Sizes sizes_for(bool tiny) {
  if (tiny) return {1'000, 0.5, 5 * kStep, 40, 0.02, 0.005, 2'000};
  return {10'000, 0.5, 20 * kStep, 2'000, 1.0, 0.1, 100'000};
}

/// Replica and resilience settings of bench_ext_resilience (all mechanisms
/// on), over 10,000 keys with 90% gets.
serve::FrontDoorParams base_params(const Sizes& sizes) {
  serve::FrontDoorParams p;
  p.replicas = 8;
  p.replication = 3;
  p.key_universe = sizes.key_universe;
  p.zipf_s = 0.99;
  p.read_fraction = 0.9;
  p.value_bytes = 256;
  p.max_attempts = 4;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = 500 * sim::kMicrosecond;
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 64;
  p.replica.batch_max = 8;
  p.resilience.request_timeout = 60 * sim::kMillisecond;
  p.resilience.attempt_timeout = 6 * sim::kMillisecond;
  p.resilience.budget.enabled = true;
  p.resilience.budget.ratio = 0.1;
  p.resilience.budget.burst = 50.0;
  p.resilience.breaker.enabled = true;
  p.resilience.breaker.failure_threshold = 5;
  p.resilience.breaker.open_cooldown = 25 * sim::kMillisecond;
  p.resilience.breaker.half_open_probes = 3;
  p.resilience.breaker.latency_threshold_s = 0.010;
  p.resilience.breaker.min_latency_samples = 20;
  p.resilience.breaker.latency_alpha = 0.2;
  p.resilience.hedge.enabled = true;
  p.resilience.hedge.quantile = 95.0;
  p.resilience.hedge.min_delay = 3 * sim::kMillisecond;
  p.resilience.hedge.window = 512;
  p.resilience.hedge.min_samples = 50;
  p.offered_qps = sizes.load * serve::estimated_capacity_qps(p, p.replicas);
  p.horizon = sizes.warmup + static_cast<sim::SimTime>(sizes.steps_per_episode) * kStep;
  return p;
}

class ServingChaos final : public Workload {
 public:
  explicit ServingChaos(const Config& cfg)
      : cfg_{cfg}, sizes_{sizes_for(cfg.tiny)}, params_{base_params(sizes_)} {
    // FrontDoor places the gateway on hosts[0] and replicas on the next
    // `replicas` hosts; the churn plan targets exactly those.
    const auto hosts =
        net::make_fat_tree(4).nodes_of_kind(net::NodeKind::kHost);
    replica_hosts_.assign(hosts.begin() + 1,
                          hosts.begin() + 1 + static_cast<long>(params_.replicas));
  }

  void prepare(std::uint64_t episode) override {
    ep_.reset();
    episode_ = episode;
    params_.seed = mix_seed(cfg_.seed, 2 * episode);
    plan_ = serve::make_host_churn_plan(replica_hosts_, sizes_.churn_mtbf_s,
                                        sizes_.churn_mttr_s, params_.horizon,
                                        mix_seed(cfg_.seed, 2 * episode + 1));
  }

  void setup() override {
    ep_ = std::make_unique<Episode>(params_, std::move(plan_));
    const std::int64_t t0 = now_ns();
    ep_->door.preload();
    preload_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    ep_->injector.on_event([this](const faults::FaultEvent& event) {
      Scope span{spans_, "serve.handle_fault"};
      ep_->door.handle_fault(event);
    });
    ep_->injector.arm();
    ep_->door.start();
    ep_->sim.run_until(sizes_.warmup);
    at_start_ = counters();
  }

  std::uint64_t steps_per_episode() const override {
    return sizes_.steps_per_episode;
  }

  std::uint64_t step(const StepMode& mode) override {
    const std::uint64_t done0 = terminal();
    std::uint64_t events = 0;
    {
      Scope span{spans_, "sim.run_until"};
      events = ep_->sim.run_until(ep_->sim.now() + kStep);
    }
    pending_ = ep_->sim.pending_events();
    if (mode.window) window_events_ += events;
    return terminal() - done0;
  }

  bool finish_episode() override {
    if (episode_ == 0) window_ = counters() - at_start_;
    ep_->sim.run();  // drain: every issued request reaches a terminal state
    const serve::SloAccountant& slo = ep_->door.slo();
    if (episode_ == 0) {
      ep0_ = counters();
      if (!slo.latency_seconds().empty()) {
        p50_ms_ = slo.latency_seconds().p50() * 1e3;
        p99_ms_ = slo.latency_seconds().p99() * 1e3;
        p999_ms_ = slo.latency_seconds().p999() * 1e3;
      }
      if (cfg_.trace) replay_gets();
    }
    return slo.ledger_ok();
  }

  void write_sizes(obs::JsonWriter& w) const override {
    w.key("fat_tree_k").value(std::int64_t{4});
    w.key("replicas").value(static_cast<std::uint64_t>(params_.replicas));
    w.key("replication").value(static_cast<std::uint64_t>(params_.replication));
    w.key("key_universe").value(static_cast<std::uint64_t>(sizes_.key_universe));
    w.key("zipf_s").value(params_.zipf_s);
    w.key("read_fraction").value(params_.read_fraction);
    w.key("value_bytes").value(static_cast<std::uint64_t>(params_.value_bytes));
    w.key("offered_qps").value(params_.offered_qps);
    w.key("capacity_qps")
        .value(serve::estimated_capacity_qps(params_, params_.replicas));
    w.key("step_sim_ms").value(sim::to_milliseconds(kStep));
    w.key("warmup_sim_ms").value(sim::to_milliseconds(sizes_.warmup));
    w.key("steps_per_episode").value(sizes_.steps_per_episode);
    w.key("churn_mtbf_s").value(sizes_.churn_mtbf_s);
    w.key("churn_mttr_s").value(sizes_.churn_mttr_s);
    w.key("loop").value("open");
  }

  void write_digest(obs::JsonWriter& w) const override {
    w.key("issued").value(ep0_.issued);
    w.key("completed").value(ep0_.completed);
    w.key("rejected").value(ep0_.rejected);
    w.key("failed").value(ep0_.failed);
    w.key("retries").value(ep0_.retries);
    w.key("latency_p50_ms").value(p50_ms_);
    w.key("latency_p99_ms").value(p99_ms_);
    w.key("latency_p999_ms").value(p999_ms_);
    w.key("hedges_issued").value(ep0_.hedges_issued);
    w.key("breaker_opens").value(ep0_.breaker_opens);
  }

  void layer_values(LayerValues& out, const Window& window,
                    const SpanTotals& traced) override {
    const Spans::Totals faults = totals_of(traced, "serve.handle_fault");
    const auto events = static_cast<double>(window_events_);
    out["sim.events"] = events;
    out["sim.events_per_unit"] = per(events, static_cast<double>(window.units));
    out["sim.ns_per_event"] = per(static_cast<double>(window.ns), events);
    double hold_allocs = 0.0;
    out["sim.hold_ns_per_event"] =
        hold_model_ns(pending_, cfg_.seed, &hold_allocs);
    out["sim.hold_pending"] = static_cast<double>(pending_);
    out["sim.hold_allocs_per_event"] = hold_allocs;
    out["sim.allocs_per_event"] =
        per(static_cast<double>(window.allocs), events);
    out["faults.events_applied"] = static_cast<double>(window_.faults_applied);
    out["serve.issued"] = static_cast<double>(window_.issued);
    out["serve.completed"] = static_cast<double>(window_.completed);
    out["serve.rejected"] = static_cast<double>(window_.rejected);
    out["serve.failed"] = static_cast<double>(window_.failed);
    out["serve.retries"] = static_cast<double>(window_.retries);
    out["serve.hedges_issued"] = static_cast<double>(window_.hedges_issued);
    out["serve.wasted_responses"] =
        static_cast<double>(window_.wasted_responses);
    out["serve.breaker_opens"] = static_cast<double>(window_.breaker_opens);
    out["serve.handle_fault_us"] =
        per(static_cast<double>(faults.total_ns) * 1e-3,
            static_cast<double>(faults.count));
    out["serve.handle_fault_calls"] = static_cast<double>(faults.count);
    out["serve.preload_s"] = median(preload_s_);
    out["serve.allocs_per_request"] = per(
        static_cast<double>(window.allocs), static_cast<double>(window.units));
    out["storage.get_us"] = get_us_;
    out["storage.gets"] = static_cast<double>(replayed_);
    out["storage.probes_per_get"] =
        per(static_cast<double>(replay_probes_), static_cast<double>(replayed_));
    out["storage.bloom_skips_per_get"] =
        per(static_cast<double>(replay_skips_), static_cast<double>(replayed_));
    out["storage.write_amplification"] = store_stats_.write_amplification();
    out["storage.flushes"] = static_cast<double>(store_stats_.flushes);
    out["storage.compactions"] = static_cast<double>(store_stats_.compactions);
    out["storage.runs"] = static_cast<double>(store_runs_);
  }

 private:
  /// Program state of one episode; members in construction order.
  struct Episode {
    Episode(const serve::FrontDoorParams& params, faults::FaultPlan plan)
        : topo{net::make_fat_tree(4)},
          router{topo},
          door{sim, topo, router, params},
          injector{sim, topo, std::move(plan)} {}
    net::Topology topo;
    sim::Simulator sim;
    net::Router router;
    serve::FrontDoor door;
    faults::FaultInjector injector;
  };

  /// The serving plane's counters, from SloAccountant, ResilienceStats and
  /// the fault injector.
  struct Counters {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges_issued = 0;
    std::uint64_t wasted_responses = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t faults_applied = 0;

    Counters operator-(const Counters& o) const {
      return {issued - o.issued,
              completed - o.completed,
              rejected - o.rejected,
              failed - o.failed,
              retries - o.retries,
              hedges_issued - o.hedges_issued,
              wasted_responses - o.wasted_responses,
              breaker_opens - o.breaker_opens,
              faults_applied - o.faults_applied};
    }
  };

  Counters counters() const {
    const serve::SloAccountant& slo = ep_->door.slo();
    const serve::ResilienceStats res = ep_->door.resilience_stats();
    return {slo.issued(),      slo.completed(),        slo.rejected(),
            slo.failed(),      slo.retries(),          res.hedges_issued,
            res.wasted_responses, res.breaker_opens,
            ep_->injector.applied_events()};
  }

  std::uint64_t terminal() const {
    const serve::SloAccountant& slo = ep_->door.slo();
    return slo.completed() + slo.rejected() + slo.failed();
  }

  /// Replays Zipf(0.99) gets against replica 0's store of episode 0, over
  /// the keys it holds in scan order (the store's key order is the
  /// popularity order the front door draws from).
  void replay_gets() {
    const storage::LsmStore& store = ep_->door.replica(0).store();
    std::vector<std::string> keys;
    for (auto& [key, value] : store.scan("", "")) keys.push_back(key);
    if (keys.empty()) return;
    sim::Rng rng{mix_seed(cfg_.seed, 0x6e75)};
    const sim::ZipfDistribution zipf{keys.size(), params_.zipf_s};
    std::vector<const std::string*> order;
    order.reserve(sizes_.replay_gets);
    for (std::size_t i = 0; i < sizes_.replay_gets; ++i) {
      order.push_back(&keys[zipf(rng)]);
    }
    const storage::LsmStats before = store.stats();
    std::vector<double> pass_us;
    std::size_t found = 0;
    for (int pass = 0; pass < 3; ++pass) {
      const std::int64_t t0 = now_ns();
      for (const std::string* key : order) found += store.get(*key).has_value();
      pass_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                        static_cast<double>(order.size()));
    }
    if (found == 0) throw std::runtime_error{"serving_chaos: replay missed"};
    get_us_ = median(pass_us);
    replayed_ = 3 * order.size();
    replay_probes_ = store.stats().sstable_probes - before.sstable_probes;
    replay_skips_ = store.stats().bloom_skips - before.bloom_skips;
    store_stats_ = store.stats();
    store_runs_ = 0;
    for (std::size_t l = 0; l < store.level_count(); ++l) {
      store_runs_ += store.runs_in_level(l);
    }
  }

  Config cfg_;
  Sizes sizes_;
  serve::FrontDoorParams params_;
  std::vector<net::NodeId> replica_hosts_;

  std::uint64_t episode_ = 0;
  faults::FaultPlan plan_;
  std::unique_ptr<Episode> ep_;
  std::size_t pending_ = 0;
  std::vector<double> preload_s_;

  Counters at_start_;  // when the episode's first step begins
  Counters window_;    // episode 0's steps
  Counters ep0_;       // all of episode 0, drained
  std::uint64_t window_events_ = 0;
  double p50_ms_ = 0.0;
  double p99_ms_ = 0.0;
  double p999_ms_ = 0.0;

  double get_us_ = 0.0;
  std::uint64_t replayed_ = 0;
  std::uint64_t replay_probes_ = 0;
  std::uint64_t replay_skips_ = 0;
  storage::LsmStats store_stats_;
  std::size_t store_runs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serving_chaos(const Config& cfg) {
  return std::make_unique<ServingChaos>(cfg);
}

}  // namespace perfbench
