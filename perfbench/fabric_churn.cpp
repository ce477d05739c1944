// fabric_churn: a closed loop of flows on a k=8 fat tree with seeded flaps
// of switch-to-switch links. Each completion is replaced at once, so the
// fabric holds a fixed number of flows and every step costs the allocator
// the same kind of work. Why: the rate allocator is the slowest layer the
// roadmap names; here it does almost all the work and no serve, storage or
// query code runs.

#include <memory>
#include <stdexcept>
#include <vector>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "harness.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace rb;

struct Sizes {
  int fat_tree_k;
  std::size_t concurrent_flows;
  sim::Bytes flow_min;
  sim::Bytes flow_max;
  std::uint64_t step_completions;
  std::uint64_t warmup_completions;
  std::uint64_t steps_per_episode;
  sim::SimTime flap_period;  // one switch-to-switch link goes down per period
  sim::SimTime flap_down;    // < flap_period: one link down at a time
  sim::SimTime plan_horizon;  // beyond an episode's ~90 ms of simulated time
};

Sizes sizes_for(bool tiny) {
  if (tiny) {
    return {4, 120, sim::kMiB, 5 * sim::kMiB, 5, 40, 30,
            2 * sim::kMillisecond, sim::kMillisecond, 100 * sim::kMillisecond};
  }
  // A down flap lands in about one step in 30, so neither the median nor
  // the p90 step sits on the boundary between flap and plain steps.
  return {8, 2000, sim::kMiB, 5 * sim::kMiB, 20, 400, 200,
          12 * sim::kMillisecond, 6 * sim::kMillisecond,
          250 * sim::kMillisecond};
}

class FabricChurn final : public Workload {
 public:
  explicit FabricChurn(const Config& cfg) : cfg_{cfg}, sizes_{sizes_for(cfg.tiny)} {
    const net::Topology topo = net::make_fat_tree(sizes_.fat_tree_k);
    hosts_ = topo.nodes_of_kind(net::NodeKind::kHost);
    for (net::LinkId id = 0; id < topo.link_count(); ++id) {
      const net::Link& link = topo.link(id);
      if (topo.node(link.a).kind != net::NodeKind::kHost &&
          topo.node(link.b).kind != net::NodeKind::kHost) {
        switch_links_.push_back(id);
      }
    }
  }

  void prepare(std::uint64_t episode) override {
    ep_.reset();
    episode_ = episode;
    sim::Rng rng{mix_seed(cfg_.seed, episode)};
    const std::size_t count =
        sizes_.concurrent_flows + sizes_.warmup_completions +
        sizes_.steps_per_episode * sizes_.step_completions * 2;
    flows_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = hosts_[rng.uniform_index(hosts_.size())];
      auto dst = hosts_[rng.uniform_index(hosts_.size() - 1)];
      if (dst == src) dst = hosts_.back();
      const sim::Bytes size =
          sizes_.flow_min + rng.uniform_index(sizes_.flow_max -
                                              sizes_.flow_min + 1);
      flows_.push_back(Flow{src, dst, size});
    }
    next_flow_ = 0;
    plan_ = faults::FaultPlan{};
    for (sim::SimTime t = sizes_.flap_period; t < sizes_.plan_horizon;
         t += sizes_.flap_period) {
      plan_.add_link_outage(
          switch_links_[rng.uniform_index(switch_links_.size())], t,
          sizes_.flap_down);
    }
  }

  void setup() override {
    ep_ = std::make_unique<Episode>(sizes_.fat_tree_k, std::move(plan_));
    // The benchmark reroutes from the observer instead of attach(), so the
    // call can be timed.
    ep_->injector.on_event([this](const faults::FaultEvent&) {
      Scope span{spans_, "net.reroute"};
      ep_->fabric.handle_topology_change();
    });
    ep_->injector.arm();
    ended_ = 0;
    for (std::size_t i = 0; i < sizes_.concurrent_flows; ++i) start_next_flow();
    while (ended_ < sizes_.warmup_completions) {
      if (!ep_->sim.step())
        throw std::runtime_error{"fabric_churn: warm-up drained the queue"};
    }
    at_start_ = snapshot();
  }

  std::uint64_t steps_per_episode() const override {
    return sizes_.steps_per_episode;
  }
  std::uint64_t step(const StepMode& mode) override {
    net::FlowSimulator& fabric = ep_->fabric;
    const std::uint64_t flow_events0 = flow_events(fabric);
    const std::uint64_t reallocs0 = fabric.allocator_stats().reallocations;
    const std::uint64_t target = ended_ + sizes_.step_completions;
    std::uint64_t events = 0;
    while (ended_ < target) {
      Scope span{spans_, "sim.step"};
      if (!ep_->sim.step())
        throw std::runtime_error{"fabric_churn: event queue drained"};
      ++events;
    }
    pending_ = ep_->sim.pending_events();
    if (mode.window) window_events_ += events;
    if (mode.traced) {
      traced_reallocs_ += fabric.allocator_stats().reallocations - reallocs0;
    }
    return flow_events(fabric) - flow_events0;
  }

  bool finish_episode() override {
    const net::FlowSimulator& f = ep_->fabric;
    const bool conserved =
        f.started_flows() == f.completed_flows() + f.failed_flows() +
                                 f.cancelled_flows() + f.active_flows() &&
        ended_ == f.completed_flows() + f.failed_flows();
    if (episode_ == 0) {
      const Snapshot end = snapshot();
      ep0_.flow_events = end.flow_events - at_start_.flow_events;
      ep0_.reallocations = end.reallocations - at_start_.reallocations;
      ep0_.solve_rounds = end.solve_rounds - at_start_.solve_rounds;
      ep0_.coalesced = end.coalesced - at_start_.coalesced;
      ep0_.rerouted = end.rerouted - at_start_.rerouted;
      ep0_.failed = end.failed - at_start_.failed;
      ep0_.faults_applied = end.faults_applied - at_start_.faults_applied;
      const sim::PercentileTracker& fct = f.fct_seconds();
      fct_count_ = fct.count();
      if (!fct.empty()) {
        fct_p50_ms_ = fct.p50() * 1e3;
        fct_p99_ms_ = fct.p99() * 1e3;
      }
    }
    return conserved;
  }

  void write_sizes(obs::JsonWriter& w) const override {
    w.key("fat_tree_k").value(static_cast<std::int64_t>(sizes_.fat_tree_k));
    w.key("hosts").value(static_cast<std::uint64_t>(hosts_.size()));
    w.key("switch_links").value(static_cast<std::uint64_t>(switch_links_.size()));
    w.key("concurrent_flows")
        .value(static_cast<std::uint64_t>(sizes_.concurrent_flows));
    w.key("flow_bytes_min").value(static_cast<std::uint64_t>(sizes_.flow_min));
    w.key("flow_bytes_max").value(static_cast<std::uint64_t>(sizes_.flow_max));
    w.key("step_completions").value(sizes_.step_completions);
    w.key("warmup_completions").value(sizes_.warmup_completions);
    w.key("steps_per_episode").value(sizes_.steps_per_episode);
    w.key("flap_period_ms").value(sim::to_milliseconds(sizes_.flap_period));
    w.key("flap_down_ms").value(sim::to_milliseconds(sizes_.flap_down));
    w.key("loop").value("closed");
  }

  void write_digest(obs::JsonWriter& w) const override {
    w.key("flow_ends_hash").value(digest_.hex());
    w.key("fct_count").value(static_cast<std::uint64_t>(fct_count_));
    w.key("fct_p50_ms").value(fct_p50_ms_);
    w.key("fct_p99_ms").value(fct_p99_ms_);
    w.key("rerouted_flows").value(ep0_.rerouted);
    w.key("failed_flows").value(ep0_.failed);
  }

  void layer_values(LayerValues& out, const Window& window,
                    const SpanTotals& traced) override {
    const Spans::Totals steps = totals_of(traced, "step");
    const Spans::Totals starts = totals_of(traced, "net.start_flow");
    const Spans::Totals reroutes = totals_of(traced, "net.reroute");
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
    out["net.flow_events"] = static_cast<double>(ep0_.flow_events);
    out["net.reallocations"] = static_cast<double>(ep0_.reallocations);
    out["net.solve_rounds_per_realloc"] =
        per(static_cast<double>(ep0_.solve_rounds),
            static_cast<double>(ep0_.reallocations));
    out["net.coalesced_per_realloc"] =
        per(static_cast<double>(ep0_.coalesced),
            static_cast<double>(ep0_.reallocations));
    out["net.realloc_us"] =
        per(static_cast<double>(steps.total_ns - starts.total_ns -
                                reroutes.total_ns) * 1e-3,
            static_cast<double>(traced_reallocs_));
    out["net.traced_reallocations"] = static_cast<double>(traced_reallocs_);
    out["net.start_flow_us"] = per(static_cast<double>(starts.total_ns) * 1e-3,
                                   static_cast<double>(starts.count));
    out["net.start_flow_calls"] = static_cast<double>(starts.count);
    out["net.reroute_ms"] = per(static_cast<double>(reroutes.total_ns) * 1e-6,
                                static_cast<double>(reroutes.count));
    out["net.reroute_calls"] = static_cast<double>(reroutes.count);
    out["net.rerouted_flows"] = static_cast<double>(ep0_.rerouted);
    out["net.failed_flows"] = static_cast<double>(ep0_.failed);
    out["net.allocs_per_flow_event"] = per(
        static_cast<double>(window.allocs), static_cast<double>(window.units));
    out["faults.events_applied"] = static_cast<double>(ep0_.faults_applied);
  }

 private:
  struct Flow {
    net::NodeId src;
    net::NodeId dst;
    sim::Bytes size;
  };

  /// Program state of one episode; members in construction order.
  struct Episode {
    Episode(int k, faults::FaultPlan plan)
        : topo{net::make_fat_tree(k)},
          router{topo},
          fabric{sim, topo, router},
          injector{sim, topo, std::move(plan)} {}
    net::Topology topo;
    sim::Simulator sim;
    net::Router router;
    net::FlowSimulator fabric;
    faults::FaultInjector injector;
  };

  struct Snapshot {
    std::uint64_t flow_events = 0;
    std::uint64_t reallocations = 0;
    std::uint64_t solve_rounds = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t failed = 0;
    std::uint64_t faults_applied = 0;
  };

  static std::uint64_t flow_events(const net::FlowSimulator& f) {
    return f.started_flows() + f.completed_flows() + f.failed_flows();
  }

  Snapshot snapshot() {
    const net::FlowSimulator& f = ep_->fabric;
    return Snapshot{flow_events(f),
                    f.allocator_stats().reallocations,
                    f.allocator_stats().solve_rounds,
                    f.allocator_stats().coalesced_events,
                    f.rerouted_flows(),
                    f.failed_flows(),
                    ep_->injector.applied_events()};
  }

  void start_next_flow() {
    const Flow& f = flows_[next_flow_++ % flows_.size()];
    Scope span{spans_, "net.start_flow"};
    ep_->fabric.start_flow(f.src, f.dst, f.size,
                           [this](const net::FlowRecord& r) { on_flow_end(r); });
  }

  void on_flow_end(const net::FlowRecord& r) {
    ++ended_;
    if (episode_ == 0) {
      digest_.add_value(r.id);
      digest_.add_value(r.finish);
      digest_.add_value(r.outcome);
    }
    start_next_flow();
  }

  Config cfg_;
  Sizes sizes_;
  std::vector<net::NodeId> hosts_;
  std::vector<net::LinkId> switch_links_;

  std::uint64_t episode_ = 0;
  std::vector<Flow> flows_;
  std::size_t next_flow_ = 0;
  faults::FaultPlan plan_;
  std::unique_ptr<Episode> ep_;
  std::uint64_t ended_ = 0;  // flow ends seen by the callback this episode
  Snapshot at_start_;
  std::size_t pending_ = 0;

  std::uint64_t window_events_ = 0;
  std::uint64_t traced_reallocs_ = 0;
  Snapshot ep0_;
  Digest digest_;
  std::size_t fct_count_ = 0;
  double fct_p50_ms_ = 0.0;
  double fct_p99_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_churn(const Config& cfg) {
  return std::make_unique<FabricChurn>(cfg);
}

}  // namespace perfbench
