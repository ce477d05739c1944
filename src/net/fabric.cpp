#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "accel/simd/simd.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "sim/hash.hpp"

namespace rb::net {

namespace {
// A flow is considered drained when fewer than this many bits remain;
// guards against floating-point residue never reaching exactly zero.
constexpr double kResidualBits = 1e-6;

// Relative tolerance when matching a link's fair share against the round's
// bottleneck share during progressive filling.
constexpr double kShareSlack = 1e-12;

// The share of a saturated link (no unfrozen flow): never a bottleneck.
constexpr double kUnbounded = std::numeric_limits<double>::infinity();

const obs::Logger& net_log() {
  static const obs::Logger logger{"net"};
  return logger;
}

/// Fabric telemetry, resolved once per process; increments are guarded by
/// obs::enabled() at every call site.
struct NetMetrics {
  obs::Counter* started;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* rerouted;
  obs::LatencyHistogram* fct_seconds;

  static NetMetrics& get() {
    auto& r = obs::Registry::global();
    static NetMetrics m{
        &r.counter("net.flows_started"),
        &r.counter("net.flows_completed"),
        &r.counter("net.flows_failed"),
        &r.counter("net.flows_cancelled"),
        &r.counter("net.flows_rerouted"),
        &r.histogram("net.fct_seconds",
                     obs::exponential_bounds(1e-6, 2.0, 40))};
    return m;
  }
};
}  // namespace

FlowSimulator::FlowSimulator(sim::Simulator& sim, const Topology& topo,
                             const Router& router, RateAllocation allocation)
    : sim_{&sim}, topo_{&topo}, router_{&router}, allocation_{allocation} {
  ensure_dlinks();
}

FlowSimulator::~FlowSimulator() {
  completion_event_.cancel();
  realloc_event_.cancel();
}

// --- arena plumbing -------------------------------------------------------

void FlowSimulator::ensure_dlinks() {
  const std::size_t want = 2 * topo_->link_count();
  if (dlinks_.size() < want) dlinks_.resize(want);
}

std::uint32_t FlowSimulator::acquire_slot() {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  ++active_count_;
  return idx;
}

std::uint32_t FlowSimulator::find_slot(FlowId id) const {
  if (id == 0) return kNoSlot;  // free slots carry id 0
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id == id) return i;
  }
  return kNoSlot;
}

void FlowSimulator::release_slot(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  s.id = 0;
  s.on_complete = nullptr;
  s.path.clear();  // keeps capacity for the next tenant
  s.next_free = free_head_;
  free_head_ = idx;
  --active_count_;
}

void FlowSimulator::link_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  for (std::uint32_t h = 0; h < s.path.size(); ++h) {
    DirLink& dl = dlinks_[s.path[h].dlink];
    s.path[h].pos = static_cast<std::uint32_t>(dl.flows.size());
    dl.flows.push_back(LinkEntry{idx, h});
  }
}

void FlowSimulator::unlink_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  for (const PathHop& hop : s.path) {
    DirLink& dl = dlinks_[hop.dlink];
    const LinkEntry moved = dl.flows.back();
    dl.flows[hop.pos] = moved;
    slots_[moved.slot].path[moved.hop].pos = hop.pos;
    dl.flows.pop_back();
  }
}

void FlowSimulator::build_path(FlowId id, NodeId src, NodeId dst,
                               std::vector<PathHop>& path,
                               sim::SimTime& latency) {
  path.clear();
  latency = 0;
  if (src == dst) return;
  router_->path(src, dst, sim::mix64(id), route_scratch_);
  NodeId at = src;
  for (const LinkId link_id : route_scratch_) {
    const Link& link = topo_->link(link_id);
    const std::uint32_t dir = (link.a == at) ? 0 : 1;
    path.push_back(PathHop{(static_cast<std::uint32_t>(link_id) << 1) | dir, 0});
    latency += link.latency;
    at = (link.a == at) ? link.b : link.a;
  }
}

// --- public API -----------------------------------------------------------

FlowId FlowSimulator::start_flow(NodeId src, NodeId dst, sim::Bytes size,
                                 FlowCallback on_complete) {
  const FlowId id = next_id_++;
  sim::SimTime latency = 0;
  build_path(id, src, dst, path_scratch_, latency);  // throws NoRouteError
  ++started_;
  if (obs::enabled()) {
    NetMetrics::get().started->add();
    obs::TraceRecorder::global().async_begin(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("src", static_cast<std::uint64_t>(src)),
         obs::trace_arg("dst", static_cast<std::uint64_t>(dst)),
         obs::trace_arg("bytes", static_cast<std::uint64_t>(size))});
  }
  const double bits = static_cast<double>(size) * 8.0;
  if (bits <= kResidualBits || path_scratch_.empty()) {
    // Degenerate flow: completes after propagation only.
    FlowRecord record{id,
                      src,
                      dst,
                      size,
                      sim_->now(),
                      sim_->now() + latency,
                      FlowOutcome::kCompleted,
                      size};
    sim_->schedule_in(latency, [this, record, cb = std::move(on_complete)] {
      ++completed_;
      const double fct_s = sim::to_seconds(record.finish - record.start);
      fct_.add(fct_s);
      if (obs::enabled()) {
        NetMetrics::get().completed->add();
        NetMetrics::get().fct_seconds->observe(fct_s);
        obs::TraceRecorder::global().async_end(
            "net.flow", "flow", record.id, sim_->now(),
            {obs::trace_arg("outcome", "completed")});
      }
      if (cb) cb(record);
    });
    return id;
  }

  advance_to_now();
  ensure_dlinks();
  const std::uint32_t idx = acquire_slot();
  FlowSlot& s = slots_[idx];
  s.src = src;
  s.dst = dst;
  s.size = size;
  s.remaining_bits = bits;
  s.rate = 0.0;
  s.start = sim_->now();
  s.latency = latency;
  s.id = id;
  s.path.swap(path_scratch_);
  s.on_complete = std::move(on_complete);
  link_flow(idx);
  request_realloc();
  return id;
}

bool FlowSimulator::cancel_flow(FlowId id) {
  const std::uint32_t idx = find_slot(id);
  if (idx == kNoSlot) return false;
  advance_to_now();
  unlink_flow(idx);
  release_slot(idx);
  ++cancelled_;
  if (obs::enabled()) {
    NetMetrics::get().cancelled->add();
    obs::TraceRecorder::global().async_end(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("outcome", "cancelled")});
  }
  request_realloc();
  return true;
}

bool FlowSimulator::path_is_live(const FlowSlot& flow) const {
  if (!topo_->node_up(flow.src) || !topo_->node_up(flow.dst)) return false;
  for (const PathHop& hop : flow.path) {
    if (!topo_->link_usable(static_cast<LinkId>(hop.dlink >> 1))) return false;
  }
  return true;
}

void FlowSimulator::handle_topology_change() {
  advance_to_now();
  ensure_dlinks();
  // Pass 1: classify every active flow against the new component state.
  auto broken = std::move(broken_scratch_);
  broken.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id != 0 && !path_is_live(slots_[i])) {
      broken.emplace_back(slots_[i].id, i);
    }
  }
  if (broken.empty()) {
    // Repairs can still open shorter paths for *new* flows; active flows
    // stay put (no flap-induced reshuffling) — nothing to do.
    broken_scratch_ = std::move(broken);
    return;
  }
  std::sort(broken.begin(), broken.end());  // deterministic order
  // Pass 2: reroute around the failure or fail the flow.
  for (const auto& [id, idx] : broken) {
    FlowSlot& s = slots_[idx];
    try {
      sim::SimTime latency = 0;
      build_path(id, s.src, s.dst, path_scratch_, latency);
      unlink_flow(idx);
      s.path.swap(path_scratch_);
      s.latency = latency;
      link_flow(idx);
      ++rerouted_;
      if (obs::enabled()) {
        NetMetrics::get().rerouted->add();
        obs::TraceRecorder::global().instant(
            "net.flow", "reroute", sim_->now(),
            {obs::trace_arg("flow", id)});
      }
      net_log().info() << "flow " << id << " rerouted around failure";
    } catch (const NoRouteError&) {
      fail_flow(idx);
    }
  }
  broken_scratch_ = std::move(broken);
  realloc_pending_ = true;
  flush_realloc();
}

double FlowSimulator::current_rate(FlowId id) const {
  const std::uint32_t idx = find_slot(id);
  if (idx == kNoSlot)
    throw std::invalid_argument{"FlowSimulator::current_rate: unknown flow"};
  // Settle any same-timestamp coalesced epoch so the caller never sees a
  // stale (or zero, for a just-started flow) rate.
  const_cast<FlowSimulator*>(this)->flush_realloc();
  return slots_[idx].rate;
}

void FlowSimulator::advance_to_now() {
  const sim::SimTime now = sim_->now();
  const double elapsed = sim::to_seconds(now - last_advance_);
  if (elapsed > 0.0) {
    // Flat arena sweep: one contiguous pass, free slots skipped by the
    // id == 0 test.
    for (FlowSlot& s : slots_) {
      if (s.id == 0) continue;
      s.remaining_bits = std::max(0.0, s.remaining_bits - s.rate * elapsed);
    }
  }
  last_advance_ = now;
}

// --- coalesced reallocation ----------------------------------------------

void FlowSimulator::request_realloc() {
  if (realloc_pending_) {
    ++astats_.coalesced_events;
    return;
  }
  realloc_pending_ = true;
  // Zero-delay event: every arrival/departure landing on this timestamp
  // shares the single solve that runs when the event fires (or earlier, if
  // a synchronous query forces the flush).
  realloc_event_ = sim_->schedule_in(0, [this] { flush_realloc(); });
}

void FlowSimulator::flush_realloc() {
  if (!realloc_pending_) return;
  realloc_pending_ = false;
  realloc_event_.cancel();
  advance_to_now();
  solve();
  schedule_next_completion();
}

void FlowSimulator::solve() {
  ++astats_.reallocations;
  if (allocation_ == RateAllocation::kEqualSharePerLink) {
    solve_equal_share();
  } else {
    solve_maxmin();
  }
}

void FlowSimulator::solve_maxmin() {
  if (active_count_ == 0) return;
  // Fetched per solve, so set_isa() and RB_SIMD reach the next epoch.
  const accel::simd::Kernels& simd = accel::simd::kernels();
  // Init walks the directed links, not the flows' hops: a link's unfrozen
  // count starts at its membership size and its residual at its rate.
  active_links_.clear();
  share_.clear();
  for (std::uint32_t d = 0; d < dlinks_.size(); ++d) {
    DirLink& dl = dlinks_[d];
    if (dl.flows.empty()) continue;
    dl.remaining_cap = topo_->link(static_cast<LinkId>(d >> 1)).rate;
    dl.unfrozen = static_cast<std::int32_t>(dl.flows.size());
    dl.pos = static_cast<std::uint32_t>(active_links_.size());
    active_links_.push_back(d);
    share_.push_back(dl.remaining_cap / dl.unfrozen);
  }
  for (FlowSlot& s : slots_) s.frozen = false;
  const std::size_t n = active_links_.size();
  double* const share = share_.data();

  // Max-min fair: progressive filling over directed link capacities. Each
  // round takes the minimum share as the bottleneck, then walks the links
  // at that share in active_links_ order and freezes their unfrozen flows.
  // A freeze rewrites the shares of the links on the frozen flow's path
  // (+inf once a link has no unfrozen flow left), so each later link is
  // judged on its share at the moment the walk reaches it: the walk asks
  // first_le_f64 for the next candidate after every bottleneck it handles
  // instead of selecting them all up front. A round costs two kernel scans
  // over contiguous doubles plus O(flows frozen × path).
  std::size_t remaining = active_count_;
  while (remaining > 0) {
    const double best_share = simd.min_f64(share, n);
    if (best_share == kUnbounded) break;  // defensive: only empty paths left
    ++astats_.solve_rounds;

    const double threshold = best_share * (1 + kShareSlack);
    for (std::size_t p = simd.first_le_f64(share, n, threshold); p < n;
         p += 1 + simd.first_le_f64(share + p + 1, n - p - 1, threshold)) {
      // Freeze every unfrozen flow crossing this bottleneck at the share.
      for (const LinkEntry& entry : dlinks_[active_links_[p]].flows) {
        FlowSlot& s = slots_[entry.slot];
        if (s.frozen) continue;
        s.frozen = true;
        s.rate = best_share;
        --remaining;
        for (const PathHop& hop : s.path) {
          DirLink& on = dlinks_[hop.dlink];
          on.remaining_cap = std::max(0.0, on.remaining_cap - best_share);
          --on.unfrozen;
          share[on.pos] =
              on.unfrozen > 0 ? on.remaining_cap / on.unfrozen : kUnbounded;
        }
      }
    }
  }

  if (obs::enabled()) update_link_gauges();
}

void FlowSimulator::solve_equal_share() {
  // Naive ablation baseline: every flow gets the minimum over its links of
  // capacity / flows-on-link, computed once without redistribution. The
  // per-link crossing count is just the membership list size.
  for (FlowSlot& s : slots_) {
    if (s.id == 0) continue;
    double rate = std::numeric_limits<double>::infinity();
    for (const PathHop& hop : s.path) {
      const DirLink& dl = dlinks_[hop.dlink];
      const double cap = topo_->link(static_cast<LinkId>(hop.dlink >> 1)).rate;
      rate = std::min(rate, cap / static_cast<double>(dl.flows.size()));
    }
    s.rate = rate;
  }
}

void FlowSimulator::update_link_gauges() {
  auto& registry = obs::Registry::global();
  for (const std::uint32_t dlink : active_links_) {
    auto it = link_util_gauges_.find(dlink);
    if (it == link_util_gauges_.end()) {
      const auto link_id = static_cast<LinkId>(dlink >> 1);
      it = link_util_gauges_
               .emplace(dlink,
                        &registry.gauge(
                            "net.link_utilization",
                            {{"link", std::to_string(link_id)},
                             {"dir", (dlink & 1) == 0 ? "fwd" : "rev"}}))
               .first;
    }
    const DirLink& dl = dlinks_[dlink];
    const double cap = topo_->link(static_cast<LinkId>(dlink >> 1)).rate;
    const double allocated = std::max(0.0, cap - dl.remaining_cap);
    it->second->set(cap > 0.0 ? allocated / cap : 0.0);
  }
}

// --- completions ----------------------------------------------------------

void FlowSimulator::schedule_next_completion() {
  completion_event_.cancel();
  if (active_count_ == 0) return;
  double earliest_s = std::numeric_limits<double>::infinity();
  for (const FlowSlot& s : slots_) {
    if (s.id == 0 || s.rate <= 0.0) continue;
    earliest_s = std::min(earliest_s, s.remaining_bits / s.rate);
  }
  if (!std::isfinite(earliest_s))
    throw std::logic_error{"FlowSimulator: active flows with zero rate"};
  // Ceil to >= 1 ps so simulated time strictly advances.
  const sim::SimTime delay =
      std::max<sim::SimTime>(1, sim::from_seconds(earliest_s) + 1);
  completion_event_ =
      sim_->schedule_in(delay, [this] { handle_completion_event(); });
}

void FlowSimulator::handle_completion_event() {
  // Settle any same-timestamp churn first so every rate is fresh before the
  // drained-flow scan (also reschedules if the pending epoch changed the
  // earliest completion).
  flush_realloc();
  advance_to_now();
  auto done = std::move(done_scratch_);
  done.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id != 0 && slots_[i].remaining_bits <= kResidualBits) {
      done.emplace_back(slots_[i].id, i);
    }
  }
  // Deterministic completion order.
  std::sort(done.begin(), done.end());
  for (const auto& [id, idx] : done) finish_flow(idx);
  const bool drained = !done.empty();
  done_scratch_ = std::move(done);
  if (drained) {
    realloc_pending_ = true;
    flush_realloc();
  } else {
    schedule_next_completion();
  }
}

void FlowSimulator::finish_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  ++completed_;
  const FlowId id = s.id;
  FlowRecord record{id,
                    s.src,
                    s.dst,
                    s.size,
                    s.start,
                    sim_->now() + s.latency,
                    FlowOutcome::kCompleted,
                    s.size};
  auto cb = std::move(s.on_complete);
  unlink_flow(idx);
  release_slot(idx);
  const double fct_s = sim::to_seconds(record.finish - record.start);
  fct_.add(fct_s);
  if (obs::enabled()) {
    NetMetrics::get().completed->add();
    NetMetrics::get().fct_seconds->observe(fct_s);
    obs::TraceRecorder::global().async_end(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("outcome", "completed")});
  }
  if (cb) cb(record);
}

void FlowSimulator::fail_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  ++failed_;
  const FlowId id = s.id;
  const double sent_bits =
      static_cast<double>(s.size) * 8.0 - s.remaining_bits;
  FlowRecord record{id,
                    s.src,
                    s.dst,
                    s.size,
                    s.start,
                    sim_->now(),
                    FlowOutcome::kFailed,
                    static_cast<sim::Bytes>(std::max(0.0, sent_bits) / 8.0)};
  auto cb = std::move(s.on_complete);
  unlink_flow(idx);
  release_slot(idx);
  if (obs::enabled()) {
    NetMetrics::get().failed->add();
    obs::TraceRecorder::global().async_end(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("outcome", "failed")});
  }
  net_log().warn() << "flow " << id << " failed: endpoints disconnected";
  if (cb) cb(record);
}

sim::SimTime simulate_shuffle(const Topology& topo, sim::Bytes bytes_per_pair,
                              RateAllocation allocation) {
  sim::Simulator sim;
  Router router{topo};
  FlowSimulator fabric{sim, topo, router, allocation};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  sim::SimTime last_finish = 0;
  // All H×(H−1) starts land on timestamp 0 and share one coalesced
  // reallocation epoch instead of paying H×(H−1) recomputes.
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src == dst) continue;
      fabric.start_flow(src, dst, bytes_per_pair,
                        [&last_finish](const FlowRecord& r) {
                          last_finish = std::max(last_finish, r.finish);
                        });
    }
  }
  sim.run();
  return last_finish;
}

}  // namespace rb::net
