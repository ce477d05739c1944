#include "obs/context.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rb::obs {

const char* to_string(Segment s) noexcept {
  switch (s) {
    case Segment::kRequest: return "request";
    case Segment::kAttempt: return "attempt";
    case Segment::kNetwork: return "network";
    case Segment::kQueue: return "queue";
    case Segment::kService: return "service";
    case Segment::kBackoff: return "backoff";
    case Segment::kHedgeWait: return "hedge_wait";
    case Segment::kStorage: return "storage";
    case Segment::kOther: return "other";
  }
  return "other";
}

const char* to_string(TraceOutcome o) noexcept {
  switch (o) {
    case TraceOutcome::kCompleted: return "completed";
    case TraceOutcome::kFailed: return "failed";
    case TraceOutcome::kRejected: return "rejected";
  }
  return "failed";
}

double CriticalPath::share(Segment s) const noexcept {
  if (total_ps <= 0) return 0.0;
  std::int64_t part = 0;
  switch (s) {
    case Segment::kQueue: part = queue_ps; break;
    case Segment::kService: part = service_ps; break;
    case Segment::kNetwork: part = network_ps; break;
    case Segment::kBackoff: part = backoff_ps; break;
    case Segment::kHedgeWait: part = hedge_wait_ps; break;
    case Segment::kOther: part = other_ps; break;
    default: return 0.0;
  }
  return static_cast<double>(part) / static_cast<double>(total_ps);
}

void RequestTracer::set_params(const ExemplarParams& params) {
  std::lock_guard<std::mutex> lock(mutex_);
  params_ = params;
}

TraceContext RequestTracer::start_trace(std::string_view name,
                                        std::int64_t ts_ps) {
  if (!enabled()) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t trace_id = next_trace_++;
  const std::uint64_t span_id = next_span_++;
  LiveTrace& t = live_[trace_id];
  t.name.assign(name);
  t.start_ps = ts_ps;
  CausalSpan root;
  root.span_id = span_id;
  root.segment = Segment::kRequest;
  root.name.assign(name);
  root.start_ps = ts_ps;
  t.span_index[span_id] = t.spans.size();
  t.spans.push_back(std::move(root));
  return TraceContext{trace_id, span_id};
}

std::uint64_t RequestTracer::begin_span(const TraceContext& parent,
                                        Segment segment, std::string_view name,
                                        std::int64_t ts_ps, std::int64_t ref) {
  if (!enabled() || !parent.active()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(parent.trace_id);
  if (it == live_.end()) return 0;
  const std::uint64_t span_id = next_span_++;
  CausalSpan s;
  s.span_id = span_id;
  s.parent_id = parent.span_id;
  s.segment = segment;
  s.name.assign(name);
  s.start_ps = ts_ps;
  s.ref = ref;
  it->second.span_index[span_id] = it->second.spans.size();
  it->second.spans.push_back(std::move(s));
  return span_id;
}

void RequestTracer::end_span(std::uint64_t trace_id, std::uint64_t span_id,
                             std::int64_t ts_ps) {
  if (!enabled() || trace_id == 0 || span_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(trace_id);
  if (it == live_.end()) return;
  auto si = it->second.span_index.find(span_id);
  if (si == it->second.span_index.end()) return;
  CausalSpan& s = it->second.spans[si->second];
  if (s.end_ps < 0) s.end_ps = std::max(ts_ps, s.start_ps);
}

std::uint64_t RequestTracer::add_span(const TraceContext& parent,
                                      Segment segment, std::string_view name,
                                      std::int64_t start_ps,
                                      std::int64_t end_ps, std::int64_t ref) {
  const std::uint64_t id = begin_span(parent, segment, name, start_ps, ref);
  if (id != 0) end_span(parent.trace_id, id, end_ps);
  return id;
}

void RequestTracer::mark_won(std::uint64_t trace_id, std::uint64_t span_id) {
  if (!enabled() || trace_id == 0 || span_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(trace_id);
  if (it == live_.end()) return;
  auto si = it->second.span_index.find(span_id);
  if (si == it->second.span_index.end()) return;
  it->second.spans[si->second].won = true;
}

CriticalPath RequestTracer::critical_path(const LiveTrace& t,
                                          std::int64_t total) {
  CriticalPath path;
  path.total_ps = total;

  // The winning attempt span, if any response resolved the request.
  const CausalSpan* winner = nullptr;
  for (const CausalSpan& s : t.spans) {
    if (s.won && s.segment == Segment::kAttempt) {
      winner = &s;
      break;
    }
  }

  for (const CausalSpan& s : t.spans) {
    switch (s.segment) {
      case Segment::kBackoff:
        // Every backoff is serial on the request's path regardless of which
        // wave eventually won.
        path.backoff_ps += s.duration_ps();
        break;
      case Segment::kHedgeWait:
        // The hedge delay only cost the request wall-clock when the hedge
        // it spawned is the attempt that won; otherwise the primary was
        // going to answer anyway and the wait overlapped it.
        if (winner != nullptr && winner->ref >= 0 &&
            s.parent_id == winner->parent_id && winner->name == "hedge") {
          path.hedge_wait_ps += s.duration_ps();
        }
        break;
      case Segment::kNetwork:
      case Segment::kQueue:
      case Segment::kService:
        // Only the winning attempt's children are on the critical path;
        // losers ran concurrently with it.
        if (winner != nullptr && s.parent_id == winner->span_id) {
          const std::int64_t d = s.duration_ps();
          if (s.segment == Segment::kNetwork) path.network_ps += d;
          if (s.segment == Segment::kQueue) path.queue_ps += d;
          if (s.segment == Segment::kService) path.service_ps += d;
        }
        break;
      default:
        break;
    }
  }

  // Abandoned waves: when the gateway gave up on an attempt (timeout) and
  // retried, the wall-clock spent waiting on the zombie is real path time —
  // without this it all lands in "other" and the tail becomes unexplainable.
  // Charge it to the zombie's own queue/service/network children, clipped to
  // time not already claimed by the winner, a backoff, or a credited hedge
  // wait — and clipped against other zombies, so overlapping losers (a lost
  // primary racing its lost hedge) never double-bill the same picosecond.
  const std::int64_t finish = t.start_ps + total;
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::vector<Interval> claimed;
  if (winner != nullptr) claimed.emplace_back(winner->start_ps, finish);
  for (const CausalSpan& s : t.spans) {
    if (s.segment == Segment::kBackoff) {
      claimed.emplace_back(s.start_ps, s.end_ps);
    } else if (s.segment == Segment::kHedgeWait && winner != nullptr &&
               s.parent_id == winner->parent_id && winner->name == "hedge") {
      claimed.emplace_back(s.start_ps, s.end_ps);
    }
  }
  std::vector<std::uint64_t> zombies;
  for (const CausalSpan& s : t.spans) {
    if (s.segment == Segment::kAttempt &&
        (winner == nullptr || s.span_id != winner->span_id)) {
      zombies.push_back(s.span_id);
    }
  }
  std::vector<const CausalSpan*> kids;
  for (const CausalSpan& s : t.spans) {
    if (s.segment != Segment::kNetwork && s.segment != Segment::kQueue &&
        s.segment != Segment::kService) {
      continue;
    }
    if (std::find(zombies.begin(), zombies.end(), s.parent_id) ==
        zombies.end()) {
      continue;
    }
    if (s.duration_ps() > 0) kids.push_back(&s);
  }
  std::sort(kids.begin(), kids.end(),
            [](const CausalSpan* a, const CausalSpan* b) {
              return a->start_ps < b->start_ps;
            });
  for (const CausalSpan* s : kids) {
    const std::int64_t a = s->start_ps;
    const std::int64_t b = std::min(s->end_ps, finish);
    if (b <= a) continue;
    std::sort(claimed.begin(), claimed.end());
    std::int64_t cur = a;
    std::int64_t credit = 0;
    for (const Interval& c : claimed) {
      if (c.second <= cur) continue;
      if (c.first >= b) break;
      if (c.first > cur) credit += std::min(c.first, b) - cur;
      cur = std::max(cur, c.second);
      if (cur >= b) break;
    }
    if (cur < b) credit += b - cur;
    claimed.emplace_back(a, b);
    if (credit <= 0) continue;
    if (s->segment == Segment::kNetwork) path.network_ps += credit;
    if (s->segment == Segment::kQueue) path.queue_ps += credit;
    if (s->segment == Segment::kService) path.service_ps += credit;
  }

  const std::int64_t accounted = path.queue_ps + path.service_ps +
                                 path.network_ps + path.backoff_ps +
                                 path.hedge_wait_ps;
  path.other_ps = std::max<std::int64_t>(0, total - accounted);
  // Guard against rounding/overlap pushing accounted past total: rescale is
  // overkill — clamp total to the accounted sum so shares stay <= 1.
  if (accounted > total) path.total_ps = accounted;
  return path;
}

bool RequestTracer::retain(double latency_s, TraceOutcome outcome) const {
  if (params_.max_exemplars == 0) return false;
  if (outcome != TraceOutcome::kCompleted) return true;
  if (params_.latency_threshold_s > 0.0 &&
      latency_s >= params_.latency_threshold_s) {
    return true;
  }
  if (exemplars_.size() < params_.max_exemplars) return true;
  // Reservoir full: qualify only if slower than the fastest retained tree.
  double fastest = std::numeric_limits<double>::infinity();
  for (const ExemplarTrace& e : exemplars_) {
    const double lat =
        static_cast<double>(e.finish_ps - e.start_ps) * 1e-12;
    if (e.outcome == TraceOutcome::kCompleted) fastest = std::min(fastest, lat);
  }
  return latency_s > fastest;
}

bool RequestTracer::finish(std::uint64_t trace_id, std::int64_t ts_ps,
                           TraceOutcome outcome) {
  if (!enabled() || trace_id == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(trace_id);
  if (it == live_.end()) return false;
  LiveTrace& t = it->second;

  for (CausalSpan& s : t.spans) {
    if (s.end_ps < 0) s.end_ps = std::max(ts_ps, s.start_ps);
  }

  const std::int64_t total = std::max<std::int64_t>(0, ts_ps - t.start_ps);
  const CriticalPath path = critical_path(t, total);
  const double latency_s = static_cast<double>(total) * 1e-12;
  records_.push_back(FinishedRecord{latency_s, path});

  const bool keep = retain(latency_s, outcome);
  if (keep) {
    ExemplarTrace ex;
    ex.trace_id = trace_id;
    ex.name = t.name;
    ex.start_ps = t.start_ps;
    ex.finish_ps = ts_ps;
    ex.outcome = outcome;
    ex.path = path;
    ex.spans = std::move(t.spans);
    exemplars_.push_back(std::move(ex));
    if (exemplars_.size() > params_.max_exemplars) {
      // Evict the fastest completed tree; failures are never evicted while a
      // completed tree remains.
      auto fastest = exemplars_.end();
      double best = -1.0;
      for (auto e = exemplars_.begin(); e != exemplars_.end(); ++e) {
        if (e->outcome != TraceOutcome::kCompleted) continue;
        const double lat =
            static_cast<double>(e->finish_ps - e->start_ps) * 1e-12;
        if (fastest == exemplars_.end() || lat < best) {
          fastest = e;
          best = lat;
        }
      }
      if (fastest == exemplars_.end()) fastest = exemplars_.begin();
      exemplars_.erase(fastest);
    }
  }
  live_.erase(it);
  return keep;
}

std::size_t RequestTracer::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<ExemplarTrace> RequestTracer::exemplars() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ExemplarTrace> out = exemplars_;
  std::stable_sort(out.begin(), out.end(),
                   [](const ExemplarTrace& a, const ExemplarTrace& b) {
                     return (a.finish_ps - a.start_ps) >
                            (b.finish_ps - b.start_ps);
                   });
  return out;
}

std::vector<BandDecomposition> RequestTracer::band_summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.empty()) return {};

  std::vector<const FinishedRecord*> sorted;
  sorted.reserve(records_.size());
  for (const FinishedRecord& r : records_) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FinishedRecord* a, const FinishedRecord* b) {
                     return a->latency_s < b->latency_s;
                   });

  struct BandDef {
    const char* name;
    double lo, hi;
  };
  static constexpr BandDef kBands[] = {
      {"p0-50", 0.0, 50.0},    {"p50-90", 50.0, 90.0},
      {"p90-99", 90.0, 99.0},  {"p99-99.9", 99.0, 99.9},
      {"p99.9-100", 99.9, 100.0},
  };

  const double n = static_cast<double>(sorted.size());
  std::vector<BandDecomposition> out;
  for (const BandDef& def : kBands) {
    const std::size_t lo =
        static_cast<std::size_t>(std::ceil(def.lo / 100.0 * n));
    const std::size_t hi =
        def.hi >= 100.0
            ? sorted.size()
            : static_cast<std::size_t>(std::ceil(def.hi / 100.0 * n));
    BandDecomposition band;
    band.band = def.name;
    band.lo_pct = def.lo;
    band.hi_pct = def.hi;
    if (hi <= lo) {
      out.push_back(band);
      continue;
    }
    double total = 0, queue = 0, service = 0, network = 0, backoff = 0,
           hedge = 0, other = 0, latency = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const CriticalPath& p = sorted[i]->path;
      total += static_cast<double>(p.total_ps);
      queue += static_cast<double>(p.queue_ps);
      service += static_cast<double>(p.service_ps);
      network += static_cast<double>(p.network_ps);
      backoff += static_cast<double>(p.backoff_ps);
      hedge += static_cast<double>(p.hedge_wait_ps);
      other += static_cast<double>(p.other_ps);
      latency += sorted[i]->latency_s;
    }
    band.count = static_cast<std::uint64_t>(hi - lo);
    band.mean_latency_s = latency / static_cast<double>(hi - lo);
    if (total > 0) {
      band.queue_share = queue / total;
      band.service_share = service / total;
      band.network_share = network / total;
      band.backoff_share = backoff / total;
      band.hedge_wait_share = hedge / total;
      band.other_share = other / total;
    }
    out.push_back(band);
  }
  return out;
}

void RequestTracer::export_chrome(TraceRecorder& recorder) const {
  std::vector<ExemplarTrace> trees = exemplars();
  for (const ExemplarTrace& ex : trees) {
    for (const CausalSpan& s : ex.spans) {
      std::vector<TraceArg> args;
      args.push_back(trace_arg("trace_id", ex.trace_id));
      args.push_back(trace_arg("span_id", s.span_id));
      if (s.parent_id != 0) {
        args.push_back(trace_arg("parent_span_id", s.parent_id));
      }
      if (s.ref >= 0) args.push_back(trace_arg("ref", s.ref));
      if (s.won) args.push_back(trace_arg("won", std::string("true")));
      if (s.segment == Segment::kRequest) {
        args.push_back(
            trace_arg("outcome", std::string(to_string(ex.outcome))));
      }
      const std::string category =
          std::string("trace.") + to_string(s.segment);
      recorder.complete(category, s.name, s.start_ps, s.duration_ps(),
                        std::move(args));
    }
  }
}

void RequestTracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.clear();
  records_.clear();
  exemplars_.clear();
  next_trace_ = 1;
  next_span_ = 1;
}

RequestTracer& RequestTracer::global() {
  static RequestTracer tracer;
  return tracer;
}

}  // namespace rb::obs
