// durable_query: an orders/lineitems table written through the durable LSM
// (WAL, flushes, group commit), recovered from its device, then queried
// through the vectorized engine. Why: the LSM-to-engine read path is the
// other slow layer the roadmap names; storage decode, query operators and
// SIMD kernels do all the work and no simulator runs. Its setup_s covers
// the durable write path and recovery.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "query/exec/lsm_table.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "sim/random.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"
#include "workloads/generators.hpp"

namespace perfbench {
namespace {

using namespace rb;
using query::Table;
using query::exec::ExecOptions;
using query::exec::ExecStats;
using query::exec::Plan;
using query::exec::PlanBuilder;

struct Sizes {
  std::size_t orders;
  std::uint64_t steps_per_episode;
  std::size_t memtable_bytes;
};

Sizes sizes_for(bool tiny) {
  // The tiny table is smaller than the default memtable; a small one keeps
  // flushes and compaction on the smoke-test path.
  if (tiny) return {2'000, 10, 64 << 10};
  return {20'000, 40, storage::LsmOptions{}.memtable_bytes};
}

/// Every fifth query is the selective one, the other four run the four
/// revenue thresholds. Each class holds a fixed fifth of the steps on
/// every seed, so the p50 (at 50%) and the p90 (at 90%) fall mid-way into
/// one class's share of the sorted steps, never on a seeded boundary.
constexpr std::uint64_t kSelectiveEvery = 5;
/// Revenue report: lineitems with amount >= threshold (amounts are uniform
/// in [100, 100000)).
constexpr std::int64_t kRevenueThresholds[] = {10'000, 25'000, 40'000, 60'000};
/// Selective scan: a 0.05%-wide amount band, first 10 matches.
constexpr std::int64_t kSelectiveWidth = 50;
constexpr std::size_t kSelectiveVariants = 4;
constexpr const char* kTable = "lineitems";
constexpr const char* kOps[] = {"hash_join", "filter", "group_aggregate",
                                "topk",      "limit",  "collect"};

bool tables_equal(const Table& a, const Table& b) {
  if (a.row_count() != b.row_count()) return false;
  if (a.column_names() != b.column_names()) return false;
  for (const auto& col : a.column_names()) {
    if (a.column_type(col) != b.column_type(col)) return false;
    if (a.column_type(col) == query::ColumnType::kInt) {
      if (a.ints(col) != b.ints(col)) return false;
    } else if (a.strings(col) != b.strings(col)) {
      return false;
    }
  }
  return true;
}

class DurableQuery final : public Workload {
 public:
  explicit DurableQuery(const Config& cfg)
      : cfg_{cfg}, sizes_{sizes_for(cfg.tiny)} {
    const auto rel =
        workloads::order_tables(sizes_.orders, 4.0, 0.8, cfg.seed);
    std::vector<std::int64_t> oid, cust, lid, amount;
    for (const auto& r : rel.orders) {
      oid.push_back(static_cast<std::int64_t>(r.key));
      cust.push_back(static_cast<std::int64_t>(r.payload));
    }
    for (const auto& r : rel.lineitems) {
      lid.push_back(static_cast<std::int64_t>(r.key));
      amount.push_back(static_cast<std::int64_t>(r.payload));
    }
    orders_.add_int_column("order_id", std::move(oid));
    orders_.add_int_column("customer", std::move(cust));
    lineitems_.add_int_column("order_id", std::move(lid));
    lineitems_.add_int_column("amount", std::move(amount));

    sim::Rng rng{mix_seed(cfg.seed, 0x71)};
    for (const std::int64_t t : kRevenueThresholds) {
      variants_.push_back(Variant{false, t, std::numeric_limits<std::int64_t>::max()});
    }
    for (std::size_t i = 0; i < kSelectiveVariants; ++i) {
      const auto lo = static_cast<std::int64_t>(100 + rng.uniform_index(99'000));
      variants_.push_back(Variant{true, lo, lo + kSelectiveWidth});
    }
    // Every kSelectiveEvery steps run each revenue threshold once, in a
    // seeded order, then one selective query.
    std::size_t order[] = {0, 1, 2, 3};
    for (std::uint64_t i = 0; i < sizes_.steps_per_episode; ++i) {
      const std::uint64_t slot = i % kSelectiveEvery;
      if (slot == 0) {
        for (std::size_t j = 3; j > 0; --j) {
          std::swap(order[j], order[rng.uniform_index(j + 1)]);
        }
      }
      sequence_.push_back(slot == kSelectiveEvery - 1
                              ? 4 + rng.uniform_index(kSelectiveVariants)
                              : order[slot]);
    }
    // References: the same plans over the in-memory table, computed before
    // any timed work.
    for (const Variant& v : variants_) {
      inmem_plans_.push_back(build(PlanBuilder{lineitems_}, v));
      references_.push_back(inmem_plans_.back().run());
    }
  }

  void prepare(std::uint64_t episode) override {
    plans_.clear();
    store_.reset();
    device_.reset();
    episode_ = episode;
    next_ = 0;
  }

  void setup() override {
    device_ = std::make_unique<storage::MemDevice>();
    const std::int64_t t0 = now_ns();
    {
      storage::LsmStore writer{options(), *device_};
      query::exec::store_table(writer, kTable, lineitems_);
      writer_stats_ = writer.stats();
    }
    const std::int64_t t1 = now_ns();
    store_ = std::make_unique<storage::LsmStore>(options(), *device_);
    ingest_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
    recovery_s_.push_back(static_cast<double>(now_ns() - t1) * 1e-9);
    for (const Variant& v : variants_) {
      plans_.push_back(build(PlanBuilder{*store_, kTable}, v));
    }
    // Warm-up: one query of each class.
    (void)plans_.front().run(ExecOptions{}, &stats_);
    (void)plans_.back().run(ExecOptions{}, &stats_);
  }

  std::uint64_t steps_per_episode() const override {
    return sizes_.steps_per_episode;
  }
  std::uint64_t step(const StepMode& mode) override {
    const std::size_t v = sequence_[next_++ % sequence_.size()];
    ExecOptions opts;
    if (mode.traced) opts.trace = &recorder_;  // fills ExecStats busy_ns
    Table result;
    const std::int64_t t0 = now_ns();
    {
      Scope span{spans_, "query.plan"};
      // stats_ keeps its capacity across runs, so filling it allocates
      // nothing inside the counted window.
      result = plans_[v].run(opts, mode.window ? &stats_ : nullptr);
    }
    const std::int64_t plan_ns = now_ns() - t0;
    if (!tables_equal(result, references_[v]))
      throw std::runtime_error{"durable_query: result differs from in-memory"};
    if (episode_ == 0) {
      ++ep0_queries_;
      hash(result);
    }
    if (mode.window) {
      source_rows_ += stats_.source_rows;
      for (const auto& op : stats_.operators) rows_out_[op.op] += op.rows_out;
    }
    if (mode.traced) fold_times(stats_, plan_ns, v);
    return 1;
  }

  bool finish_episode() override { return true; }

  void write_sizes(obs::JsonWriter& w) const override {
    w.key("orders").value(static_cast<std::uint64_t>(orders_.row_count()));
    w.key("lineitems").value(static_cast<std::uint64_t>(lineitems_.row_count()));
    w.key("memtable_bytes")
        .value(static_cast<std::uint64_t>(sizes_.memtable_bytes));
    w.key("user_bytes_written").value(writer_stats_.bytes_written_user);
    w.key("steps_per_episode").value(sizes_.steps_per_episode);
    w.key("selective_every").value(kSelectiveEvery);
    w.key("loop").value("closed");
  }

  void write_digest(obs::JsonWriter& w) const override {
    w.key("result_hash").value(digest_.hex());
    w.key("queries").value(ep0_queries_);
  }

  void layer_values(LayerValues& out, const Window& window,
                    const SpanTotals&) override {
    const auto traced = static_cast<double>(traced_queries_);
    const auto queries = static_cast<double>(window.units);
    out["query.queries"] = traced;
    out["query.plan_ms"] = per(plan_ns_ * 1e-6, traced);
    out["query.source_ms"] = per(source_ns_ * 1e-6, traced);
    double attributed_ns = source_ns_;
    for (const char* op : kOps) {
      attributed_ns += op_self_ns_[op];
      out[std::string{"query.op_self_ms."} + op] =
          per(op_self_ns_[op] * 1e-6, traced);
      out[std::string{"query.rows_out."} + op] =
          per(static_cast<double>(rows_out_[op]), queries);
    }
    out["query.self_residual_ms"] = per((plan_ns_ - attributed_ns) * 1e-6, traced);
    out["query.source_rows"] = per(static_cast<double>(source_rows_), queries);
    // The same plans over the in-memory table, weighted like the traced
    // steps; the LSM-to-in-memory ratio's base is query.inmem_plan_ms.
    double inmem_ns = 0.0;
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      if (traced_by_variant_[v] == 0) continue;
      std::vector<double> reps;
      for (int r = 0; r < 3; ++r) {
        const std::int64_t t0 = now_ns();
        (void)inmem_plans_[v].run();
        reps.push_back(static_cast<double>(now_ns() - t0));
      }
      inmem_ns += median(reps) * static_cast<double>(traced_by_variant_[v]);
    }
    out["query.inmem_plan_ms"] = per(inmem_ns * 1e-6, traced);
    out["query.lsm_to_inmem"] = per(plan_ns_, inmem_ns);
    out["query.allocs_per_row"] = per(static_cast<double>(window.allocs),
                                      static_cast<double>(source_rows_));
    out["storage.ingest_s"] = median(ingest_s_);
    out["storage.recovery_s"] = median(recovery_s_);
    out["storage.wal_bytes"] =
        static_cast<double>(writer_stats_.bytes_written_wal);
    out["storage.write_amplification"] = writer_stats_.write_amplification();
    out["storage.flushes"] = static_cast<double>(writer_stats_.flushes);
    out["storage.compactions"] = static_cast<double>(writer_stats_.compactions);
    std::size_t runs = 0;
    for (std::size_t l = 0; l < store_->level_count(); ++l) {
      runs += store_->runs_in_level(l);
    }
    out["storage.runs"] = static_cast<double>(runs);
  }

 private:
  struct Variant {
    bool selective;
    std::int64_t lo;
    std::int64_t hi;
  };

  Plan build(PlanBuilder b, const Variant& v) const {
    if (v.selective) return b.filter_between("amount", v.lo, v.hi).limit(10).build();
    return b.join(orders_, "order_id", "order_id")
        .filter_between("amount", v.lo, v.hi)
        .group_by("customer", query::Aggregate::kSum, "amount", "revenue")
        .order_by("revenue", true)
        .limit(10)
        .build();
  }

  storage::LsmOptions options() const {
    storage::LsmOptions o;
    o.memtable_bytes = sizes_.memtable_bytes;
    return o;
  }

  void hash(const Table& t) {
    for (const auto& col : t.column_names()) {
      digest_.add(col.data(), col.size());
      if (t.column_type(col) == query::ColumnType::kInt) {
        const auto& v = t.ints(col);
        digest_.add(v.data(), v.size() * sizeof(std::int64_t));
      } else {
        for (const auto& s : t.strings(col)) digest_.add(s.data(), s.size());
      }
    }
  }

  /// An operator's busy_ns times its pushes (with the pushes they make
  /// downstream) and its own finish, but not the open() of any operator
  /// nor the finish of the operators after it, which runs after its timer
  /// stops. So query.source_ms, the plan time outside the first operator's
  /// busy time, holds the LSM scan and row decode, every open() (the hash
  /// join hashes the orders there) and the finish of every later operator
  /// (the blocking output of GroupAggregate and TopK). An operator's self
  /// time, its busy time minus the next operator's, is short by the next
  /// operator's finish, which source_ms and that operator's own self time
  /// both hold. Over a plan the three terms still add up to the plan time,
  /// except where a self time dips below zero and is clamped at 0:
  /// query.self_residual_ms (plan time minus source and self times, <= 0)
  /// states what the clamping adds.
  void fold_times(const ExecStats& s, std::int64_t plan_ns, std::size_t v) {
    ++traced_queries_;
    ++traced_by_variant_[v];
    plan_ns_ += static_cast<double>(plan_ns);
    const auto& ops = s.operators;
    if (ops.empty()) return;
    source_ns_ += static_cast<double>(plan_ns - ops.front().busy_ns);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::int64_t next = i + 1 < ops.size() ? ops[i + 1].busy_ns : 0;
      op_self_ns_[ops[i].op] +=
          static_cast<double>(std::max<std::int64_t>(ops[i].busy_ns - next, 0));
    }
  }

  Config cfg_;
  Sizes sizes_;
  Table orders_;
  Table lineitems_;
  std::vector<Variant> variants_;
  std::vector<std::size_t> sequence_;
  std::vector<Plan> inmem_plans_;
  std::vector<Table> references_;

  std::uint64_t episode_ = 0;
  std::size_t next_ = 0;
  std::unique_ptr<storage::MemDevice> device_;
  std::unique_ptr<storage::LsmStore> store_;  // reopened over device_
  std::vector<Plan> plans_;
  obs::TraceRecorder recorder_;  // the benchmark's own; stays disabled
  ExecStats stats_;
  storage::LsmStats writer_stats_;
  std::vector<double> ingest_s_;
  std::vector<double> recovery_s_;

  std::uint64_t ep0_queries_ = 0;
  Digest digest_;
  std::uint64_t source_rows_ = 0;
  std::map<std::string, std::uint64_t> rows_out_;
  std::uint64_t traced_queries_ = 0;
  std::map<std::size_t, std::uint64_t> traced_by_variant_;
  double plan_ns_ = 0.0;
  double source_ns_ = 0.0;
  std::map<std::string, double> op_self_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_durable_query(const Config& cfg) {
  return std::make_unique<DurableQuery>(cfg);
}

}  // namespace perfbench
