#pragma once
// Physical operators of the vectorized push-based query engine.
//
// Execution model: a Source fills ColumnBatches and the Plan driver pushes
// each batch through a chain of Operators (push() → do_push()). Streaming
// operators (Filter, HashJoin probe, Limit) forward work batch by batch;
// blocking operators (GroupAggregate, TopK — the one sort) buffer compact
// state and emit their output from finish(). finish() propagates down the
// chain, so every operator flushes before its consumer is finalized.
//
// Instrumentation: every operator keeps plain local OperatorStats (always
// on — a handful of adds per *batch*, not per row) and mirrors them into
// rb_obs registry counters (query.rows_in / query.rows_out / query.batches
// / query.build_rows, labeled by operator) strictly behind the
// obs::enabled() guard — one relaxed atomic load per batch when disabled,
// the same contract bench_obs_overhead enforces elsewhere in the stack.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/hash_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/exec/batch.hpp"
#include "query/table.hpp"

namespace rb::query::exec {

/// Pull side of the pipeline: fills batches until exhausted.
class Source {
 public:
  virtual ~Source() = default;
  virtual const char* name() const noexcept = 0;
  virtual const SchemaPtr& schema() const noexcept = 0;
  /// Fill `out` (cleared by the caller) with up to out.capacity() rows.
  /// Returns false — leaving `out` empty — when exhausted.
  virtual bool next(ColumnBatch& out) = 0;
  std::uint64_t rows_emitted = 0;
};

/// Batches over an in-memory Table (non-owning; the Plan keeps it alive).
class TableSource : public Source {
 public:
  explicit TableSource(const Table* table);
  const char* name() const noexcept override { return "scan"; }
  const SchemaPtr& schema() const noexcept override { return schema_; }
  bool next(ColumnBatch& out) override;

 private:
  const Table* table_;
  SchemaPtr schema_;
  std::vector<const std::vector<std::int64_t>*> int_cols_;
  std::vector<const std::vector<std::string>*> str_cols_;
  std::size_t pos_ = 0;
};

struct OperatorStats {
  std::uint64_t batches_in = 0;
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t build_rows = 0;  // hash-join build-side rows
};

class Operator {
 public:
  explicit Operator(const char* name) : name_{name} {}
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const char* name() const noexcept { return name_; }
  void set_output(Operator* out) noexcept { out_ = out; }

  /// Called once, source-to-sink order, before any push.
  virtual void open() {}

  void push(ColumnBatch& batch) {
    const std::uint64_t in = batch.active_count();
    ++stats_.batches_in;
    stats_.rows_in += in;
    if (obs::enabled()) publish_in(in);
    run_timed([this, &batch] { do_push(batch); });
  }

  void finish() {
    run_timed([this] { do_finish(); });
    if (out_ != nullptr) out_->finish();
  }

  /// True once this operator can absorb no further input (Limit quota hit).
  virtual bool saturated() const noexcept { return false; }

  const OperatorStats& stats() const noexcept { return stats_; }
  const SchemaPtr& output_schema() const noexcept { return out_schema_; }

  /// Per-operator busy time accounting; off unless the plan runs traced.
  void set_timed(bool on) noexcept { timed_ = on; }
  std::int64_t busy_ns() const noexcept { return busy_ns_; }

 protected:
  virtual void do_push(ColumnBatch& batch) = 0;
  virtual void do_finish() {}

  /// Forward `batch` downstream, counting rows out. Empty batches are
  /// swallowed (no information, no push).
  void emit(ColumnBatch& batch) {
    const std::uint64_t n = batch.active_count();
    stats_.rows_out += n;
    if (obs::enabled()) publish_out(n);
    if (out_ != nullptr && n > 0) out_->push(batch);
  }

  /// Forward rows order[0..n) of `rows` downstream, in that order, in
  /// batches of `batch_capacity` (the blocking operators' output path).
  void emit_rows(const ColumnBatch& rows,
                 const std::vector<std::uint32_t>& order,
                 std::size_t batch_capacity);

  void count_build_rows(std::uint64_t n);

  Operator* out_ = nullptr;
  SchemaPtr out_schema_;
  OperatorStats stats_;

 private:
  /// fn(), adding its wall time to busy_ns_ when the plan runs traced.
  template <typename Fn>
  void run_timed(Fn fn) {
    if (!timed_) {
      fn();
      return;
    }
    const std::int64_t t0 = obs::wall_now_ns();
    fn();
    busy_ns_ += obs::wall_now_ns() - t0;
  }

  void resolve_counters();
  void publish_in(std::uint64_t rows);
  void publish_out(std::uint64_t rows);

  const char* name_;
  bool timed_ = false;
  std::int64_t busy_ns_ = 0;
  obs::Counter* c_rows_in_ = nullptr;
  obs::Counter* c_rows_out_ = nullptr;
  obs::Counter* c_batches_ = nullptr;
  obs::Counter* c_build_ = nullptr;
};

/// Selection-vector filter on an int column; no data movement. Each batch
/// swaps the filter's selection buffer with the batch's (set_selection),
/// so the two buffers circulate and a warm filter allocates nothing.
class FilterInt : public Operator {
 public:
  FilterInt(const SchemaPtr& in, std::string column,
            std::function<bool(std::int64_t)> pred);
  /// Range form (lo <= v < hi). Dense batches run the dispatched SIMD
  /// selection kernel; batches that already carry a selection vector fall
  /// back to `pred`, which computes the same predicate.
  FilterInt(const SchemaPtr& in, std::string column, std::int64_t lo,
            std::int64_t hi, std::function<bool(std::int64_t)> pred);

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::size_t col_;
  std::function<bool(std::int64_t)> pred_;
  bool is_range_ = false;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::vector<std::uint32_t> sel_scratch_;
  obs::Counter* c_simd_rows_ = nullptr;
};

/// Streaming-probe inner equi-join on int keys. The right table is the
/// build side: open() hashes it once into an accel::HashTable64 whose value
/// is the key's first build row, and next_[r] is the key's next build row
/// after r, so a walk from the value visits a key's rows in row order. The
/// probe writes each match's left and right row into two fixed index lists
/// of batch_capacity entries; a full list, and the end of each input
/// batch, flushes them by gathering every output column through the lists.
/// Each probed left row emits its matches in canonical left-major order —
/// byte-identical to the reference interpreter.
class HashJoin : public Operator {
 public:
  HashJoin(const SchemaPtr& left, const Table* right, std::string left_key,
           std::string right_key, std::size_t batch_capacity);

  void open() override;

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  void flush_matches(const ColumnBatch& batch);

  const Table* right_;
  std::string right_key_;
  std::size_t left_key_col_;
  std::size_t left_width_;
  std::size_t batch_capacity_;

  accel::HashTable64 table_{16};
  std::vector<std::uint32_t> next_;

  std::vector<const std::vector<std::int64_t>*> right_int_cols_;
  std::vector<const std::vector<std::string>*> right_str_cols_;

  // Pending matches: entries [0, matches_) of the two index lists.
  std::vector<std::uint32_t> match_left_;
  std::vector<std::uint32_t> match_right_;
  std::size_t matches_ = 0;
  std::unique_ptr<ColumnBatch> out_batch_;

  // Scratch for the batched (vertical, SIMD-gather) probe: active row
  // indices, their keys, and find_batch results for one input batch.
  std::vector<std::uint32_t> probe_rows_;
  std::vector<std::uint64_t> probe_keys_;
  std::vector<std::uint64_t> probe_vals_;
  std::vector<std::uint8_t> probe_found_;
  obs::Counter* c_simd_rows_ = nullptr;
};

/// Blocking hash aggregation: SUM / COUNT / MIN / MAX of an int column per
/// int or string key. Group discovery uses accel::HashTable64 (key code →
/// dense accumulator slot); finish() emits groups sorted by unsigned key
/// code, the GroupByStage order the reference interpreter also produces.
class GroupAggregate : public Operator {
 public:
  GroupAggregate(const SchemaPtr& in, std::string key, Aggregate agg,
                 std::string value, std::string result,
                 std::size_t batch_capacity);

 protected:
  void do_push(ColumnBatch& batch) override;
  void do_finish() override;

 private:
  struct Acc {
    std::uint64_t sum = 0;  // wraparound-safe sum
    std::int64_t extreme = 0;
    std::uint64_t n = 0;
  };
  /// The accumulator slot of `code`, opening a new group on first sight.
  std::uint32_t slot_for(std::uint64_t code);
  /// Fold the staged probe rows' `values` into their groups under `A`.
  template <Aggregate A>
  void accumulate(const std::vector<std::int64_t>& values, std::size_t n);

  Aggregate agg_;
  std::size_t key_col_;
  std::size_t value_col_;
  bool string_key_;
  std::size_t batch_capacity_;

  accel::HashTable64 table_{16};
  std::vector<std::uint64_t> codes_;
  std::vector<Acc> accs_;
  std::unordered_map<std::string, std::uint64_t> dict_codes_;
  std::vector<std::string> dictionary_;

  // Scratch for the batched slot lookup: active row indices, their key
  // codes, and find_batch results for one input batch.
  std::vector<std::uint32_t> probe_rows_;
  std::vector<std::uint64_t> probe_keys_;
  std::vector<std::uint64_t> probe_vals_;
  std::vector<std::uint8_t> probe_found_;
  obs::Counter* c_simd_rows_ = nullptr;

  std::unique_ptr<ColumnBatch> out_batch_;
};

/// The engine's one sort: the first k rows by an int column, O(n log k)
/// time and O(min(k, n)) space, with tie-breaks on arrival order so the
/// result is byte-identical to stable sort + limit. An order_by without a
/// limit runs with k = SIZE_MAX and keeps every row.
class TopK : public Operator {
 public:
  TopK(const SchemaPtr& in, std::string column, bool descending,
       std::size_t k, std::size_t batch_capacity);

 protected:
  void do_push(ColumnBatch& batch) override;
  void do_finish() override;

 private:
  struct Entry {
    std::int64_t v = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  /// True when `a` must sort before `b` in the final output.
  bool better(const Entry& a, const Entry& b) const noexcept {
    if (a.v != b.v) return descending_ ? a.v > b.v : a.v < b.v;
    return a.seq < b.seq;
  }
  /// better() as a comparator. The std::heap primitives build a max-heap
  /// under it, so the heap's top is the kept entry that sorts last.
  auto sorts_first() const noexcept {
    return [this](const Entry& a, const Entry& b) { return better(a, b); };
  }
  /// Keep row `r` of `batch` as `e`, evicting the worst kept entry once
  /// all k slots are full.
  void keep(const ColumnBatch& batch, std::uint32_t r, Entry e);

  std::size_t sort_col_;
  bool descending_;
  std::size_t k_;
  std::size_t batch_capacity_;
  std::uint64_t seq_ = 0;
  std::vector<Entry> heap_;  // a heap (top = worst kept) once k are kept
  ColumnBatch rows_;         // the kept rows; Entry::slot indexes them
  std::vector<std::uint32_t> sift_scratch_;  // SIMD pre-filter survivors
  obs::Counter* c_simd_rows_ = nullptr;
};

/// Pass through the first n active rows, then saturate (the plan driver
/// stops a fully-streaming scan early once the quota is filled).
class Limit : public Operator {
 public:
  Limit(const SchemaPtr& in, std::size_t n);
  bool saturated() const noexcept override { return remaining_ == 0; }

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::size_t remaining_;
};

/// Terminal operator: materializes every active row into a Table.
class CollectSink : public Operator {
 public:
  explicit CollectSink(const SchemaPtr& in);

  /// The materialized result (valid after finish()).
  Table take() { return rows_.take_table(); }

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  ColumnBatch rows_;
};

}  // namespace rb::query::exec
