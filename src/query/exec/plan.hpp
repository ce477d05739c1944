#pragma once
// Physical plans for the vectorized push-based engine.
//
// PlanBuilder is the one way to build a query: a source (an in-memory
// Table, or a table stored in an LSM store) plus the Stage descriptors its
// verbs record, e.g.
//   PlanBuilder(store, "lineitem").filter_int(...).build()
// Plan::run() compiles the stages into the operator chain from
// operators.hpp — every order_by becomes the one sort operator, TopK, which
// absorbs a directly following limit as its k; a filter that directly
// follows a join (or another such filter) and names a column of the join's
// left input runs before the join; and a Limit with a fully-streaming
// prefix stops the scan early once it saturates — then
// drives batches from the source through the chain into a CollectSink.
// Plan::interpret() runs the same stages through the reference interpreter
// (query::interpret), and every plan's run() is byte-identical to its
// interpret() — the differential tests enforce this.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "query/exec/batch.hpp"
#include "query/table.hpp"

namespace rb::storage {
class LsmStore;
}

namespace rb::query::exec {

struct ExecOptions {
  /// Rows per ColumnBatch.
  std::size_t batch_size = 1024;
  /// When set (and enabled), run() emits one "query.op" complete span per
  /// operator with rows/batches/build args and per-operator busy time.
  obs::TraceRecorder* trace = nullptr;
};

/// Per-run execution telemetry (filled when run() is given a stats out).
struct ExecStats {
  struct OpStat {
    std::string op;
    std::uint64_t rows_in = 0;
    std::uint64_t rows_out = 0;
    std::uint64_t batches_in = 0;
    std::uint64_t build_rows = 0;
    std::int64_t busy_ns = 0;
  };
  std::string source;
  std::uint64_t source_rows = 0;
  std::vector<OpStat> operators;  // chain order, sink last
};

class Plan {
 public:
  /// Execute on the vectorized engine and materialize the result; with
  /// `stats`, also record the source and operator chain the run took.
  /// Column/type errors throw std::invalid_argument (the same contract as
  /// interpret()).
  Table run(const ExecOptions& opts = {}, ExecStats* stats = nullptr) const;

  /// Run the same stages through the reference interpreter
  /// (query::interpret); an LSM-backed plan interprets
  /// load_table(store, name).
  Table interpret() const;

 private:
  friend class PlanBuilder;

  Table source_;
  const storage::LsmStore* store_ = nullptr;  // non-null = LSM-backed scan
  std::string lsm_table_;
  std::vector<Stage> stages_;
};

/// Fluent plan construction, one verb per Stage descriptor.
class PlanBuilder {
 public:
  /// Scan an in-memory table (the builder owns a copy).
  explicit PlanBuilder(Table source);
  /// Scan table `lsm_table` out of `store` (see exec/lsm_table.hpp;
  /// resolution happens at run() time, so the store may still be loading).
  PlanBuilder(const storage::LsmStore& store, std::string lsm_table);

  PlanBuilder& filter_int(std::string column,
                          std::function<bool(std::int64_t)> pred);
  /// Range filter (lo <= v < hi) carrying the bounds so FilterInt can run
  /// the dispatched SIMD selection kernel instead of the opaque predicate.
  PlanBuilder& filter_between(std::string column, std::int64_t lo,
                              std::int64_t hi);
  PlanBuilder& join(Table right, std::string left_key,
                    std::string right_key);
  PlanBuilder& group_by(std::string key, Aggregate agg, std::string value,
                        std::string result_name);
  PlanBuilder& order_by(std::string column, bool descending = false);
  PlanBuilder& limit(std::size_t n);

  /// Moves the accumulated plan out; the builder is spent afterwards.
  Plan build();

 private:
  Plan plan_;
};

}  // namespace rb::query::exec
