#pragma once
// Columnar table + the relational stages that query it.
//
// Sec IV.C.1 of the paper traces the shift from query languages (SQL on
// clean relational data) to distributed frameworks. This module closes the
// loop the way modern engines do: a small relational algebra run on a
// vectorized engine (query/exec) whose operators use the library's
// accelerated building blocks (SIMD selection scan, hash probe, top-k
// sift) — the "accelerated building blocks inside a framework" picture of
// Rec 10.
//
// Tables are columnar: named, typed (int64 or string) columns of equal
// length. A query is a list of Stage descriptors (the variant below),
// built with exec::PlanBuilder:
//
//   Table result = exec::PlanBuilder(orders)
//       .join(lineitems, "order_id", "order_id")
//       .filter_int("amount", [](std::int64_t a) { return a > 100; })
//       .group_by("customer", Aggregate::kSum, "amount", "revenue")
//       .order_by("revenue", /*descending=*/true)
//       .limit(10)
//       .build()
//       .run();
//
// interpret() below is the row-at-a-time reference interpreter: every
// stage fully materializes its output table, and join and group-by are
// plain standard-library code (std::unordered_map, std::map) that shares
// nothing with the engine, so it stays an independent oracle. A plan runs
// it through Plan::interpret(); both paths produce byte-identical results.

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace rb::query {

enum class ColumnType : std::uint8_t { kInt, kString };

/// Columnar table. Columns are appended whole; all columns must share the
/// table's row count (enforced on add).
class Table {
 public:
  Table() = default;

  /// Add columns. Throws std::invalid_argument on duplicate names or row
  /// count mismatch with existing columns.
  void add_int_column(std::string name, std::vector<std::int64_t> values);
  void add_string_column(std::string name, std::vector<std::string> values);

  std::size_t row_count() const noexcept { return rows_; }
  std::size_t column_count() const noexcept { return columns_.size(); }

  bool has_column(const std::string& name) const noexcept;
  ColumnType column_type(const std::string& name) const;
  std::vector<std::string> column_names() const;

  /// Typed access; throws std::invalid_argument on missing column or type
  /// mismatch.
  const std::vector<std::int64_t>& ints(const std::string& name) const;
  const std::vector<std::string>& strings(const std::string& name) const;

  /// Build a new table containing `row_indices` of this one, in order.
  Table gather(const std::vector<std::uint32_t>& row_indices) const;

  /// Render the first `max_rows` rows as an aligned ASCII table.
  std::string to_string(std::size_t max_rows = 20) const;

  /// Byte-identical: same columns (names, types, order), same values.
  bool operator==(const Table&) const = default;

 private:
  struct Column {
    std::string name;
    ColumnType type = ColumnType::kInt;
    std::vector<std::int64_t> ints;
    std::vector<std::string> strings;
    bool operator==(const Column&) const = default;
  };
  const Column& find(const std::string& name) const;
  void check_new_column(const std::string& name, std::size_t size) const;

  std::vector<Column> columns_;
  std::size_t rows_ = 0;
};

enum class Aggregate : std::uint8_t { kSum, kCount, kMin, kMax };

/// --- Stage descriptors -------------------------------------------------
//
// exec::PlanBuilder's verbs record these in chain order. Both execution
// paths (the reference interpreter below and the vectorized engine in
// query/exec) consume the same descriptors, which is what keeps them
// semantically aligned.

struct FilterIntStage {
  std::string column;
  std::function<bool(std::int64_t)> pred;
  // Range metadata set by PlanBuilder::filter_between: when is_range is
  // true, pred is exactly `lo <= v && v < hi`, so the vectorized engine may
  // run the dispatched SIMD range kernel instead of calling the opaque
  // std::function per row. Both paths compute the same predicate; the
  // interpreter always uses pred.
  bool is_range = false;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
/// Inner equi-join on int keys. Output order is canonical left-major: left
/// rows in order, each followed by its matches in right-row order. Right
/// columns keep their names; collisions get suffix "_r".
struct JoinStage {
  Table right;
  std::string left_key;
  std::string right_key;
};
/// Groups come out in unsigned key-code order: an int key's bits, or a
/// string key's first-appearance index. SUM wraps around in uint64.
struct GroupByStage {
  std::string key;
  Aggregate agg = Aggregate::kSum;
  std::string value;
  std::string result;
};
struct OrderByStage {
  std::string column;
  bool descending = false;
};
struct LimitStage {
  std::size_t n = 0;
};

using Stage = std::variant<FilterIntStage, JoinStage, GroupByStage,
                           OrderByStage, LimitStage>;

/// The row-at-a-time reference interpreter: run `stages` in order over
/// `source`, fully materializing each stage's output table. Columns are
/// validated as each stage runs; errors throw std::invalid_argument.
Table interpret(Table source, const std::vector<Stage>& stages);

}  // namespace rb::query
