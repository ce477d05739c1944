#pragma once
// Column batches — the unit of data flow in the vectorized query engine.
//
// A ColumnBatch is a slice of a relation: one vector per column (int64 or
// string, mirroring query::Table's types) plus an optional selection
// vector. Filters never copy data; they narrow the selection vector and
// pass the same physical batch downstream, so a chain of predicates costs
// one pass over the selection indices instead of one materialized table
// per stage — the core trick of vectorized engines (MonetDB/X100 lineage,
// the CWI expertise in the paper's Table 1). The same type is also the
// engine's row buffer: the blocking operators and the sink append the rows
// they keep to a ColumnBatch of their own.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/table.hpp"

namespace rb::query::exec {

struct BatchColumn {
  std::string name;
  ColumnType type = ColumnType::kInt;
};

/// Immutable description of the columns flowing along one pipeline edge.
/// Shared by every batch on that edge.
class BatchSchema {
 public:
  /// Throws std::invalid_argument on empty or duplicate names.
  void add(std::string name, ColumnType type);

  std::size_t column_count() const noexcept { return cols_.size(); }
  const BatchColumn& at(std::size_t i) const { return cols_.at(i); }
  const std::vector<BatchColumn>& columns() const noexcept { return cols_; }

  bool has(const std::string& name) const noexcept;
  /// Index of `name`; throws std::invalid_argument when absent.
  std::size_t index_of(const std::string& name) const;
  /// index_of + type check; throws std::invalid_argument on mismatch.
  std::size_t index_of(const std::string& name, ColumnType type) const;

  static BatchSchema of(const Table& table);

 private:
  std::vector<BatchColumn> cols_;
};

using SchemaPtr = std::shared_ptr<const BatchSchema>;

/// One batch of rows. Physical rows live densely in the column vectors;
/// when a selection is set, only the listed row indices (strictly
/// ascending) are logically present. The capacity bounds how many rows a
/// producer puts in one batch it pushes (and is reserved up front); a row
/// buffer filled through the append members may grow past it.
class ColumnBatch {
 public:
  ColumnBatch(SchemaPtr schema, std::size_t capacity);

  const BatchSchema& schema() const noexcept { return *schema_; }
  const SchemaPtr& schema_ptr() const noexcept { return schema_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Physical rows currently stored.
  std::size_t row_count() const noexcept { return rows_; }
  /// Rows logically present (selection-aware).
  std::size_t active_count() const noexcept {
    return has_selection_ ? selection_.size() : rows_;
  }

  std::vector<std::int64_t>& ints(std::size_t col);
  const std::vector<std::int64_t>& ints(std::size_t col) const;
  std::vector<std::string>& strings(std::size_t col);
  const std::vector<std::string>& strings(std::size_t col) const;

  /// Producers append values column-wise, then commit the row count (every
  /// column must hold exactly `n` values; checked).
  void set_row_count(std::size_t n);

  bool has_selection() const noexcept { return has_selection_; }
  const std::vector<std::uint32_t>& selection() const noexcept {
    return selection_;
  }
  /// Swap `sel` in as the selection (indices must be < row_count(),
  /// ascending; not re-checked on the hot path). `sel` gets the batch's
  /// previous selection buffer back, contents unspecified, so a caller that
  /// keeps it reuses the two buffers instead of allocating one per batch.
  void set_selection(std::vector<std::uint32_t>& sel);
  void clear_selection() noexcept;

  /// Drop all rows and the selection; keeps column capacity reserved.
  void clear();

  // Row-buffer members: `src` must have this batch's column types in the
  // same order, and this batch must carry no selection.

  /// Append `src`'s active rows, in order.
  void append_active(const ColumnBatch& src);
  /// Append rows rows[0..n) of `src`, in that order.
  void append_rows(const ColumnBatch& src, const std::uint32_t* rows,
                   std::size_t n);
  /// Overwrite physical row `row` with row `src_row` of `src`.
  void set_row(std::size_t row, const ColumnBatch& src, std::uint32_t src_row);
  /// Move the physical rows out as a Table; the batch is left empty.
  Table take_table();

  /// Visit each active row index in order.
  template <typename Fn>
  void for_each_active(Fn fn) const {
    if (has_selection_) {
      for (const std::uint32_t r : selection_) fn(r);
    } else {
      for (std::uint32_t r = 0; r < rows_; ++r) fn(r);
    }
  }

 private:
  struct ColData {
    std::vector<std::int64_t> ints;
    std::vector<std::string> strings;
  };

  /// fn(dst, src) for each column's value vectors of the column's type.
  template <typename Fn>
  void zip_columns(const ColumnBatch& src, Fn fn) {
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      if (schema_->at(c).type == ColumnType::kInt) {
        fn(cols_[c].ints, src.cols_[c].ints);
      } else {
        fn(cols_[c].strings, src.cols_[c].strings);
      }
    }
  }

  SchemaPtr schema_;
  std::size_t capacity_ = 0;
  std::size_t rows_ = 0;
  std::vector<ColData> cols_;
  bool has_selection_ = false;
  std::vector<std::uint32_t> selection_;
};

}  // namespace rb::query::exec
