#include "query/exec/batch.hpp"

#include <stdexcept>

namespace rb::query::exec {

void BatchSchema::add(std::string name, ColumnType type) {
  if (name.empty())
    throw std::invalid_argument{"BatchSchema: empty column name"};
  if (has(name))
    throw std::invalid_argument{"BatchSchema: duplicate column " + name};
  cols_.push_back(BatchColumn{std::move(name), type});
}

bool BatchSchema::has(const std::string& name) const noexcept {
  for (const auto& c : cols_) {
    if (c.name == name) return true;
  }
  return false;
}

std::size_t BatchSchema::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name == name) return i;
  }
  throw std::invalid_argument{"BatchSchema: no column named " + name};
}

std::size_t BatchSchema::index_of(const std::string& name,
                                  ColumnType type) const {
  const std::size_t i = index_of(name);
  if (cols_[i].type != type) {
    throw std::invalid_argument{
        "BatchSchema: column " + name +
        (type == ColumnType::kInt ? " is not int" : " is not string")};
  }
  return i;
}

BatchSchema BatchSchema::of(const Table& table) {
  BatchSchema schema;
  for (const auto& name : table.column_names()) {
    schema.add(name, table.column_type(name));
  }
  return schema;
}

ColumnBatch::ColumnBatch(SchemaPtr schema, std::size_t capacity)
    : schema_{std::move(schema)}, capacity_{capacity} {
  if (schema_ == nullptr)
    throw std::invalid_argument{"ColumnBatch: null schema"};
  if (capacity_ == 0)
    throw std::invalid_argument{"ColumnBatch: zero capacity"};
  cols_.resize(schema_->column_count());
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (schema_->at(i).type == ColumnType::kInt) {
      cols_[i].ints.reserve(capacity_);
    } else {
      cols_[i].strings.reserve(capacity_);
    }
  }
}

std::vector<std::int64_t>& ColumnBatch::ints(std::size_t col) {
  if (schema_->at(col).type != ColumnType::kInt)
    throw std::invalid_argument{"ColumnBatch: column " +
                                schema_->at(col).name + " is not int"};
  return cols_[col].ints;
}

const std::vector<std::int64_t>& ColumnBatch::ints(std::size_t col) const {
  return const_cast<ColumnBatch*>(this)->ints(col);
}

std::vector<std::string>& ColumnBatch::strings(std::size_t col) {
  if (schema_->at(col).type != ColumnType::kString)
    throw std::invalid_argument{"ColumnBatch: column " +
                                schema_->at(col).name + " is not string"};
  return cols_[col].strings;
}

const std::vector<std::string>& ColumnBatch::strings(std::size_t col) const {
  return const_cast<ColumnBatch*>(this)->strings(col);
}

void ColumnBatch::set_row_count(std::size_t n) {
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    const std::size_t have = schema_->at(i).type == ColumnType::kInt
                                 ? cols_[i].ints.size()
                                 : cols_[i].strings.size();
    if (have != n) {
      throw std::invalid_argument{"ColumnBatch: column " +
                                  schema_->at(i).name +
                                  " row count mismatch on commit"};
    }
  }
  rows_ = n;
}

void ColumnBatch::set_selection(std::vector<std::uint32_t>& sel) {
  selection_.swap(sel);
  has_selection_ = true;
}

void ColumnBatch::clear_selection() noexcept {
  has_selection_ = false;
  selection_.clear();
}

void ColumnBatch::clear() {
  for (auto& c : cols_) {
    c.ints.clear();
    c.strings.clear();
  }
  rows_ = 0;
  clear_selection();
}

void ColumnBatch::append_active(const ColumnBatch& src) {
  if (src.has_selection_) {
    append_rows(src, src.selection_.data(), src.selection_.size());
    return;
  }
  zip_columns(src, [&src](auto& dst, const auto& from) {
    dst.insert(dst.end(), from.begin(),
               from.begin() + static_cast<std::ptrdiff_t>(src.rows_));
  });
  rows_ += src.rows_;
}

void ColumnBatch::append_rows(const ColumnBatch& src,
                              const std::uint32_t* rows, std::size_t n) {
  zip_columns(src, [rows, n](auto& dst, const auto& from) {
    for (std::size_t i = 0; i < n; ++i) dst.push_back(from[rows[i]]);
  });
  rows_ += n;
}

void ColumnBatch::set_row(std::size_t row, const ColumnBatch& src,
                          std::uint32_t src_row) {
  zip_columns(src, [row, src_row](auto& dst, const auto& from) {
    dst[row] = from[src_row];
  });
}

Table ColumnBatch::take_table() {
  Table out;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const BatchColumn& col = schema_->at(c);
    if (col.type == ColumnType::kInt) {
      out.add_int_column(col.name, std::move(cols_[c].ints));
    } else {
      out.add_string_column(col.name, std::move(cols_[c].strings));
    }
  }
  clear();
  return out;
}

}  // namespace rb::query::exec
