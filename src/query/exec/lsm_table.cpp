#include "query/exec/lsm_table.hpp"

#include <stdexcept>
#include <string_view>
#include <vector>

#include "storage/wal.hpp"

namespace rb::query::exec {

namespace {

constexpr std::size_t kRowIdDigits = 10;

std::string table_prefix(const std::string& name) { return "t!" + name; }

std::string schema_key(const std::string& name) {
  return table_prefix(name) + "!s";
}

/// The row keys of `name` sort in [rows_begin, rows_end): '"' follows the
/// '!' separator.
std::string rows_begin(const std::string& name) {
  return table_prefix(name) + "!r!";
}
std::string rows_end(const std::string& name) {
  return table_prefix(name) + "!r\"";
}

std::string row_key(const std::string& name, std::uint64_t row) {
  char digits[kRowIdDigits];
  for (std::size_t i = kRowIdDigits; i-- > 0; row /= 10) {
    digits[i] = static_cast<char>('0' + row % 10);
  }
  return rows_begin(name) + std::string{digits, kRowIdDigits};
}

void validate_name(const std::string& name) {
  if (name.empty())
    throw std::invalid_argument{"lsm_table: empty table name"};
  if (name.find('!') != std::string::npos)
    throw std::invalid_argument{"lsm_table: table name contains '!'"};
}

SchemaPtr decode_schema(const std::string& record) {
  storage::ByteReader in{record};
  const std::uint32_t n = in.u32();
  auto schema = std::make_shared<BatchSchema>();
  for (std::uint32_t i = 0; i < n; ++i) {
    const char tag = static_cast<char>(in.u8());
    if (tag != 'i' && tag != 's')
      throw std::runtime_error{"lsm_table: unknown column tag in schema"};
    const std::uint32_t len = in.u32();
    schema->add(std::string{in.bytes(len)},
                tag == 'i' ? ColumnType::kInt : ColumnType::kString);
  }
  if (!in.exhausted())
    throw std::runtime_error{"lsm_table: trailing bytes in schema record"};
  return schema;
}

SchemaPtr load_schema(const storage::LsmStore& store,
                      const std::string& name) {
  validate_name(name);
  const auto record = store.get(schema_key(name));
  if (!record.has_value()) {
    throw std::invalid_argument{"lsm_table: no table named " + name};
  }
  return decode_schema(*record);
}

}  // namespace

void store_table(storage::LsmStore& store, const std::string& name,
                 const Table& table) {
  validate_name(name);
  constexpr std::uint64_t kMaxRows = 9'999'999'999ULL;
  if (table.row_count() > kMaxRows)
    throw std::invalid_argument{"lsm_table: table too large for row ids"};

  const auto names = table.column_names();
  std::string schema_record;
  storage::append_u32(schema_record, static_cast<std::uint32_t>(names.size()));
  for (const auto& col : names) {
    schema_record.push_back(
        table.column_type(col) == ColumnType::kInt ? 'i' : 's');
    storage::append_u32(schema_record, static_cast<std::uint32_t>(col.size()));
    schema_record += col;
  }
  store.put(schema_key(name), std::move(schema_record));

  // Column accessors resolved once, outside the row loop.
  std::vector<const std::vector<std::int64_t>*> int_cols;
  std::vector<const std::vector<std::string>*> str_cols;
  for (const auto& col : names) {
    if (table.column_type(col) == ColumnType::kInt) {
      int_cols.push_back(&table.ints(col));
      str_cols.push_back(nullptr);
    } else {
      int_cols.push_back(nullptr);
      str_cols.push_back(&table.strings(col));
    }
  }
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    std::string value;
    for (std::size_t c = 0; c < names.size(); ++c) {
      if (int_cols[c] != nullptr) {
        storage::append_u64(value,
                           static_cast<std::uint64_t>((*int_cols[c])[r]));
      } else {
        const std::string& s = (*str_cols[c])[r];
        storage::append_u32(value, static_cast<std::uint32_t>(s.size()));
        value += s;
      }
    }
    store.put(row_key(name, r), std::move(value));
  }
  // Rows a previous table of this name had beyond the new row count. The
  // keys are copied out first: erasing invalidates the cursor.
  std::vector<std::string> stale;
  for (auto c = store.cursor(row_key(name, table.row_count()), rows_end(name));
       c.valid(); c.next()) {
    stale.emplace_back(c.key());
  }
  for (std::string& key : stale) store.erase(std::move(key));
  // One group commit covers the whole table: on a durable store nothing
  // above is acked until the WAL is fsynced, and a crash mid-store leaves a
  // prefix of rows that recovery replays (never a row with a hole in it).
  store.sync();
}

LsmSource::LsmSource(const storage::LsmStore* store, std::string name)
    : schema_{load_schema(*store, name)},
      cursor_{store->cursor(rows_begin(name), rows_end(name))},
      columns_(schema_->column_count()) {}

bool LsmSource::next(ColumnBatch& out) {
  // Column vectors resolved once per batch, outside the row loop.
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const bool is_int = schema_->at(c).type == ColumnType::kInt;
    columns_[c] = {is_int ? &out.ints(c) : nullptr,
                   is_int ? nullptr : &out.strings(c)};
  }
  std::size_t n = 0;
  for (; n < out.capacity() && cursor_.valid(); ++n, cursor_.next()) {
    storage::ByteReader in{cursor_.value()};
    for (const Column& col : columns_) {
      if (col.ints != nullptr) {
        col.ints->push_back(static_cast<std::int64_t>(in.u64()));
      } else {
        const std::uint32_t len = in.u32();
        col.strings->emplace_back(in.bytes(len));
      }
    }
    if (!in.exhausted())
      throw std::runtime_error{"lsm_table: trailing bytes in row record"};
  }
  if (n == 0) return false;
  out.set_row_count(n);
  rows_emitted += n;
  return true;
}

Table load_table(const storage::LsmStore& store, const std::string& name) {
  constexpr std::size_t kBatchRows = 4096;
  LsmSource source{&store, name};
  ColumnBatch batch{source.schema(), kBatchRows};
  ColumnBatch rows{source.schema(), kBatchRows};  // grows past it
  while (source.next(batch)) {
    rows.append_active(batch);
    batch.clear();
  }
  return rows.take_table();
}

}  // namespace rb::query::exec
