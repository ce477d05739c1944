#include "query/exec/lsm_table.hpp"

#include <stdexcept>

#include "storage/wal.hpp"

namespace rb::query::exec {

namespace {

constexpr std::size_t kRowIdDigits = 10;

std::string table_prefix(const std::string& name) { return "t!" + name; }

std::string schema_key(const std::string& name) {
  return table_prefix(name) + "!s";
}

std::string row_key(const std::string& name, std::uint64_t row) {
  char digits[kRowIdDigits];
  for (std::size_t i = kRowIdDigits; i-- > 0; row /= 10) {
    digits[i] = static_cast<char>('0' + row % 10);
  }
  return table_prefix(name) + "!r!" + std::string{digits, kRowIdDigits};
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
    const std::uint32_t len = in.u32();
    schema->add(std::string{in.bytes(len)},
                tag == 'i' ? ColumnType::kInt : ColumnType::kString);
  }
  if (!in.exhausted())
    throw std::runtime_error{"lsm_table: trailing bytes in schema record"};
  return schema;
}

void decode_row(const std::string& value, const BatchSchema& schema,
                ColumnBatch& out) {
  storage::ByteReader in{value};
  for (std::size_t c = 0; c < schema.column_count(); ++c) {
    if (schema.at(c).type == ColumnType::kInt) {
      out.ints(c).push_back(static_cast<std::int64_t>(in.u64()));
    } else {
      const std::uint32_t len = in.u32();
      out.strings(c).emplace_back(in.bytes(len));
    }
  }
  if (!in.exhausted())
    throw std::runtime_error{"lsm_table: trailing bytes in row record"};
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
  // One group commit covers the whole table: on a durable store nothing
  // above is acked until the WAL is fsynced, and a crash mid-store leaves a
  // prefix of rows that recovery replays (never a row with a hole in it).
  store.sync();
}

LsmSource::LsmSource(const storage::LsmStore* store, std::string name) {
  validate_name(name);
  const auto schema_record = store->get(schema_key(name));
  if (!schema_record.has_value()) {
    throw std::invalid_argument{"lsm_table: no table named " + name};
  }
  schema_ = decode_schema(*schema_record);
  const std::string lo = table_prefix(name) + "!r!";
  const std::string hi = table_prefix(name) + "!r" + char('!' + 1);
  rows_ = store->scan(lo, hi);
}

bool LsmSource::next(ColumnBatch& out) {
  if (pos_ >= rows_.size()) return false;
  const std::size_t n = std::min(out.capacity(), rows_.size() - pos_);
  for (std::size_t i = 0; i < n; ++i) {
    decode_row(rows_[pos_ + i].second, *schema_, out);
  }
  out.set_row_count(n);
  pos_ += n;
  rows_emitted += n;
  return true;
}

Table load_table(const storage::LsmStore& store, const std::string& name) {
  LsmSource source{&store, name};
  CollectSink sink{source.schema()};
  ColumnBatch batch{source.schema(), 4096};
  while (source.next(batch)) {
    sink.push(batch);
    batch.clear();
  }
  sink.finish();
  return sink.take();
}

}  // namespace rb::query::exec
