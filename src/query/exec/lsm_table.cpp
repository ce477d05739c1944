#include "query/exec/lsm_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "storage/wal.hpp"

namespace rb::query::exec {

namespace {

std::string table_prefix(const std::string& name) { return "t!" + name; }

std::string schema_key(const std::string& name) {
  return table_prefix(name) + "!s";
}

/// The group keys of `name` sort in [group_key(name, 0), groups_end(name)):
/// '"' follows the '!' separator. Ten digits hold any u32 group number.
std::string group_key(const std::string& name, std::uint32_t group) {
  std::string key = table_prefix(name) + "!g!0000000000";
  for (std::size_t i = key.size(); group != 0; group /= 10) {
    key[--i] = static_cast<char>('0' + group % 10);
  }
  return key;
}
std::string groups_end(const std::string& name) {
  return table_prefix(name) + "!g\"";
}

/// The int64 stored little-endian at `p`.
std::int64_t load_le64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return static_cast<std::int64_t>(v);
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

  // Column accessors resolved once, outside the group loop.
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
  const std::size_t rows = table.row_count();
  std::uint32_t groups = 0;
  for (std::size_t begin = 0; begin < rows; begin += kGroupRows, ++groups) {
    const std::size_t end = std::min(rows, begin + kGroupRows);
    std::string value;
    value.reserve(4 + (end - begin) * 8 * names.size());
    storage::append_u32(value, static_cast<std::uint32_t>(end - begin));
    for (std::size_t c = 0; c < names.size(); ++c) {
      if (int_cols[c] != nullptr) {
        for (std::size_t r = begin; r < end; ++r) {
          storage::append_u64(value,
                             static_cast<std::uint64_t>((*int_cols[c])[r]));
        }
        continue;
      }
      const std::vector<std::string>& col = *str_cols[c];
      std::size_t section = 0;
      for (std::size_t r = begin; r < end; ++r) section += 4 + col[r].size();
      if (section > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument{"lsm_table: string section over 4 GiB"};
      storage::append_u32(value, static_cast<std::uint32_t>(section));
      for (std::size_t r = begin; r < end; ++r) {
        storage::append_u32(value, static_cast<std::uint32_t>(col[r].size()));
        value += col[r];
      }
    }
    store.put(group_key(name, groups), std::move(value));
  }
  // Groups a previous table of this name had beyond the new group count.
  // The keys are copied out first: erasing invalidates the cursor.
  std::vector<std::string> stale;
  for (auto c = store.cursor(group_key(name, groups), groups_end(name));
       c.valid(); c.next()) {
    stale.emplace_back(c.key());
  }
  for (std::string& key : stale) store.erase(std::move(key));
  // One group commit covers the whole table: on a durable store nothing
  // above is acked until the WAL is fsynced, and a crash mid-store leaves a
  // prefix of whole groups that recovery replays (each group is one WAL
  // record, so never a group with a hole in it).
  store.sync();
}

LsmSource::LsmSource(const storage::LsmStore* store, std::string name)
    : schema_{load_schema(*store, name)},
      cursor_{store->cursor(group_key(name, 0), groups_end(name))},
      sections_(schema_->column_count()) {}

void LsmSource::open_group(std::string_view group) {
  storage::ByteReader in{group};
  const std::uint32_t rows = in.u32();
  if (rows == 0) throw std::runtime_error{"lsm_table: empty row group"};
  for (std::size_t c = 0; c < sections_.size(); ++c) {
    const std::size_t bytes = schema_->at(c).type == ColumnType::kInt
                                  ? std::size_t{8} * rows
                                  : in.u32();
    sections_[c] = in.bytes(bytes);
  }
  if (!in.exhausted())
    throw std::runtime_error{"lsm_table: trailing bytes in row group"};
  group_rows_left_ = rows;
}

bool LsmSource::next(ColumnBatch& out) {
  std::size_t n = 0;
  while (n < out.capacity()) {
    if (group_rows_left_ == 0) {
      if (!cursor_.valid()) break;
      // The value view outlives the step: it points into the store.
      open_group(cursor_.value());
      cursor_.next();
    }
    const std::size_t take = std::min(out.capacity() - n, group_rows_left_);
    for (std::size_t c = 0; c < sections_.size(); ++c) {
      std::string_view& section = sections_[c];
      if (schema_->at(c).type == ColumnType::kInt) {
        std::vector<std::int64_t>& dst = out.ints(c);
        const std::size_t base = dst.size();
        dst.resize(base + take);
        for (std::size_t i = 0; i < take; ++i) {
          dst[base + i] = load_le64(section.data() + 8 * i);
        }
        section.remove_prefix(8 * take);
      } else {
        std::vector<std::string>& dst = out.strings(c);
        storage::ByteReader in{section};
        for (std::size_t i = 0; i < take; ++i) {
          const std::uint32_t len = in.u32();
          dst.emplace_back(in.bytes(len));
        }
        section.remove_prefix(section.size() - in.remaining());
      }
    }
    n += take;
    group_rows_left_ -= take;
    if (group_rows_left_ == 0) {
      for (const std::string_view section : sections_) {
        if (!section.empty())
          throw std::runtime_error{"lsm_table: trailing bytes in section"};
      }
    }
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
