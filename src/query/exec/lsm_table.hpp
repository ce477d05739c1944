#pragma once
// Typed relational tables over the LSM key-value store, stored as columnar
// row groups.
//
// Encoding: a table named T occupies the key range "t!T!…":
//   "t!T!s"                 → schema record (column names + types, binary)
//   "t!T!g!<group %010u>"   → one row group: the table's rows
//                             [g·kGroupRows, (g+1)·kGroupRows), fewer in the
//                             last group
// A group value is a u32 row count, then each column's section in schema
// order: an int64 column is count × 8 bytes little-endian; a string column
// is a u32 section length, then count × (u32 length + bytes). Readers take
// the stored count and never assume the group size. Groups carry no
// checksum of their own: every byte already sits inside a CRC32C-framed WAL
// record or SSTable block.
// Zero-padded group numbers make lexicographic key order equal row order,
// so the store's merge cursor streams groups back exactly as they were
// written and an LSM-backed scan is byte-identical to the in-memory one.
// With one key per kGroupRows rows, the store pays a key comparison, a
// merge step and a WAL frame per group, not per row, and LsmSource copies
// each int column's run into the batch with one bulk loop. Groups are read
// only as the plan pulls batches: a saturated Limit stops the storage read
// itself. This is the storage-backed end of the Rec 10 pipeline: the same
// operator chain runs over a memtable+SSTable substrate instead of a
// resident Table.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/exec/batch.hpp"
#include "query/exec/operators.hpp"
#include "query/table.hpp"
#include "storage/lsm.hpp"

namespace rb::query::exec {

/// Rows per stored group: the engine's default batch size.
inline constexpr std::size_t kGroupRows = 1024;

/// Write `table` into `store` under `name` (the schema record, then one
/// record per row group), then sync(): on a durable store the whole table
/// lands under one group commit. A crash before it leaves a prefix of the
/// writes, so a recovered store serves no table, a prefix of its whole
/// groups, or the full table; never part of a group. Storing under a
/// name already in use replaces that table: the schema and groups are
/// overwritten and the old groups past the new group count erased, all
/// before the same single sync(); a crash before it may leave the old table
/// partly overwritten. Throws std::invalid_argument when `name` is empty or
/// contains the '!' key separator, or when a string column's section of one
/// group exceeds 4 GiB.
void store_table(storage::LsmStore& store, const std::string& name,
                 const Table& table);

/// Read a whole stored table back. Throws std::invalid_argument when no
/// schema record exists under `name`, std::runtime_error on a corrupt
/// schema record (an unknown column tag included) or row group.
Table load_table(const storage::LsmStore& store, const std::string& name);

/// Source that streams a stored table out of the LSM store with typed
/// decode, in row order, filling each batch to its capacity across group
/// boundaries. It holds a store cursor, so the store must not be written
/// while the source is in use.
class LsmSource : public Source {
 public:
  LsmSource(const storage::LsmStore* store, std::string name);
  const char* name() const noexcept override { return "lsm_scan"; }
  const SchemaPtr& schema() const noexcept override { return schema_; }
  bool next(ColumnBatch& out) override;

 private:
  /// Locate each column's section in `group`, checking that they tile it.
  void open_group(std::string_view group);

  SchemaPtr schema_;
  storage::LsmStore::Cursor cursor_;
  /// The current group's unread part of each column's section.
  std::vector<std::string_view> sections_;
  std::size_t group_rows_left_ = 0;
};

}  // namespace rb::query::exec
