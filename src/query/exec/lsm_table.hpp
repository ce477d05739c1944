#pragma once
// Typed relational tables over the LSM key-value store.
//
// Encoding: a table named T occupies the key range "t!T!…":
//   "t!T!s"                 → schema record (column names + types, binary)
//   "t!T!r!<rowid %010u>"   → one row, columns serialized in schema order
//                             (int64: 8 bytes little-endian; string: u32
//                             length prefix + bytes)
// Zero-padded decimal row ids make lexicographic key order equal row order,
// so the store's merge cursor streams rows back exactly as they were
// appended and an LSM-backed scan is byte-identical to the in-memory one.
// LsmSource decodes each batch straight from the cursor's views, so rows
// are read only as the plan pulls them: a saturated Limit stops the
// storage read itself. This is the storage-backed end of the Rec 10
// pipeline: the same operator chain runs over a memtable+SSTable substrate
// instead of a resident Table.

#include <cstdint>
#include <string>
#include <vector>

#include "query/exec/batch.hpp"
#include "query/exec/operators.hpp"
#include "query/table.hpp"
#include "storage/lsm.hpp"

namespace rb::query::exec {

/// Write `table` into `store` under `name` (schema record + one entry per
/// row), then sync() — on a durable store the whole table lands under one
/// group commit, so a recovered store serves either the full table or a
/// clean prefix of its rows. Storing under a name already in use replaces
/// that table: the schema and rows are overwritten and the old rows past
/// the new row count erased, all before the same single sync(); a crash
/// before it may leave the old table partly overwritten. Throws
/// std::invalid_argument when `name` is empty or contains the '!' key
/// separator, or when the table has more rows than the 10-digit row id can
/// address.
void store_table(storage::LsmStore& store, const std::string& name,
                 const Table& table);

/// Read a whole stored table back. Throws std::invalid_argument when no
/// schema record exists under `name`, std::runtime_error on a corrupt
/// schema record (an unknown column tag included) or row.
Table load_table(const storage::LsmStore& store, const std::string& name);

/// Source that streams a stored table out of the LSM store with typed
/// decode, in row order, batch by batch. It holds a store cursor, so the
/// store must not be written while the source is in use.
class LsmSource : public Source {
 public:
  LsmSource(const storage::LsmStore* store, std::string name);
  const char* name() const noexcept override { return "lsm_scan"; }
  const SchemaPtr& schema() const noexcept override { return schema_; }
  bool next(ColumnBatch& out) override;

 private:
  /// One column of the batch being filled: the vector of its type.
  struct Column {
    std::vector<std::int64_t>* ints;
    std::vector<std::string>* strings;
  };

  SchemaPtr schema_;
  storage::LsmStore::Cursor cursor_;
  std::vector<Column> columns_;
};

}  // namespace rb::query::exec
