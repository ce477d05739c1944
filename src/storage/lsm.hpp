#pragma once
// Log-structured merge (LSM) key-value store — the storage substrate behind
// the paper's opening premise that "processing and storage bottlenecks are
// leading to the adoption of specialized Big Data-optimized hardware".
//
// A real implementation of the design every Big-Data storage engine of the
// era used (LevelDB/RocksDB/Cassandra): writes land in a sorted memtable;
// full memtables flush to immutable sorted runs (SSTables) with bloom
// filters; a size-tiered compactor merges runs to bound read amplification.
// The store tracks the bytes it moves, so the write amplification that
// motivates hardware offload (Rec 10's "often-required functional building
// blocks" include exactly these merges) is measurable.
//
// The store runs in two modes:
//  * in-memory (default constructor): nothing survives the process;
//  * durable (constructor taking a storage::Device): every put/erase is
//    framed into a CRC32C-checksummed write-ahead log before touching the
//    memtable (group-commit acking via sync()), flushes persist checksummed
//    SSTable block files, and an atomically-swapped manifest records the
//    level/run structure. Reopening the same device replays the WAL's valid
//    prefix and rebuilds the store byte-identically; scrub() verifies every
//    persisted checksum and *reports* corruption (CorruptionError /
//    ScrubReport) rather than silently dropping data. The crash-point
//    fuzzer (storage/crashfuzz.hpp) enumerates every write boundary and
//    mid-record tear to prove it.
//
// Reads that span keys go through one newest-wins k-way merge, the Cursor:
// cursor(lo, hi) streams live pairs as views into the store, and scan(),
// size() and compaction are built on the same merge.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

namespace rb::storage {

class Device;       // storage/device.hpp
struct ScrubReport;  // storage/recovery.hpp

/// Split-block bloom filter over string keys (k = 4 derived hashes).
class BloomFilter {
 public:
  /// `expected_keys` sizes the filter at ~10 bits/key.
  explicit BloomFilter(std::size_t expected_keys);

  void insert(std::string_view key);
  /// False means definitely absent; true means probably present.
  bool may_contain(std::string_view key) const;

  std::size_t bit_count() const noexcept { return bits_.size() * 64; }

 private:
  std::vector<std::uint64_t> bits_;
};

/// Immutable sorted run.
class SsTable {
 public:
  struct Entry {
    std::string key;
    std::string value;
    bool tombstone = false;
  };

  /// `entries` must be sorted by key and deduplicated (newest wins upstream).
  explicit SsTable(std::vector<Entry> entries);

  /// Lookup result: the key is present in this run, as a live value (a
  /// view into the run) or a tombstone.
  struct Hit {
    std::string_view value;
    bool tombstone = false;
  };
  /// When the bloom filter rules the key out, `*bloom_skipped` (if given)
  /// is set to true and no probe happens. Runs keep no counters of their
  /// own — bloom accounting has a single source of truth, LsmStats (runs
  /// are destroyed on compaction; a per-table counter would vanish with
  /// them).
  std::optional<Hit> get(std::string_view key,
                         bool* bloom_skipped = nullptr) const;

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  std::size_t size_bytes() const noexcept { return bytes_; }

 private:
  std::vector<Entry> entries_;
  BloomFilter bloom_;
  std::size_t bytes_ = 0;
};

/// Typed rejection for degenerate store options: names the offending field
/// so configuration errors fail loudly at construction instead of
/// misbehaving silently (a 0-byte memtable would flush on every write; a
/// single-run level can never merge; zero levels have nowhere to flush to).
class LsmOptionsError : public std::invalid_argument {
 public:
  LsmOptionsError(std::string field, const std::string& why)
      : std::invalid_argument{"LsmOptions." + field + ": " + why},
        field_{std::move(field)} {}

  const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

struct LsmOptions {
  /// Flush the memtable once it holds this many bytes of keys+values.
  std::size_t memtable_bytes = 1 << 20;
  /// Size-tiered compaction: merge whenever a level holds this many runs.
  std::size_t runs_per_level = 4;
  std::size_t max_levels = 6;

  /// Throws LsmOptionsError naming the first degenerate field.
  void validate() const;
};

struct LsmStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bytes_written_user = 0;     // what the client wrote
  std::uint64_t bytes_written_internal = 0; // flush + compaction traffic
  std::uint64_t bytes_written_wal = 0;      // framed WAL bytes (durable mode)
  std::uint64_t sstable_probes = 0;         // runs consulted by gets
  std::uint64_t bloom_skips = 0;            // probes avoided by blooms
  std::uint64_t wal_appends = 0;            // records framed into the WAL
  std::uint64_t wal_syncs = 0;              // group commits that hit fsync
  std::uint64_t wal_synced_records = 0;     // records acked by those commits
  std::uint64_t scrubs = 0;
  std::uint64_t scrub_corruptions = 0;      // artifacts scrub flagged

  /// Total device writes per user write (>= 1 once anything flushed).
  double write_amplification() const noexcept {
    return bytes_written_user == 0
               ? 0.0
               : static_cast<double>(bytes_written_user +
                                     bytes_written_internal +
                                     bytes_written_wal) /
                     static_cast<double>(bytes_written_user);
  }
};

/// What the recovering constructor found on its device. Audited by the
/// crash-point fuzzer and exported through the storage.* obs counters.
struct RecoveryInfo {
  bool recovered_existing = false;  // false: the device was fresh
  std::uint64_t runs_loaded = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_bytes_dropped = 0;  // torn tail discarded at reopen
  bool wal_tail_torn = false;
  std::uint64_t orphan_files_removed = 0;  // unreferenced files swept
};

class LsmStore {
 public:
  /// In-memory store (no durability).
  explicit LsmStore(LsmOptions options = {});

  /// Durable store over `device` (which must outlive the store). A fresh
  /// device is initialized (manifest + empty WAL); a used one is recovered:
  /// manifest verified, every referenced run's checksums verified, the
  /// WAL's valid prefix replayed into the memtable, torn tail truncated,
  /// orphan files swept. Throws CorruptionError when a checksum catches
  /// damaged state — corrupted stores refuse to open rather than serve.
  LsmStore(LsmOptions options, Device& device);

  ~LsmStore();
  LsmStore(const LsmStore&) = delete;
  LsmStore& operator=(const LsmStore&) = delete;

  void put(std::string key, std::string value);
  void erase(std::string key);

  /// The store's one point lookup: the live value of `key`, or nullopt when
  /// it is absent or deleted. The view points into the store and is valid
  /// until its next write (put, erase, flush or compaction).
  std::optional<std::string_view> find(std::string_view key) const;

  /// find() plus a causal storage span: when the RequestTracer is on and
  /// `ctx` is active, emits a kStorage span [ts_ps, ts_ps] under `ctx`
  /// annotated with the sstable probes this lookup cost (the read-
  /// amplification evidence a slow-read exemplar needs). The store has no
  /// clock of its own, so the caller supplies the simulated timestamp.
  std::optional<std::string_view> find(std::string_view key,
                                       const obs::TraceContext& ctx,
                                       std::int64_t ts_ps) const;

  /// find() copied out, for callers that outlive the view.
  std::optional<std::string> get(std::string_view key) const;

  class Cursor;

  /// Streams the live (key, value) pairs with lo <= key < hi in key order
  /// (hi empty = unbounded), without copying them. The cursor borrows the
  /// store: any put, erase or flush invalidates it and the views it hands
  /// out.
  Cursor cursor(std::string_view lo, std::string_view hi) const;

  /// cursor(lo, hi) copied out, for callers that outlive the borrow.
  std::vector<std::pair<std::string, std::string>> scan(
      std::string_view lo, std::string_view hi) const;

  /// Live-key count (exact; walks the merged view).
  std::size_t size() const;

  /// Force a memtable flush (used by tests; normally automatic).
  void flush();

  /// Group commit: make every WAL record appended since the last sync
  /// durable and acked. Returns the number of records acked (0 when
  /// nothing was pending or the store is in-memory). Writes that were
  /// never covered by a sync may be lost on crash — but only as a
  /// contiguous suffix (prefix consistency; fuzz-verified).
  std::uint64_t sync();

  /// True when backed by a Device.
  bool durable() const noexcept { return durable_ != nullptr; }

  /// Verify every persisted checksum (manifest, runs, WAL prefix) without
  /// touching store state. Corruption is *reported* in the ScrubReport and
  /// counted (stats + storage.scrub_corruptions_detected), never dropped.
  /// Returns a clean report for an in-memory store.
  ScrubReport scrub() const;

  /// What the durable constructor found (all-defaults when in-memory).
  const RecoveryInfo& recovery_info() const noexcept { return recovery_; }

  const LsmStats& stats() const noexcept { return stats_; }
  std::size_t level_count() const noexcept { return levels_.size(); }
  std::size_t runs_in_level(std::size_t level) const {
    return levels_.at(level).size();
  }

 private:
  struct MemEntry {
    std::string value;
    bool tombstone = false;
  };
  using Memtable = std::map<std::string, MemEntry, std::less<>>;
  struct Durable;  // WAL + manifest wiring (storage/lsm.cpp)

  void maybe_flush();
  void compact(std::size_t level);
  void sweep_orphans();
  /// Newest-first iteration over all runs.
  template <typename Fn>
  void for_each_run_newest_first(Fn fn) const;

  LsmOptions options_;
  Memtable memtable_;
  std::size_t memtable_bytes_ = 0;
  /// levels_[0] is the newest level; within a level, later runs are newer.
  std::vector<std::vector<SsTable>> levels_;
  mutable LsmStats stats_;
  std::unique_ptr<Durable> durable_;
  RecoveryInfo recovery_;
};

/// Newest-wins k-way merge over the memtable and the runs, positioned by
/// binary search. Each source is a sorted key range; when several hold a
/// key, the newest one's version wins and the older ones are skipped. A
/// winning tombstone hides the key. Keys and values are views into the
/// store, valid until the store is next written (see LsmStore::cursor).
class LsmStore::Cursor {
 public:
  /// False once the range is exhausted; key() and value() need true.
  bool valid() const noexcept { return valid_; }
  std::string_view key() const noexcept { return key_; }
  std::string_view value() const noexcept { return value_; }
  void next();

 private:
  friend class LsmStore;
  using MemIter = Memtable::const_iterator;
  struct Span {
    const SsTable::Entry* at;
    const SsTable::Entry* end;
  };

  /// `runs` are ordered newest first, all of them older than the memtable
  /// range [mem, mem_end). With `keep_tombstones` (compaction) a winning
  /// tombstone is yielded, flagged by tombstone(), instead of skipped.
  Cursor(MemIter mem, MemIter mem_end, std::vector<Span> runs,
         bool keep_tombstones);

  bool tombstone() const noexcept { return tombstone_; }

  /// Source s is the memtable for s == 0, else runs_[s - 1]. head() is its
  /// next key, or nullptr once it is exhausted; take() makes that entry
  /// the current one and steps past it; skip() only steps.
  const std::string* head(std::size_t s) const noexcept;
  void take(std::size_t s) noexcept;
  void skip(std::size_t s) noexcept;
  /// Full merge step: the smallest head of all sources, the newest holder
  /// winning a tie, becomes current; every other holder is skipped.
  void pick();
  /// Fast merge step: while the winner's next key is below every other
  /// source's head, it is the smallest key left and nobody else holds it.
  bool step_lead() noexcept;

  MemIter mem_;
  MemIter mem_end_;
  std::vector<Span> runs_;
  bool keep_tombstones_;
  bool valid_ = false;
  bool tombstone_ = false;
  std::size_t lead_ = 0;  // the source the current key came from
  const std::string* bound_ = nullptr;  // smallest head outside the lead
  std::string_view key_;
  std::string_view value_;
};

}  // namespace rb::storage
