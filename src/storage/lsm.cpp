#include "storage/lsm.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/hash.hpp"
#include "storage/device.hpp"
#include "storage/manifest.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"

namespace rb::storage {

namespace {

struct StorageMetrics {
  obs::Counter* flushes;
  obs::Counter* compactions;
  obs::Counter* bytes_internal;
  obs::Counter* bloom_hits;       // filter passed; the run was probed
  obs::Counter* bloom_negatives;  // filter ruled the run out; probe skipped
  obs::Counter* wal_appends;      // records framed into the WAL
  obs::Counter* wal_replayed;     // records replayed by recovery
  obs::Counter* recoveries;       // durable opens of an existing device
  obs::Counter* scrub_corruptions;  // artifacts scrub flagged

  static StorageMetrics& get() {
    auto& r = obs::Registry::global();
    static StorageMetrics m{&r.counter("storage.flushes"),
                            &r.counter("storage.compactions"),
                            &r.counter("storage.bytes_written_internal"),
                            &r.counter("storage.bloom_hits"),
                            &r.counter("storage.bloom_negatives"),
                            &r.counter("storage.wal_appends"),
                            &r.counter("storage.wal_replayed"),
                            &r.counter("storage.recoveries"),
                            &r.counter("storage.scrub_corruptions_detected")};
    return m;
  }
};

}  // namespace

BloomFilter::BloomFilter(std::size_t expected_keys) {
  const std::size_t bits =
      std::bit_ceil(std::max<std::size_t>(64, expected_keys * 10));
  bits_.assign(bits / 64, 0);
}

void BloomFilter::insert(std::string_view key) {
  const std::uint64_t h1 = sim::fnv1a64(key, 0x9e3779b97f4a7c15ULL);
  const std::uint64_t h2 = sim::fnv1a64(key, 0xbf58476d1ce4e5b9ULL);
  const std::uint64_t mask = bit_count() - 1;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(k) * h2) & mask;
    bits_[bit / 64] |= (std::uint64_t{1} << (bit % 64));
  }
}

bool BloomFilter::may_contain(std::string_view key) const {
  const std::uint64_t h1 = sim::fnv1a64(key, 0x9e3779b97f4a7c15ULL);
  const std::uint64_t h2 = sim::fnv1a64(key, 0xbf58476d1ce4e5b9ULL);
  const std::uint64_t mask = bit_count() - 1;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(k) * h2) & mask;
    if ((bits_[bit / 64] & (std::uint64_t{1} << (bit % 64))) == 0) {
      return false;
    }
  }
  return true;
}

SsTable::SsTable(std::vector<Entry> entries)
    : entries_{std::move(entries)}, bloom_{entries_.size()} {
  if (entries_.empty())
    throw std::invalid_argument{"SsTable: empty run"};
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (!(entries_[i - 1].key < entries_[i].key))
      throw std::invalid_argument{"SsTable: entries not sorted/deduped"};
  }
  for (const auto& e : entries_) {
    bloom_.insert(e.key);
    bytes_ += e.key.size() + e.value.size() + 1;
  }
}

std::optional<SsTable::Hit> SsTable::get(std::string_view key,
                                         bool* bloom_skipped) const {
  if (bloom_skipped != nullptr) *bloom_skipped = false;
  if (!bloom_.may_contain(key)) {
    if (bloom_skipped != nullptr) *bloom_skipped = true;
    return std::nullopt;
  }
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::string_view k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return std::nullopt;
  return Hit{it->value, it->tombstone};
}

void LsmOptions::validate() const {
  if (memtable_bytes == 0) {
    throw LsmOptionsError{"memtable_bytes",
                          "must be > 0 (a 0-byte memtable would flush on "
                          "every write)"};
  }
  if (runs_per_level < 2) {
    throw LsmOptionsError{"runs_per_level",
                          "must be >= 2 (size-tiered compaction needs at "
                          "least two runs to merge)"};
  }
  if (max_levels == 0) {
    throw LsmOptionsError{"max_levels",
                          "must be >= 1 (flushes need a level to land in)"};
  }
}

/// Durable-mode wiring: the device, the live manifest image, the open WAL
/// writer, and the run-file names mirroring levels_ (level_files[l][r] is
/// the file behind levels_[l][r]).
struct LsmStore::Durable {
  explicit Durable(Device& dev) : device{dev} {}

  Device& device;
  ManifestData manifest;
  std::unique_ptr<WalWriter> wal;
  std::vector<std::vector<std::string>> level_files;
};

LsmStore::LsmStore(LsmOptions options) : options_{options} {
  options_.validate();
}

LsmStore::LsmStore(LsmOptions options, Device& device) : options_{options} {
  options_.validate();
  durable_ = std::make_unique<Durable>(device);
  const obs::WallSpan span{"storage.lsm", "open"};
  auto existing = read_manifest(device);
  if (!existing.has_value()) {
    // Fresh device (or one that died before its first manifest landed — no
    // manifest means no write was ever acked): initialize and sweep strays.
    durable_->manifest.wal_file = wal_file_name(1);
    durable_->manifest.next_file_number = 2;
    write_manifest(device, durable_->manifest);
    sweep_orphans();
  } else {
    durable_->manifest = std::move(*existing);
    recovery_.recovered_existing = true;
    // Rebuild the level structure from the manifest, verifying every run.
    for (const auto& level : durable_->manifest.levels) {
      levels_.emplace_back();
      durable_->level_files.emplace_back();
      for (const auto& run_file : level) {
        levels_.back().emplace_back(read_sstable(device, run_file));
        durable_->level_files.back().push_back(run_file);
        ++recovery_.runs_loaded;
      }
    }
    // Replay the WAL's valid prefix into the memtable. A torn tail is the
    // legal crash artifact: truncate it away so the writer appends after
    // the last valid frame. A corrupt record mid-prefix is not: refuse to
    // open rather than silently serve a hole.
    const WalReplay replay = replay_wal(device, durable_->manifest.wal_file);
    if (replay.tail == WalTail::kCorrupt) {
      throw CorruptionError{"recovery: corrupt WAL record in " +
                            durable_->manifest.wal_file};
    }
    for (const WalRecord& record : replay.records) {
      const bool tombstone = record.type == WalRecord::Type::kErase;
      memtable_bytes_ +=
          record.key.size() + (tombstone ? 1 : record.value.size());
      memtable_[record.key] = MemEntry{record.value, tombstone};
    }
    recovery_.wal_records_replayed = replay.records.size();
    recovery_.wal_bytes_dropped = replay.dropped_bytes;
    recovery_.wal_tail_torn = replay.tail == WalTail::kTorn;
    if (replay.tail == WalTail::kTorn) {
      device.truncate(durable_->manifest.wal_file, replay.valid_bytes);
      device.sync(durable_->manifest.wal_file);
    }
    sweep_orphans();
    if (obs::enabled()) {
      auto& m = StorageMetrics::get();
      m.recoveries->add();
      m.wal_replayed->add(replay.records.size());
    }
  }
  durable_->wal =
      std::make_unique<WalWriter>(device, durable_->manifest.wal_file);
  maybe_flush();  // a replayed WAL may already exceed the memtable budget
}

LsmStore::~LsmStore() = default;

void LsmStore::sweep_orphans() {
  std::set<std::string> referenced{kManifestFile, durable_->manifest.wal_file};
  for (const auto& level : durable_->manifest.levels) {
    referenced.insert(level.begin(), level.end());
  }
  for (const std::string& file : durable_->device.list()) {
    if (referenced.count(file) != 0) continue;
    durable_->device.remove(file);
    ++recovery_.orphan_files_removed;
  }
}

void LsmStore::put(std::string key, std::string value) {
  ++stats_.puts;
  stats_.bytes_written_user += key.size() + value.size();
  if (durable_) {
    const std::uint64_t before = durable_->wal->appended_bytes();
    durable_->wal->append(WalRecord{WalRecord::Type::kPut, key, value});
    ++stats_.wal_appends;
    stats_.bytes_written_wal += durable_->wal->appended_bytes() - before;
    if (obs::enabled()) StorageMetrics::get().wal_appends->add();
  }
  memtable_bytes_ += key.size() + value.size();
  memtable_[std::move(key)] = MemEntry{std::move(value), false};
  maybe_flush();
}

void LsmStore::erase(std::string key) {
  ++stats_.deletes;
  stats_.bytes_written_user += key.size() + 1;
  if (durable_) {
    const std::uint64_t before = durable_->wal->appended_bytes();
    durable_->wal->append(WalRecord{WalRecord::Type::kErase, key, ""});
    ++stats_.wal_appends;
    stats_.bytes_written_wal += durable_->wal->appended_bytes() - before;
    if (obs::enabled()) StorageMetrics::get().wal_appends->add();
  }
  memtable_bytes_ += key.size() + 1;
  memtable_[std::move(key)] = MemEntry{"", true};
  maybe_flush();
}

std::uint64_t LsmStore::sync() {
  if (!durable_) return 0;
  const std::uint64_t acked = durable_->wal->sync();
  if (acked > 0) {
    ++stats_.wal_syncs;
    stats_.wal_synced_records += acked;
  }
  return acked;
}

template <typename Fn>
void LsmStore::for_each_run_newest_first(Fn fn) const {
  for (const auto& level : levels_) {
    // Within a level, later runs are newer.
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      if (!fn(*it)) return;
    }
  }
}

std::optional<std::string_view> LsmStore::find(
    std::string_view key, const obs::TraceContext& ctx,
    std::int64_t ts_ps) const {
  auto& tracer = obs::RequestTracer::global();
  if (!tracer.enabled() || !ctx.active()) return find(key);
  const std::uint64_t probes_before = stats_.sstable_probes;
  const std::optional<std::string_view> result = find(key);
  tracer.add_span(ctx, obs::Segment::kStorage, "lsm.get", ts_ps, ts_ps,
                  static_cast<std::int64_t>(stats_.sstable_probes -
                                            probes_before));
  return result;
}

std::optional<std::string> LsmStore::get(std::string_view key) const {
  const std::optional<std::string_view> value = find(key);
  if (!value) return std::nullopt;
  return std::string{*value};
}

std::optional<std::string_view> LsmStore::find(std::string_view key) const {
  ++stats_.gets;
  const auto mem = memtable_.find(key);
  if (mem != memtable_.end()) {
    if (mem->second.tombstone) return std::nullopt;
    return mem->second.value;
  }
  std::optional<std::string_view> result;
  for_each_run_newest_first([&](const SsTable& run) {
    bool bloom_skipped = false;
    const auto hit = run.get(key, &bloom_skipped);
    if (bloom_skipped) {
      ++stats_.bloom_skips;
      if (obs::enabled()) StorageMetrics::get().bloom_negatives->add();
      return true;  // filter said no; keep searching older runs
    }
    ++stats_.sstable_probes;
    if (obs::enabled()) StorageMetrics::get().bloom_hits->add();
    if (hit) {
      if (!hit->tombstone) result = hit->value;
      return false;  // newest occurrence wins; stop
    }
    return true;
  });
  return result;
}

LsmStore::Cursor LsmStore::cursor(std::string_view lo,
                                  std::string_view hi) const {
  if (!hi.empty() && !(lo < hi)) {
    return Cursor{memtable_.end(), memtable_.end(), {}, false};
  }
  const auto below = [](const SsTable::Entry& e, std::string_view k) {
    return e.key < k;
  };
  std::vector<Cursor::Span> runs;
  for_each_run_newest_first([&](const SsTable& run) {
    const auto& e = run.entries();
    const auto* at =
        std::to_address(std::lower_bound(e.begin(), e.end(), lo, below));
    const auto* end =
        hi.empty() ? e.data() + e.size()
                   : std::to_address(
                         std::lower_bound(e.begin(), e.end(), hi, below));
    if (at != end) runs.push_back(Cursor::Span{at, end});
    return true;
  });
  return Cursor{memtable_.lower_bound(lo),
                hi.empty() ? memtable_.end() : memtable_.lower_bound(hi),
                std::move(runs), false};
}

LsmStore::Cursor::Cursor(MemIter mem, MemIter mem_end, std::vector<Span> runs,
                         bool keep_tombstones)
    : mem_{mem},
      mem_end_{mem_end},
      runs_{std::move(runs)},
      keep_tombstones_{keep_tombstones} {
  next();
}

const std::string* LsmStore::Cursor::head(std::size_t s) const noexcept {
  if (s == 0) return mem_ == mem_end_ ? nullptr : &mem_->first;
  const Span& run = runs_[s - 1];
  return run.at == run.end ? nullptr : &run.at->key;
}

void LsmStore::Cursor::take(std::size_t s) noexcept {
  if (s == 0) {
    key_ = mem_->first;
    value_ = mem_->second.value;
    tombstone_ = mem_->second.tombstone;
    ++mem_;
  } else {
    const SsTable::Entry& e = *runs_[s - 1].at++;
    key_ = e.key;
    value_ = e.value;
    tombstone_ = e.tombstone;
  }
}

void LsmStore::Cursor::skip(std::size_t s) noexcept {
  if (s == 0) {
    ++mem_;
  } else {
    ++runs_[s - 1].at;
  }
}

void LsmStore::Cursor::pick() {
  // Sources are numbered newest first and only a strictly smaller key
  // displaces the pick, so a tie resolves to the newest version.
  const std::size_t sources = runs_.size() + 1;
  const std::string* least = nullptr;
  for (std::size_t s = 0; s < sources; ++s) {
    const std::string* h = head(s);
    if (h != nullptr && (least == nullptr || *h < *least)) {
      least = h;
      lead_ = s;
    }
  }
  valid_ = least != nullptr;
  if (!valid_) return;
  take(lead_);
  // The key's older versions are shadowed; what the other sources hold
  // next bounds the lead's fast path.
  bound_ = nullptr;
  for (std::size_t s = 0; s < sources; ++s) {
    if (s == lead_) continue;
    const std::string* h = head(s);
    if (h != nullptr && *h == key_) {
      skip(s);
      h = head(s);
    }
    if (h != nullptr && (bound_ == nullptr || *h < *bound_)) bound_ = h;
  }
}

bool LsmStore::Cursor::step_lead() noexcept {
  const std::string* h = head(lead_);
  if (h == nullptr || (bound_ != nullptr && !(*h < *bound_))) return false;
  take(lead_);
  return true;
}

void LsmStore::Cursor::next() {
  do {
    if (!valid_ || !step_lead()) pick();
  } while (valid_ && tombstone_ && !keep_tombstones_);
}

std::vector<std::pair<std::string, std::string>> LsmStore::scan(
    std::string_view lo, std::string_view hi) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (Cursor c = cursor(lo, hi); c.valid(); c.next()) {
    out.emplace_back(c.key(), c.value());
  }
  return out;
}

std::size_t LsmStore::size() const {
  std::size_t n = 0;
  for (Cursor c = cursor("", ""); c.valid(); c.next()) ++n;
  return n;
}

void LsmStore::flush() {
  if (memtable_.empty()) return;
  const obs::WallSpan span{
      "storage.lsm", "flush",
      {obs::trace_arg("entries",
                      static_cast<std::uint64_t>(memtable_.size()))}};
  std::vector<SsTable::Entry> entries;
  entries.reserve(memtable_.size());
  for (auto& [key, entry] : memtable_) {
    entries.push_back(SsTable::Entry{key, entry.value, entry.tombstone});
  }
  // Durable order of operations: the run file is written and fsynced
  // *before* the memtable is dropped and before any manifest references it;
  // a crash at any boundary leaves either the old manifest + full WAL (the
  // run file is an orphan, swept at recovery) or the new manifest + rotated
  // WAL. Both recover to the same store state.
  std::string run_file;
  if (durable_) {
    run_file = sst_file_name(durable_->manifest.next_file_number++);
    write_sstable(durable_->device, run_file, entries);
  }
  memtable_.clear();
  memtable_bytes_ = 0;
  if (levels_.empty()) {
    levels_.emplace_back();
    if (durable_) durable_->level_files.emplace_back();
  }
  SsTable run{std::move(entries)};
  stats_.bytes_written_internal += run.size_bytes();
  if (obs::enabled()) {
    auto& m = StorageMetrics::get();
    m.flushes->add();
    m.bytes_internal->add(run.size_bytes());
  }
  levels_[0].push_back(std::move(run));
  ++stats_.flushes;
  if (durable_) {
    durable_->level_files[0].push_back(run_file);
    // Rotate the WAL: everything it logged now lives in a synced run, so
    // the manifest swap both publishes the run and retires the log.
    const std::string old_wal = durable_->manifest.wal_file;
    durable_->manifest.wal_file =
        wal_file_name(durable_->manifest.next_file_number++);
    durable_->manifest.levels = durable_->level_files;
    write_manifest(durable_->device, durable_->manifest);
    durable_->device.remove(old_wal);
    durable_->wal = std::make_unique<WalWriter>(durable_->device,
                                                durable_->manifest.wal_file);
  }
  compact(0);
}

void LsmStore::maybe_flush() {
  if (memtable_bytes_ >= options_.memtable_bytes) flush();
}

void LsmStore::compact(std::size_t level) {
  if (level >= levels_.size()) return;
  if (levels_[level].size() < options_.runs_per_level) return;
  const bool last_level = level + 1 >= options_.max_levels;
  const obs::WallSpan span{
      "storage.lsm", "compact",
      {obs::trace_arg("level", static_cast<std::uint64_t>(level)),
       obs::trace_arg("runs",
                      static_cast<std::uint64_t>(levels_[level].size()))}};

  // Merge the level's runs through the cursor, newest run winning per key.
  // Tombstones must keep shadowing older levels, except at the last level,
  // where nothing older can exist.
  std::vector<Cursor::Span> runs;
  std::size_t input_entries = 0;
  const auto& inputs = levels_[level];
  for (auto run = inputs.rbegin(); run != inputs.rend(); ++run) {
    const auto& e = run->entries();
    runs.push_back(Cursor::Span{e.data(), e.data() + e.size()});
    input_entries += e.size();
  }
  std::vector<SsTable::Entry> entries;
  entries.reserve(input_entries);
  for (Cursor c{memtable_.end(), memtable_.end(), std::move(runs),
                !last_level};
       c.valid(); c.next()) {
    entries.push_back(SsTable::Entry{std::string{c.key()},
                                     std::string{c.value()}, c.tombstone()});
  }
  std::vector<std::string> retired_files;
  if (durable_) {
    retired_files = std::move(durable_->level_files[level]);
    durable_->level_files[level].clear();
  }
  levels_[level].clear();
  ++stats_.compactions;
  if (obs::enabled()) StorageMetrics::get().compactions->add();
  if (!entries.empty()) {
    std::string run_file;
    if (durable_) {
      run_file = sst_file_name(durable_->manifest.next_file_number++);
      write_sstable(durable_->device, run_file, entries);
    }
    SsTable run{std::move(entries)};
    stats_.bytes_written_internal += run.size_bytes();
    if (obs::enabled())
      StorageMetrics::get().bytes_internal->add(run.size_bytes());
    if (levels_.size() <= level + 1 && !last_level) {
      levels_.emplace_back();
      if (durable_) durable_->level_files.emplace_back();
    }
    auto& target = last_level ? levels_[level] : levels_[level + 1];
    target.push_back(std::move(run));
    if (durable_) {
      auto& target_files = last_level ? durable_->level_files[level]
                                      : durable_->level_files[level + 1];
      target_files.push_back(run_file);
    }
  }
  if (durable_) {
    // Publish the merge, then retire the inputs (crash in between leaves
    // orphans, swept at recovery; never dangling references).
    durable_->manifest.levels = durable_->level_files;
    write_manifest(durable_->device, durable_->manifest);
    for (const std::string& file : retired_files) {
      durable_->device.remove(file);
    }
  }
  if (!last_level) compact(level + 1);
}

ScrubReport LsmStore::scrub() const {
  if (!durable_) return ScrubReport{};
  const obs::WallSpan span{"storage.lsm", "scrub"};
  ScrubReport report = scrub_device(durable_->device);
  ++stats_.scrubs;
  stats_.scrub_corruptions += report.corruptions();
  if (obs::enabled() && report.corruptions() > 0) {
    StorageMetrics::get().scrub_corruptions->add(report.corruptions());
  }
  return report;
}

}  // namespace rb::storage
