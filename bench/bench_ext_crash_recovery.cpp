// EXT-CRASH — Durable LSM: crash-consistency proof and the price of
// durability (robustness leg of the Rec 10 storage substrate).
//
// Three sections:
//  1. durable-put overhead — the same put workload against the in-memory
//     store, a MemDevice-backed durable store, and a FileDevice-backed one
//     (real fsync), at several group-commit cadences; reports ns/op and the
//     durable/in-memory ratio.
//  2. recovery time vs WAL length — fill the WAL without flushing, then
//     time the recovering constructor as the log grows; reports ms and
//     replayed records/s.
//  3. crash-point + bit-flip fuzz sweep — run_crash_fuzz over >= 3 workload
//     seeds (every device-op boundary x every tear offset, plus a
//     lying-disk pass), then run_bitflip_fuzz across every persisted
//     artifact. Gates: zero invariant violations, zero undetected
//     corruption, and >= 1000 distinct crash points in the full sweep.
//     Exits 1 when any invariant fails (also in --quick mode, so CI runs
//     the proof, not just the timing).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "storage/crashfuzz.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"

namespace {

using rb::storage::CrashFuzzConfig;
using rb::storage::CrashFuzzResult;
using rb::storage::FileDevice;
using rb::storage::LsmOptions;
using rb::storage::LsmStore;
using rb::storage::MemDevice;

std::string bench_key(std::size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "key-%08zu", i);
  return buf;
}

/// One put workload: `n` writes over a 1/4-size key space (so updates and
/// fresh keys mix), group commit every `sync_every` ops, final sync.
void run_puts(LsmStore& store, std::size_t n, std::size_t sync_every) {
  const std::string value(32, 'v');
  const std::size_t keys = n / 4 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    store.put(bench_key(i % keys), value);
    if ((i + 1) % sync_every == 0) store.sync();
  }
  store.sync();
}

/// Fresh scratch directory for a FileDevice run; removed by the caller.
std::string scratch_dir(int run) {
  return (std::filesystem::temp_directory_path() /
          ("rb_bench_crash_" + std::to_string(::getpid()) + "_" +
           std::to_string(run)))
      .string();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  rb::bench::Report report{"ext_crash_recovery", argc, argv};
  report.config("quick", quick);

  LsmOptions bench_opts;
  bench_opts.memtable_bytes = 1 << 18;  // WAL-dominated put path

  // --- 1. durable-put overhead ---------------------------------------------
  rb::bench::heading("EXT-CRASH",
                     "durable LSM: put overhead, recovery time, and "
                     "crash-point fuzz proof");
  std::printf("  durable-put overhead (value 32 B, memtable %zu KiB)\n",
              bench_opts.memtable_bytes / 1024);
  std::printf("  %-10s %-6s %8s %12s %8s\n", "backend", "sync/", "ops",
              "ns-per-op", "vs-mem");

  const int reps = quick ? 3 : 5;
  const std::size_t base_ops = quick ? 2'000 : 10'000;
  // Real per-op fsyncs are expensive; keep that cell small.
  const std::size_t file_sync1_ops = quick ? 300 : 1'000;
  const std::size_t cadences[] = {1, 16};
  struct Cell {
    std::size_t ops = 0;
    double ns = 0.0;
    double vs_inmem = 0.0;
  };
  // [cadence][backend: inmem, memdev, filedev]
  Cell cells[2][3];
  // The in-memory and MemDevice cells run first, as alternating pairs, so
  // the FileDevice cells' real fsyncs cannot shift them and vs-mem is the
  // median of the per-pair ratios.
  for (int c = 0; c < 2; ++c) {
    const std::size_t sync_every = cadences[c];
    const rb::bench::Paired paired = rb::bench::paired_ms(
        reps,
        [&] {
          LsmStore store{bench_opts};
          run_puts(store, base_ops, sync_every);
        },
        [&] {
          MemDevice device;
          LsmStore store{bench_opts, device};
          run_puts(store, base_ops, sync_every);
        });
    const double per_op = 1e6 / static_cast<double>(base_ops);
    cells[c][0] = {base_ops, paired.base_ms * per_op, 1.0};
    cells[c][1] = {base_ops, paired.cand_ms * per_op, paired.ratio};
  }
  int file_run = 0;
  for (int c = 0; c < 2; ++c) {
    const std::size_t sync_every = cadences[c];
    const std::size_t n = sync_every == 1 ? file_sync1_ops : base_ops;
    const double ms = rb::bench::best_ms(reps, [&] {
      const std::string dir = scratch_dir(file_run++);
      {
        FileDevice device{dir};
        LsmStore store{bench_opts, device};
        run_puts(store, n, sync_every);
      }
      std::filesystem::remove_all(dir);
    });
    const double ns = ms * 1e6 / static_cast<double>(n);
    cells[c][2] = {n, ns, ns / cells[c][0].ns};
  }
  const char* const backends[] = {"inmem", "memdev", "filedev"};
  for (int c = 0; c < 2; ++c) {
    for (int b = 0; b < 3; ++b) {
      const Cell& cell = cells[c][b];
      std::printf("  %-10s %-6zu %8zu %12.0f %7.1fx\n", backends[b],
                  cadences[c], cell.ops, cell.ns, cell.vs_inmem);
      const std::string tag = std::string{"put."} + backends[b] + ".sync" +
                              std::to_string(cadences[c]);
      report.metric(tag + ".ns_per_op", cell.ns);
      report.metric(tag + ".vs_inmem", cell.vs_inmem);
    }
  }

  // --- 2. recovery time vs WAL length --------------------------------------
  std::printf("\n  recovery time vs WAL length (no flush: pure replay)\n");
  std::printf("  %-10s %12s %14s\n", "records", "recover-ms", "records/s");
  LsmOptions replay_opts;
  replay_opts.memtable_bytes = 64u << 20;  // nothing flushes: WAL-only state
  const std::vector<std::size_t> wal_lengths =
      quick ? std::vector<std::size_t>{500, 2'000}
            : std::vector<std::size_t>{1'000, 4'000, 16'000};
  for (const std::size_t n : wal_lengths) {
    MemDevice device;
    {
      LsmStore store{replay_opts, device};
      run_puts(store, n, /*sync_every=*/64);
    }
    std::uint64_t replayed = 0;
    const double ms = rb::bench::best_ms(reps, [&] {
      LsmStore recovered{replay_opts, device};
      replayed = recovered.recovery_info().wal_records_replayed;
    });
    const double per_s = replayed / (ms / 1e3);
    std::printf("  %-10zu %12.3f %14.0f\n", n, ms, per_s);
    const std::string tag = "recovery.wal" + std::to_string(n);
    report.metric(tag + ".ms", ms);
    report.metric(tag + ".records_per_s", per_s);
  }

  // --- 3. crash-point + bit-flip fuzz sweep --------------------------------
  std::printf("\n  crash-point fuzz (every device-op boundary x tear "
              "offsets, model oracle)\n");
  std::printf("  %-22s %8s %8s %8s %8s %s\n", "mode", "points", "recov",
              "losses", "prefix", "pass");

  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  CrashFuzzResult crash_total;
  CrashFuzzResult lying_total;
  CrashFuzzResult flip_total;
  const double fuzz_s = rb::bench::time_ms([&] {
    for (const std::uint64_t seed : seeds) {
      CrashFuzzConfig cfg;
      cfg.seed = seed;
      if (quick) {
        cfg.ops = 120;
        cfg.key_space = 32;
        cfg.tears = {0, 3, 17};
      }
      crash_total.merge(rb::storage::run_crash_fuzz(cfg));

      CrashFuzzConfig lying = cfg;
      lying.drop_sync_rate = 0.3;  // the disk lies about fsync
      lying_total.merge(rb::storage::run_crash_fuzz(lying));

      CrashFuzzConfig flips = cfg;
      flips.flip_stride = quick ? 53 : 23;
      flip_total.merge(rb::storage::run_bitflip_fuzz(flips));
    }
  }) / 1e3;

  const auto print_fuzz = [](const char* mode, const CrashFuzzResult& r) {
    std::printf("  %-22s %8llu %8llu %8llu %8llu %s\n", mode,
                static_cast<unsigned long long>(r.crash_points),
                static_cast<unsigned long long>(r.recoveries),
                static_cast<unsigned long long>(r.acked_losses),
                static_cast<unsigned long long>(r.prefix_violations),
                r.pass() ? "yes" : "NO");
  };
  print_fuzz("crash-points", crash_total);
  print_fuzz("crash-points+lying", lying_total);
  std::printf("  %-22s %8llu flips: %llu detected, %llu safe drops, "
              "%llu missed, %llu served -> %s\n", "bit-flips",
              static_cast<unsigned long long>(flip_total.flip_points),
              static_cast<unsigned long long>(flip_total.corruption_detected),
              static_cast<unsigned long long>(flip_total.safe_tail_drops),
              static_cast<unsigned long long>(flip_total.corruption_missed),
              static_cast<unsigned long long>(flip_total.corruption_served),
              flip_total.pass() ? "pass" : "FAIL");
  std::printf("  fuzz sweep: %zu seeds, %.2f s\n", seeds.size(), fuzz_s);

  const std::uint64_t total_points =
      crash_total.crash_points + lying_total.crash_points;
  const std::uint64_t point_floor = 1000;
  const bool coverage_ok = crash_total.crash_points >= point_floor;
  const bool pass = crash_total.pass() && lying_total.pass() &&
                    flip_total.pass() && coverage_ok &&
                    flip_total.flip_points > 0 &&
                    flip_total.corruption_detected > 0;

  if (!coverage_ok) {
    std::printf("  FAIL: only %llu crash points (floor %llu)\n",
                static_cast<unsigned long long>(crash_total.crash_points),
                static_cast<unsigned long long>(point_floor));
  }
  if (!pass && coverage_ok) {
    std::printf("  FAIL: a durability/consistency invariant was violated\n");
  }

  report.metric("crash_points", static_cast<double>(crash_total.crash_points));
  report.metric("crash_points_total", static_cast<double>(total_points));
  report.metric("fuzz.recoveries",
                static_cast<double>(crash_total.recoveries +
                                    lying_total.recoveries));
  report.metric("fuzz.acked_losses",
                static_cast<double>(crash_total.acked_losses));
  report.metric("fuzz.prefix_violations",
                static_cast<double>(crash_total.prefix_violations +
                                    lying_total.prefix_violations));
  report.metric("fuzz.reopen_mismatches",
                static_cast<double>(crash_total.reopen_mismatches +
                                    lying_total.reopen_mismatches));
  report.metric("fuzz.unexpected_corruption",
                static_cast<double>(crash_total.unexpected_corruption));
  report.metric("fuzz.flip_points",
                static_cast<double>(flip_total.flip_points));
  report.metric("fuzz.corruption_detected",
                static_cast<double>(flip_total.corruption_detected));
  report.metric("fuzz.safe_tail_drops",
                static_cast<double>(flip_total.safe_tail_drops));
  report.metric("fuzz.corruption_missed",
                static_cast<double>(flip_total.corruption_missed));
  report.metric("fuzz.corruption_served",
                static_cast<double>(flip_total.corruption_served));
  report.metric("fuzz_seconds", fuzz_s);
  report.metric("pass", pass);
  report.write();
  return pass ? 0 : 1;
}
