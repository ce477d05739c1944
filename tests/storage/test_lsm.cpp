#include "storage/lsm.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace rb::storage {
namespace {

LsmOptions tiny() {
  LsmOptions options;
  options.memtable_bytes = 256;  // force frequent flushes
  options.runs_per_level = 2;    // force frequent compactions
  options.max_levels = 4;
  return options;
}

TEST(Bloom, NeverFalseNegative) {
  BloomFilter bloom{100};
  for (int i = 0; i < 100; ++i) bloom.insert("key" + std::to_string(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bloom.may_contain("key" + std::to_string(i)));
  }
}

TEST(Bloom, FalsePositiveRateBounded) {
  BloomFilter bloom{1000};
  for (int i = 0; i < 1000; ++i) bloom.insert("in" + std::to_string(i));
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    false_positives += bloom.may_contain("out" + std::to_string(i));
  }
  // 10 bits/key, 4 hashes: theoretical ~1-2%; allow generous slack.
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.05);
}

TEST(SsTable, RejectsEmptyAndUnsorted) {
  EXPECT_THROW(SsTable({}), std::invalid_argument);
  EXPECT_THROW(SsTable({{"b", "1", false}, {"a", "2", false}}),
               std::invalid_argument);
  EXPECT_THROW(SsTable({{"a", "1", false}, {"a", "2", false}}),
               std::invalid_argument);
}

TEST(SsTable, GetFindsAndMisses) {
  const SsTable run{{{"a", "1", false}, {"c", "3", true}, {"e", "5", false}}};
  ASSERT_TRUE(run.get("a"));
  EXPECT_EQ(run.get("a")->value, "1");
  EXPECT_FALSE(run.get("a")->tombstone);
  ASSERT_TRUE(run.get("c"));
  EXPECT_TRUE(run.get("c")->tombstone);
  EXPECT_FALSE(run.get("b").has_value());
  EXPECT_FALSE(run.get("z").has_value());
}

TEST(Lsm, PutGetRoundTrip) {
  LsmStore store;
  store.put("hello", "world");
  ASSERT_TRUE(store.get("hello"));
  EXPECT_EQ(*store.get("hello"), "world");
  EXPECT_FALSE(store.get("missing"));
}

TEST(Lsm, OverwriteTakesLatest) {
  LsmStore store{tiny()};
  store.put("k", "v1");
  store.flush();
  store.put("k", "v2");
  EXPECT_EQ(*store.get("k"), "v2");
  store.flush();
  EXPECT_EQ(*store.get("k"), "v2");
}

TEST(Lsm, EraseHidesOlderVersions) {
  LsmStore store{tiny()};
  store.put("k", "v");
  store.flush();  // value now in an SSTable
  store.erase("k");
  EXPECT_FALSE(store.get("k"));
  store.flush();  // tombstone now in an SSTable above the value
  EXPECT_FALSE(store.get("k"));
}

TEST(Lsm, ReinsertAfterEraseIsVisible) {
  LsmStore store{tiny()};
  store.put("k", "v1");
  store.erase("k");
  store.put("k", "v2");
  EXPECT_EQ(*store.get("k"), "v2");
}

TEST(Lsm, ScanMergesMemtableAndRuns) {
  LsmStore store{tiny()};
  store.put("b", "2");
  store.put("d", "4");
  store.flush();
  store.put("a", "1");
  store.put("c", "3");
  store.erase("d");
  const auto all = store.scan("", "");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "b");
  EXPECT_EQ(all[2].first, "c");
}

TEST(Lsm, ScanRespectsRange) {
  LsmStore store;
  for (const char c : {'a', 'b', 'c', 'd', 'e'}) {
    store.put(std::string(1, c), "v");
  }
  const auto mid = store.scan("b", "d");  // [b, d)
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0].first, "b");
  EXPECT_EQ(mid[1].first, "c");
}

TEST(Lsm, FlushAndCompactionCountersAdvance) {
  LsmStore store{tiny()};
  for (int i = 0; i < 200; ++i) {
    store.put("key" + std::to_string(i), std::string(32, 'x'));
  }
  EXPECT_GT(store.stats().flushes, 0u);
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_GT(store.stats().write_amplification(), 1.0);
}

TEST(Lsm, CompactionBoundsRunsPerLevel) {
  LsmStore store{tiny()};
  for (int i = 0; i < 500; ++i) {
    store.put("key" + std::to_string(i % 97), std::string(24, 'y'));
  }
  for (std::size_t level = 0; level < store.level_count(); ++level) {
    EXPECT_LT(store.runs_in_level(level),
              tiny().runs_per_level + 1)
        << "level " << level;
  }
}

TEST(Lsm, LastLevelCompactionDropsTombstones) {
  LsmOptions options = tiny();
  options.max_levels = 2;
  LsmStore store{options};
  for (const std::string key : {"a", "b"}) {
    store.put(key, "v");
    store.flush();
    store.erase(key);
    store.flush();  // level 0 merges into a run holding just the tombstone
  }
  // The second such run made level 1, the last, merge. Nothing older can
  // exist there, so both tombstones drop and no run is left.
  ASSERT_EQ(store.level_count(), 2u);
  EXPECT_EQ(store.runs_in_level(0), 0u);
  EXPECT_EQ(store.runs_in_level(1), 0u);
  EXPECT_EQ(store.size(), 0u);
}

/// find() is the one point lookup and get() copies its answer: wherever a
/// key is found or not, both give the same answer and move the lookup
/// counters by the same amounts.
TEST(Lsm, FindAgreesWithGet) {
  LsmStore store;  // default options: nothing flushes or compacts unasked
  store.put("old", "in the older run");
  store.put("shadowed", "under a newer tombstone");
  store.flush();
  store.put("new", "in the newest run");
  store.erase("shadowed");
  store.flush();
  store.put("mem", "in the memtable");
  store.put("mem-deleted", "erased in the memtable");
  store.erase("mem-deleted");
  ASSERT_EQ(store.runs_in_level(0), 2u);

  struct Case {
    const char* key;
    std::optional<std::string> want;
  };
  const Case cases[] = {{"mem", "in the memtable"},
                        {"mem-deleted", std::nullopt},
                        {"new", "in the newest run"},
                        {"old", "in the older run"},
                        {"shadowed", std::nullopt},
                        {"absent", std::nullopt}};
  for (const Case& c : cases) {
    const LsmStats s0 = store.stats();
    const std::optional<std::string_view> found = store.find(c.key);
    const LsmStats s1 = store.stats();
    const std::optional<std::string> got = store.get(c.key);
    const LsmStats s2 = store.stats();
    EXPECT_EQ(got, c.want) << c.key;
    ASSERT_EQ(found.has_value(), got.has_value()) << c.key;
    if (found) {
      EXPECT_EQ(*found, *got) << c.key;
    }
    EXPECT_EQ(s1.gets - s0.gets, 1u) << c.key;
    EXPECT_EQ(s2.gets - s1.gets, 1u) << c.key;
    EXPECT_EQ(s1.sstable_probes - s0.sstable_probes,
              s2.sstable_probes - s1.sstable_probes)
        << c.key;
    EXPECT_EQ(s1.bloom_skips - s0.bloom_skips, s2.bloom_skips - s1.bloom_skips)
        << c.key;
  }
  // "absent" is a bloom-negative miss: both runs' filters rule it out.
  const LsmStats before = store.stats();
  EXPECT_FALSE(store.find("absent").has_value());
  EXPECT_EQ(store.stats().bloom_skips - before.bloom_skips, 2u);
  EXPECT_EQ(store.stats().sstable_probes, before.sstable_probes);
}

TEST(Lsm, BloomFiltersSkipProbesOnMisses) {
  LsmStore store{tiny()};
  for (int i = 0; i < 300; ++i) {
    store.put("present" + std::to_string(i), "v");
  }
  store.flush();
  for (int i = 0; i < 300; ++i) {
    (void)store.get("absent" + std::to_string(i));
  }
  EXPECT_GT(store.stats().bloom_skips, store.stats().sstable_probes);
}

TEST(Lsm, BloomCountersExportThroughObs) {
  auto& registry = obs::Registry::global();
  registry.reset_for_test();
  obs::set_enabled(true);
  LsmStore store{tiny()};
  for (int i = 0; i < 300; ++i) {
    store.put("present" + std::to_string(i), "v");
  }
  store.flush();
  const auto negatives_before =
      registry.counter("storage.bloom_negatives").value();
  for (int i = 0; i < 300; ++i) {
    (void)store.get("absent" + std::to_string(i));
  }
  obs::set_enabled(false);
  // Negative lookups are ruled out by the filters: the negative counter
  // moves, and it mirrors the store's own skip statistic.
  const auto negatives = registry.counter("storage.bloom_negatives").value();
  EXPECT_GT(negatives, negatives_before);
  EXPECT_EQ(negatives, store.stats().bloom_skips);
  EXPECT_EQ(registry.counter("storage.bloom_hits").value(),
            store.stats().sstable_probes);
  registry.reset_for_test();
}

/// The model's answer to scan(lo, hi).
std::vector<std::pair<std::string, std::string>> model_scan(
    const std::map<std::string, std::string>& model, const std::string& lo,
    const std::string& hi) {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = model.lower_bound(lo);
       it != model.end() && (hi.empty() || it->first < hi); ++it) {
    out.emplace_back(*it);
  }
  return out;
}

TEST(Lsm, MatchesStdMapUnderRandomWorkload) {
  sim::Rng rng{2016};
  LsmStore store{tiny()};
  std::map<std::string, std::string> reference;
  const auto random_key = [&rng] {
    return "k" + std::to_string(rng.uniform_index(200));
  };
  for (int op = 0; op < 5000; ++op) {
    const std::string key = random_key();
    const double dice = rng.uniform();
    if (dice < 0.55) {
      const std::string value = "v" + std::to_string(rng());
      store.put(key, value);
      reference[key] = value;
    } else if (dice < 0.75) {
      store.erase(key);
      reference.erase(key);
    } else {
      const auto got = store.get(key);
      const auto expected = reference.find(key);
      if (expected == reference.end()) {
        EXPECT_FALSE(got.has_value()) << key << " at op " << op;
      } else {
        ASSERT_TRUE(got.has_value()) << key << " at op " << op;
        EXPECT_EQ(*got, expected->second) << key << " at op " << op;
      }
    }
    if (op % 250 == 249) {
      // A random range (inverted, empty or unbounded ones included) through
      // the merge of memtable and every level.
      const std::string lo = rng.chance(0.1) ? "" : random_key();
      const std::string hi = rng.chance(0.1) ? "" : random_key();
      EXPECT_EQ(store.scan(lo, hi), model_scan(reference, lo, hi))
          << "[" << lo << ", " << hi << ") at op " << op;
      EXPECT_EQ(store.size(), reference.size()) << "at op " << op;
    }
  }
  // Compactions cascaded down to the last level, where tombstones drop.
  EXPECT_EQ(store.level_count(), tiny().max_levels);
  EXPECT_EQ(store.scan("", ""), model_scan(reference, "", ""));
}

TEST(Lsm, SizeCountsLiveKeysOnly) {
  LsmStore store{tiny()};
  store.put("a", "1");
  store.put("b", "2");
  store.erase("a");
  EXPECT_EQ(store.size(), 1u);
}

TEST(Lsm, RejectsBadOptions) {
  LsmOptions bad;
  bad.memtable_bytes = 0;
  EXPECT_THROW(LsmStore{bad}, std::invalid_argument);
  bad = LsmOptions{};
  bad.runs_per_level = 1;
  EXPECT_THROW(LsmStore{bad}, std::invalid_argument);
}

TEST(Lsm, OptionsErrorsAreTypedAndNameTheField) {
  LsmOptions bad;
  bad.memtable_bytes = 0;
  try {
    bad.validate();
    FAIL() << "expected LsmOptionsError";
  } catch (const LsmOptionsError& e) {
    EXPECT_EQ(e.field(), "memtable_bytes");
    EXPECT_NE(std::string{e.what()}.find("LsmOptions.memtable_bytes"),
              std::string::npos);
  }

  bad = LsmOptions{};
  bad.runs_per_level = 1;  // a single-run level could never merge
  try {
    bad.validate();
    FAIL() << "expected LsmOptionsError";
  } catch (const LsmOptionsError& e) {
    EXPECT_EQ(e.field(), "runs_per_level");
  }

  bad = LsmOptions{};
  bad.max_levels = 0;  // nowhere to flush to
  try {
    LsmStore store{bad};
    FAIL() << "expected LsmOptionsError";
  } catch (const LsmOptionsError& e) {
    EXPECT_EQ(e.field(), "max_levels");
  }

  EXPECT_NO_THROW(LsmOptions{}.validate());
}

TEST(Lsm, ScanTombstoneShadowsLowerLevelMidRange) {
  LsmStore store{tiny()};
  store.put("a", "1");
  store.put("m", "mid");
  store.put("z", "9");
  store.flush();  // values now in a run
  store.erase("m");
  store.flush();  // tombstone in a *newer* run above the value
  const auto all = store.scan("a", "zz");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "z");
  // The shadow holds when the tombstone is still in the memtable too.
  store.put("m", "back");
  store.flush();
  store.erase("m");
  EXPECT_EQ(store.scan("a", "zz").size(), 2u);
}

TEST(Lsm, ScanEmptyAndDegenerateRanges) {
  LsmStore store{tiny()};
  store.put("b", "2");
  store.put("c", "3");
  store.flush();
  EXPECT_TRUE(store.scan("b", "b").empty());  // lo == hi: empty [b, b)
  EXPECT_TRUE(store.scan("x", "a").empty());  // inverted range
  EXPECT_TRUE(LsmStore{tiny()}.scan("", "").empty());  // empty store
  const auto from_lo = store.scan("b", "");
  ASSERT_EQ(from_lo.size(), 2u);  // empty hi = unbounded
  EXPECT_EQ(from_lo[0].first, "b");
}

TEST(Lsm, ScanSeesWritesAcrossFlushBoundary) {
  LsmStore store{tiny()};
  store.put("a", "old");
  store.put("b", "keep");
  store.flush();
  store.put("a", "new");   // overwrites the flushed version
  store.put("c", "fresh"); // memtable-only
  const auto all = store.scan("", "");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], (std::pair<std::string, std::string>{"a", "new"}));
  EXPECT_EQ(all[1], (std::pair<std::string, std::string>{"b", "keep"}));
  EXPECT_EQ(all[2], (std::pair<std::string, std::string>{"c", "fresh"}));
}

TEST(Lsm, BloomSkipStatsSurviveCompaction) {
  LsmStore store{tiny()};
  for (int i = 0; i < 100; ++i)
    store.put("present" + std::to_string(i), std::string(24, 'v'));
  store.flush();
  for (int i = 0; i < 200; ++i)
    (void)store.get("absent" + std::to_string(i));
  const auto skips_before = store.stats().bloom_skips;
  EXPECT_GT(skips_before, 0u);
  // Force more flushes until a compaction destroys the probed runs. The
  // accumulated skip statistic must not be lost with them (stats() is the
  // single source of truth; runs keep no counters of their own).
  const auto compactions_before = store.stats().compactions;
  for (int i = 0; i < 200; ++i)
    store.put("filler" + std::to_string(i), std::string(24, 'f'));
  EXPECT_GT(store.stats().compactions, compactions_before);
  EXPECT_GE(store.stats().bloom_skips, skips_before);
}

/// Memtable-size sweep: semantics must not depend on flush cadence.
class FlushCadenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlushCadenceTest, SameAnswersAtEveryCadence) {
  LsmOptions options;
  options.memtable_bytes = GetParam();
  LsmStore store{options};
  std::map<std::string, std::string> reference;
  sim::Rng rng{GetParam()};
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_index(64));
    if (rng.chance(0.8)) {
      store.put(key, "v" + std::to_string(i));
      reference[key] = "v" + std::to_string(i);
    } else {
      store.erase(key);
      reference.erase(key);
    }
  }
  EXPECT_EQ(store.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_TRUE(store.get(key).has_value()) << key;
    EXPECT_EQ(*store.get(key), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Cadences, FlushCadenceTest,
                         ::testing::Values(64, 256, 1024, 1 << 20));

}  // namespace
}  // namespace rb::storage
