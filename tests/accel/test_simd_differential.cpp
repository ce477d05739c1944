// Differential suite for the runtime-dispatched SIMD kernel layer: every
// kernel in accel/simd is fuzz-compared against its scalar twin across
// randomized inputs, odd tail lengths (n % lane-width != 0), empty/full
// selections, int64 boundaries, HashTable64 keys 0 and 2^63, and f64
// inputs holding +inf, +0.0, ties, subnormal and huge values — under every
// ISA level this CPU/build can reach via set_isa(). The scalar table is
// the oracle; any divergence is a kernel bug, not a tolerance issue.

#include "accel/simd/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "accel/hash_table.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "sim/random.hpp"

namespace rb::accel::simd {
namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
constexpr double kHuge = std::numeric_limits<double>::max();

/// Sizes straddling every lane-width boundary (AVX2 selects run 8 lanes,
/// AVX-512 runs 16/32-row blocks, NEON runs 2) plus ragged tails.
const std::vector<std::size_t> kSizes{0,  1,  2,  3,  7,   8,   9,   15, 16,
                                      17, 31, 32, 33, 63,  64,  65,  100,
                                      127, 128, 129, 255, 256, 257, 1000};

std::vector<std::int64_t> random_values(std::size_t n, std::uint64_t seed,
                                        std::int64_t span) {
  sim::Rng rng{seed};
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng() % (2 * span)) - span;
  }
  return v;
}

TEST(SimdDifferential, SelectBetweenMatchesScalar) {
  IsaGuard guard;
  const auto& scalar = scalar_kernels();
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    const auto& k = kernels();
    for (const std::size_t n : kSizes) {
      const auto values = random_values(n, 17 + n, 1000);
      std::vector<std::uint32_t> expect(n + 1, 0xDEAD0001);
      std::vector<std::uint32_t> got(n + 1, 0xDEAD0002);
      // Bounds sweep: mid-range, inverted (empty), degenerate, universal.
      const std::pair<std::int64_t, std::int64_t> bounds[] = {
          {-250, 250}, {250, -250}, {0, 0},          {-3, -2},
          {kI64Min, kI64Max}, {kI64Max, kI64Max},    {kI64Min, kI64Min},
      };
      for (const auto& [lo, hi] : bounds) {
        const std::size_t em =
            scalar.select_between(values.data(), n, lo, hi, expect.data());
        const std::size_t gm =
            k.select_between(values.data(), n, lo, hi, got.data());
        ASSERT_EQ(gm, em) << to_string(isa) << " n=" << n << " lo=" << lo
                          << " hi=" << hi;
        for (std::size_t i = 0; i < em; ++i) {
          ASSERT_EQ(got[i], expect[i])
              << to_string(isa) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdDifferential, SelectBetweenEmptyAndFull) {
  IsaGuard guard;
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    const auto& k = kernels();
    for (const std::size_t n : kSizes) {
      std::vector<std::int64_t> values(n, 5);
      std::vector<std::uint32_t> out(n + 1);
      // Full: every row matches; indices must be the identity permutation.
      ASSERT_EQ(k.select_between(values.data(), n, 5, 6, out.data()), n);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i);
      // Empty: hi is exclusive, so [5, 5) matches nothing.
      EXPECT_EQ(k.select_between(values.data(), n, 5, 5, out.data()), 0u);
      // Inverted bounds are a legal no-match call, not UB.
      EXPECT_EQ(k.select_between(values.data(), n, 6, 5, out.data()), 0u);
    }
  }
}

TEST(SimdDifferential, SelectBetweenInt64Boundaries) {
  IsaGuard guard;
  const auto& scalar = scalar_kernels();
  // Values sitting exactly on the extremes exercise the unsigned-range
  // rewrite in the AVX-512 kernel ((u64)(v - lo) < (u64)(hi - lo)).
  const std::vector<std::int64_t> values{
      kI64Min, kI64Min + 1, -1, 0, 1, kI64Max - 1, kI64Max,
      kI64Min, kI64Max,     0,  7, -7, kI64Max,    kI64Min + 2,
      42,      -42,         kI64Max - 2};
  const std::pair<std::int64_t, std::int64_t> bounds[] = {
      {kI64Min, 0},        {0, kI64Max},      {kI64Min, kI64Max},
      {kI64Min + 1, kI64Max}, {kI64Max - 1, kI64Max}, {-1, 2},
  };
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    const auto& k = kernels();
    std::vector<std::uint32_t> expect(values.size());
    std::vector<std::uint32_t> got(values.size());
    for (const auto& [lo, hi] : bounds) {
      const std::size_t em = scalar.select_between(
          values.data(), values.size(), lo, hi, expect.data());
      const std::size_t gm =
          k.select_between(values.data(), values.size(), lo, hi, got.data());
      ASSERT_EQ(gm, em) << to_string(isa) << " lo=" << lo << " hi=" << hi;
      for (std::size_t i = 0; i < em; ++i) ASSERT_EQ(got[i], expect[i]);
    }
  }
}

TEST(SimdDifferential, SelectGreaterAndLessMatchScalar) {
  IsaGuard guard;
  const auto& scalar = scalar_kernels();
  const std::int64_t thresholds[] = {kI64Min, -500, -1, 0, 1, 500, kI64Max};
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    const auto& k = kernels();
    for (const std::size_t n : kSizes) {
      const auto values = random_values(n, 313 + n, 600);
      std::vector<std::uint32_t> expect(n + 1);
      std::vector<std::uint32_t> got(n + 1);
      for (const std::int64_t t : thresholds) {
        std::size_t em = scalar.select_greater(values.data(), n, t, expect.data());
        std::size_t gm = k.select_greater(values.data(), n, t, got.data());
        ASSERT_EQ(gm, em) << to_string(isa) << " greater n=" << n << " t=" << t;
        for (std::size_t i = 0; i < em; ++i) ASSERT_EQ(got[i], expect[i]);
        em = scalar.select_less(values.data(), n, t, expect.data());
        gm = k.select_less(values.data(), n, t, got.data());
        ASSERT_EQ(gm, em) << to_string(isa) << " less n=" << n << " t=" << t;
        for (std::size_t i = 0; i < em; ++i) ASSERT_EQ(got[i], expect[i]);
      }
    }
  }
}

/// Non-negative doubles shaped like the max-min solver's shares: +inf in
/// about a quarter of the slots, a small pool of values (+0.0, subnormal,
/// huge) so that ties are common, and spread link-rate-sized shares.
std::vector<double> random_shares(std::size_t n, std::uint64_t seed) {
  const double pool[] = {0.0, kSubnormal, 2 * kSubnormal, 1.0, 1.25e9,
                         1.25e9, kHuge / 2, kHuge};
  sim::Rng rng{seed};
  std::vector<double> v(n);
  for (auto& x : v) {
    const std::uint64_t roll = rng.uniform_index(8);
    if (roll < 2) {
      x = kInf;
    } else if (roll < 5) {
      x = pool[rng.uniform_index(std::size(pool))];
    } else {
      x = 1e9 / static_cast<double>(1 + rng.uniform_index(64));
    }
  }
  return v;
}

/// Bitwise equality, so a kernel that returned another zero or NaN fails.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(SimdDifferential, MinF64MatchesScalar) {
  IsaGuard guard;
  const auto& scalar = scalar_kernels();
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    const auto& k = kernels();
    for (const std::size_t n : kSizes) {
      // All +inf (and n == 0): the minimum is +inf.
      const std::vector<double> saturated(n, kInf);
      ASSERT_EQ(bits(k.min_f64(saturated.data(), n)), bits(kInf))
          << to_string(isa) << " n=" << n;
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto values = random_shares(n, 1000 * seed + n);
        ASSERT_EQ(bits(k.min_f64(values.data(), n)),
                  bits(scalar.min_f64(values.data(), n)))
            << to_string(isa) << " n=" << n << " seed=" << seed;
      }
      // The minimum at every position, among +inf and the largest finite
      // double; the minima include subnormal, +0.0 and huge values.
      const double minima[] = {1.0, kSubnormal, 0.0, kHuge / 2};
      for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
          values[i] = i % 3 == 0 ? kInf : kHuge;
        }
        values[j] = minima[j % std::size(minima)];
        ASSERT_EQ(bits(k.min_f64(values.data(), n)), bits(values[j]))
            << to_string(isa) << " n=" << n << " j=" << j;
      }
    }
  }
}

TEST(SimdDifferential, FirstLeF64MatchesScalar) {
  IsaGuard guard;
  const auto& scalar = scalar_kernels();
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    const auto& k = kernels();
    for (const std::size_t n : kSizes) {
      // All +inf: no finite threshold matches.
      const std::vector<double> saturated(n, kInf);
      for (const double t : {0.0, kSubnormal, 1.0, kHuge}) {
        ASSERT_EQ(k.first_le_f64(saturated.data(), n, t), n)
            << to_string(isa) << " n=" << n << " t=" << t;
      }
      // Random shares against thresholds equal to +0.0, to elements (with
      // ties elsewhere in the array), and between elements.
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto values = random_shares(n, 7000 * seed + n);
        std::vector<double> thresholds{0.0, kSubnormal, 1e9 / 50, 1.25e9,
                                       kHuge};
        if (n > 0) {
          thresholds.push_back(values[n / 2]);
          thresholds.push_back(values[n - 1]);
          thresholds.push_back(scalar.min_f64(values.data(), n));
        }
        for (const double t : thresholds) {
          if (t == kInf) continue;
          for (std::size_t from = 0; from <= n; from += 1 + n / 4) {
            ASSERT_EQ(k.first_le_f64(values.data() + from, n - from, t),
                      scalar.first_le_f64(values.data() + from, n - from, t))
                << to_string(isa) << " n=" << n << " from=" << from
                << " t=" << t;
          }
        }
      }
      // The only match at every position: each lane of the first vector,
      // every block, and the tail. The threshold equals the element.
      const double matches[] = {1.0, 0.0, kSubnormal, kHuge / 2};
      for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
          values[i] = i % 2 == 0 ? kInf : kHuge;
        }
        const double t = matches[j % std::size(matches)];
        values[j] = t;
        ASSERT_EQ(k.first_le_f64(values.data(), n, t), j)
            << to_string(isa) << " n=" << n << " j=" << j;
        // A tie after the match does not move it; below every element,
        // nothing matches.
        if (j + 1 < n) values[n - 1] = t;
        ASSERT_EQ(k.first_le_f64(values.data(), n, t), j)
            << to_string(isa) << " n=" << n << " tie j=" << j;
        if (t > 0.0) {
          ASSERT_EQ(k.first_le_f64(values.data(), n, 0.0), n)
              << to_string(isa) << " n=" << n << " below j=" << j;
        }
      }
    }
  }
}

TEST(SimdDifferential, HashFindBatchMatchesScalarFind) {
  IsaGuard guard;
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    for (const std::size_t build_n : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}, std::size_t{100},
                                      std::size_t{1000}}) {
      HashTable64 table{build_n};
      sim::Rng rng{77 + build_n};
      std::vector<std::uint64_t> built;
      for (std::size_t i = 0; i < build_n; ++i) {
        const std::uint64_t key = rng() % (build_n * 2 + 1);
        table.upsert(key, key * 3 + 1, [](std::uint64_t, std::uint64_t b) {
          return b;
        });
        built.push_back(key);
      }
      constexpr std::uint64_t kTopBit = 0x8000'0000'0000'0000ULL;
      if (build_n > 0) {
        // Key 0 lives out of band; key 2^63 is an ordinary slot key.
        for (const std::uint64_t key : {std::uint64_t{0}, kTopBit}) {
          table.upsert(key, 999 + key,
                       [](std::uint64_t, std::uint64_t b) { return b; });
          built.push_back(key);
        }
      }
      // Probe a mix of present and absent keys, including 0 and 2^63, at
      // ragged batch sizes.
      std::vector<std::uint64_t> probes = built;
      for (std::size_t i = 0; i < build_n + 17; ++i) {
        probes.push_back(rng() % (build_n * 4 + 7));
      }
      probes.push_back(0);
      probes.push_back(kTopBit);
      std::vector<std::uint64_t> values(probes.size(), 0xAA);
      std::vector<std::uint8_t> found(probes.size(), 0xBB);
      table.find_batch(probes.data(), probes.size(), values.data(),
                       found.data());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        const std::uint64_t* ref = table.find(probes[i]);
        ASSERT_EQ(found[i] != 0, ref != nullptr)
            << to_string(isa) << " build_n=" << build_n << " key="
            << probes[i];
        ASSERT_EQ(values[i], ref != nullptr ? *ref : 0u)
            << to_string(isa) << " build_n=" << build_n << " key="
            << probes[i];
      }
    }
  }
}

TEST(SimdDifferential, CrossIsaQueryByteIdentity) {
  IsaGuard guard;
  // Join -> range filter -> group-aggregate -> top-k through the
  // vectorized engine must produce byte-identical tables on every ISA
  // (the operators hit select_between, hash_find_batch, and the sift).
  sim::Rng rng{2026};
  query::Table orders, items;
  std::vector<std::int64_t> oid, cust, lid, amount;
  for (std::int64_t i = 0; i < 500; ++i) {
    oid.push_back(i);
    cust.push_back(static_cast<std::int64_t>(rng() % 40));
  }
  for (std::int64_t i = 0; i < 2500; ++i) {
    lid.push_back(static_cast<std::int64_t>(rng() % 600));  // misses
    amount.push_back(static_cast<std::int64_t>(rng() % 50'000));
  }
  orders.add_int_column("order_id", std::move(oid));
  orders.add_int_column("customer", std::move(cust));
  items.add_int_column("order_id", std::move(lid));
  items.add_int_column("amount", std::move(amount));

  const auto plan =
      query::exec::PlanBuilder(items)
          .join(orders, "order_id", "order_id")
          .filter_between("amount", 10'000, 40'000)
          .group_by("customer", query::Aggregate::kSum, "amount", "revenue")
          .order_by("revenue", true)
          .limit(7)
          .build();
  const auto run = [&plan](std::size_t batch) {
    query::exec::ExecOptions opts;
    opts.batch_size = batch;
    return plan.run(opts);
  };

  ASSERT_TRUE(set_isa(Isa::kScalar));
  const query::Table reference = run(256);
  const std::vector<std::int64_t> ref_rev = reference.ints("revenue");
  const std::vector<std::int64_t> ref_cust = reference.ints("customer");
  for (const Isa isa : reachable_isas()) {
    ASSERT_TRUE(set_isa(isa));
    for (const std::size_t batch : {std::size_t{64}, std::size_t{256},
                                    std::size_t{1024}}) {
      const query::Table got = run(batch);
      EXPECT_EQ(got.ints("revenue"), ref_rev)
          << to_string(isa) << " batch=" << batch;
      EXPECT_EQ(got.ints("customer"), ref_cust)
          << to_string(isa) << " batch=" << batch;
    }
  }
}

TEST(SimdDifferential, SetIsaRejectsUnsupported) {
  IsaGuard guard;
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (!supported(isa)) {
      EXPECT_FALSE(set_isa(isa)) << to_string(isa);
    } else {
      EXPECT_TRUE(set_isa(isa)) << to_string(isa);
      EXPECT_EQ(active_isa(), isa);
    }
  }
  EXPECT_TRUE(set_isa(Isa::kScalar));
  EXPECT_EQ(active_isa(), Isa::kScalar);
  EXPECT_EQ(kernels().isa, Isa::kScalar);
}

TEST(SimdDifferential, BestSupportedIsReachable) {
  IsaGuard guard;
  const Isa best = best_supported();
  EXPECT_TRUE(supported(best));
  EXPECT_TRUE(set_isa(best));
  EXPECT_EQ(active_isa(), best);
}

}  // namespace
}  // namespace rb::accel::simd
