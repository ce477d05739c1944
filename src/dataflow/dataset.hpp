#pragma once
// Partitioned, multithreaded dataset — the working analogue of the
// MapReduce/Spark/Flink collections the roadmap discusses (Sec IV.C).
//
// A Dataset<T> is a set of partitions executed in parallel on a ThreadPool.
// Narrow operators (map/filter) run partition-local; the wide operators
// (reduce_by_key, join) perform a hash-partitioned shuffle, exactly the
// structure whose network cost the fabric simulator studies at the cluster
// level. Grouping and aggregation over columns belong to the query engine
// (exec::GroupAggregate). Execution is eager; metrics (rows and bytes
// shuffled) accumulate in the Context so benches can report them.

#include <atomic>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/hash.hpp"

namespace rb::dataflow {

namespace detail {

inline obs::Counter& shuffled_rows_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("dataflow.rows_shuffled");
  return c;
}
inline obs::Counter& shuffled_bytes_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("dataflow.bytes_shuffled");
  return c;
}

}  // namespace detail

/// Execution context shared by all datasets of one pipeline: the pool,
/// the default partition count, and shuffle metrics.
class Context {
 public:
  explicit Context(std::size_t partitions = 0, ThreadPool* pool = nullptr)
      : pool_{pool != nullptr ? pool : &default_pool()},
        partitions_{partitions != 0 ? partitions : pool_->size()} {}

  ThreadPool& pool() const noexcept { return *pool_; }
  std::size_t partitions() const noexcept { return partitions_; }

  void note_shuffled_rows(std::uint64_t rows) noexcept {
    shuffled_rows_ += rows;
    if (obs::enabled()) detail::shuffled_rows_counter().add(rows);
  }
  std::uint64_t shuffled_rows() const noexcept { return shuffled_rows_; }

  /// In-memory footprint of shuffled rows (rows * sizeof(pair)); feeds the
  /// `dataflow.bytes_shuffled` counter when observability is on.
  void note_shuffled_bytes(std::uint64_t bytes) noexcept {
    shuffled_bytes_ += bytes;
    if (obs::enabled()) detail::shuffled_bytes_counter().add(bytes);
  }
  std::uint64_t shuffled_bytes() const noexcept { return shuffled_bytes_; }

 private:
  ThreadPool* pool_;
  std::size_t partitions_;
  std::atomic<std::uint64_t> shuffled_rows_{0};
  std::atomic<std::uint64_t> shuffled_bytes_{0};
};

namespace detail {

/// Key hash used for shuffles; mixes std::hash output so sequential integer
/// keys spread across partitions.
template <typename K>
std::size_t shuffle_hash(const K& key) {
  return static_cast<std::size_t>(
      sim::mix64(static_cast<std::uint64_t>(std::hash<K>{}(key))));
}

}  // namespace detail

template <typename T>
class Dataset {
 public:
  using value_type = T;

  Dataset(Context& ctx, std::vector<std::vector<T>> partitions)
      : ctx_{&ctx}, partitions_{std::move(partitions)} {
    if (partitions_.empty())
      throw std::invalid_argument{"Dataset: need at least one partition"};
  }

  /// Split `values` round-robin into the context's partition count.
  static Dataset from_vector(Context& ctx, std::vector<T> values) {
    const std::size_t p = ctx.partitions();
    std::vector<std::vector<T>> parts(p);
    for (auto& part : parts) part.reserve(values.size() / p + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i % p].push_back(std::move(values[i]));
    }
    return Dataset{ctx, std::move(parts)};
  }

  std::size_t partition_count() const noexcept { return partitions_.size(); }

  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& p : partitions_) n += p.size();
    return n;
  }

  /// --- Narrow (partition-local, parallel) operators ---

  template <typename F, typename R = std::invoke_result_t<F, const T&>>
  Dataset<R> map(F fn) const {
    std::vector<std::vector<R>> out(partitions_.size());
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      out[i].reserve(partitions_[i].size());
      for (const auto& v : partitions_[i]) out[i].push_back(fn(v));
    });
    return Dataset<R>{*ctx_, std::move(out)};
  }

  template <typename Pred>
  Dataset filter(Pred pred) const {
    std::vector<std::vector<T>> out(partitions_.size());
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      for (const auto& v : partitions_[i]) {
        if (pred(v)) out[i].push_back(v);
      }
    });
    return Dataset{*ctx_, std::move(out)};
  }

  /// --- Actions ---

  std::vector<T> collect() const {
    std::vector<T> out;
    out.reserve(size());
    for (const auto& p : partitions_) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  /// Parallel fold: fn(Acc, const T&) -> Acc per partition, then
  /// merge(Acc, Acc) -> Acc across partitions (associative).
  template <typename Acc, typename F, typename M>
  Acc fold(Acc init, F fn, M merge) const {
    std::vector<Acc> partials(partitions_.size(), init);
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      for (const auto& v : partitions_[i]) {
        partials[i] = fn(std::move(partials[i]), v);
      }
    });
    Acc acc = std::move(init);
    for (auto& p : partials) acc = merge(std::move(acc), std::move(p));
    return acc;
  }

  const std::vector<T>& partition(std::size_t i) const {
    return partitions_.at(i);
  }

  Context& context() const noexcept { return *ctx_; }

 private:
  Context* ctx_;
  std::vector<std::vector<T>> partitions_;
};

/// --- Wide (shuffle) operators on pair datasets ---

/// Hash-partition each input partition's pairs into P buckets by key.
/// Returns buckets[input][target]. join shuffles both sides through it;
/// reduce_by_key shuffles its map-side-combined pairs instead.
template <typename K, typename V>
std::vector<std::vector<std::vector<std::pair<K, V>>>> shuffle_buckets(
    const Dataset<std::pair<K, V>>& in) {
  Context& ctx = in.context();
  const std::size_t p = in.partition_count();
  std::vector<std::vector<std::vector<std::pair<K, V>>>> buckets(
      p, std::vector<std::vector<std::pair<K, V>>>(p));
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    for (const auto& kv : in.partition(i)) {
      buckets[i][detail::shuffle_hash(kv.first) % p].push_back(kv);
    }
    ctx.note_shuffled_rows(in.partition(i).size());
    ctx.note_shuffled_bytes(in.partition(i).size() * sizeof(std::pair<K, V>));
  });
  return buckets;
}

/// Combine values per key with `combine(V, V) -> V`, with map-side partial
/// aggregation (the classic MapReduce combiner) before the shuffle.
template <typename K, typename V, typename F>
Dataset<std::pair<K, V>> reduce_by_key(const Dataset<std::pair<K, V>>& in,
                                       F combine) {
  const obs::WallSpan span{"dataflow.stage", "reduce_by_key"};
  Context& ctx = in.context();
  const std::size_t p = in.partition_count();

  // Map-side combine.
  std::vector<std::unordered_map<K, V>> local(p);
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    auto& m = local[i];
    m.reserve(in.partition(i).size());
    for (const auto& [k, v] : in.partition(i)) {
      auto [it, inserted] = m.try_emplace(k, v);
      if (!inserted) it->second = combine(it->second, v);
    }
  });

  // Shuffle combined pairs.
  std::vector<std::vector<std::vector<std::pair<K, V>>>> buckets(
      p, std::vector<std::vector<std::pair<K, V>>>(p));
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    for (auto& kv : local[i]) {
      buckets[i][detail::shuffle_hash(kv.first) % p].emplace_back(
          kv.first, std::move(kv.second));
    }
    ctx.note_shuffled_rows(local[i].size());
    ctx.note_shuffled_bytes(local[i].size() * sizeof(std::pair<K, V>));
  });

  // Reduce side.
  std::vector<std::vector<std::pair<K, V>>> out(p);
  ctx.pool().parallel_for(p, [&](std::size_t t) {
    std::unordered_map<K, V> m;
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, v] : buckets[i][t]) {
        auto [it, inserted] = m.try_emplace(k, std::move(v));
        if (!inserted) it->second = combine(it->second, v);
      }
    }
    out[t].reserve(m.size());
    for (auto& kv : m) out[t].emplace_back(kv.first, std::move(kv.second));
  });
  return Dataset<std::pair<K, V>>{ctx, std::move(out)};
}

/// Inner hash join of two pair datasets on their keys.
template <typename K, typename A, typename B>
Dataset<std::pair<K, std::pair<A, B>>> join(const Dataset<std::pair<K, A>>& lhs,
                                            const Dataset<std::pair<K, B>>& rhs) {
  const obs::WallSpan span{"dataflow.stage", "join"};
  Context& ctx = lhs.context();
  if (lhs.partition_count() != rhs.partition_count())
    throw std::invalid_argument{"join: partition counts differ"};
  const std::size_t p = lhs.partition_count();
  auto lbuckets = shuffle_buckets(lhs);
  auto rbuckets = shuffle_buckets(rhs);

  std::vector<std::vector<std::pair<K, std::pair<A, B>>>> out(p);
  ctx.pool().parallel_for(p, [&](std::size_t t) {
    std::unordered_multimap<K, A> build;
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, a] : lbuckets[i][t]) build.emplace(k, std::move(a));
    }
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, b] : rbuckets[i][t]) {
        auto [lo, hi] = build.equal_range(k);
        for (auto it = lo; it != hi; ++it) {
          out[t].emplace_back(k, std::make_pair(it->second, b));
        }
      }
    }
  });
  return Dataset<std::pair<K, std::pair<A, B>>>{ctx, std::move(out)};
}

}  // namespace rb::dataflow
