#include "query/exec/operators.hpp"

#include <algorithm>
#include <stdexcept>

#include "accel/simd/simd.hpp"

namespace rb::query::exec {

namespace {

/// next_ value of a key's last build row in the hash join.
constexpr std::uint32_t kChainEnd = UINT32_MAX;

/// Capacity of a row buffer whose final size is unknown: it reserves
/// nothing up front and grows as rows arrive.
constexpr std::size_t kGrowingBuffer = 1;

/// Per-kernel SIMD row counter (obs::enabled() checked by callers).
obs::Counter* simd_rows_counter(const char* kernel) {
  return &obs::Registry::global().counter("accel.simd_rows",
                                          {{"kernel", kernel}});
}

/// Stage `batch`'s active rows for one find_batch call: rows[i] is the
/// i-th active row and keys[i] its code(row), written by index into
/// buffers resized once per batch. Returns the active row count.
template <typename Code>
std::size_t stage_active(const ColumnBatch& batch,
                         std::vector<std::uint32_t>& rows,
                         std::vector<std::uint64_t>& keys, Code code) {
  const std::size_t n = batch.active_count();
  rows.resize(n);
  keys.resize(n);
  std::size_t i = 0;
  batch.for_each_active([&](std::uint32_t r) {
    rows[i] = r;
    keys[i] = code(r);
    ++i;
  });
  return n;
}

/// dst = (src[rows[0]], ..., src[rows[n - 1]]).
template <typename T>
void gather(std::vector<T>& dst, const std::vector<T>& src,
            const std::uint32_t* rows, std::size_t n) {
  dst.resize(n);
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[rows[i]];
}

}  // namespace

/// --- Operator base -------------------------------------------------------

void Operator::resolve_counters() {
  auto& reg = obs::Registry::global();
  const obs::Labels labels{{"op", name_}};
  c_rows_in_ = &reg.counter("query.rows_in", labels);
  c_rows_out_ = &reg.counter("query.rows_out", labels);
  c_batches_ = &reg.counter("query.batches", labels);
}

void Operator::publish_in(std::uint64_t rows) {
  if (c_rows_in_ == nullptr) resolve_counters();
  c_rows_in_->add(rows);
  c_batches_->add(1);
}

void Operator::publish_out(std::uint64_t rows) {
  if (c_rows_out_ == nullptr) resolve_counters();
  c_rows_out_->add(rows);
}

void Operator::count_build_rows(std::uint64_t n) {
  stats_.build_rows += n;
  if (obs::enabled()) {
    if (c_build_ == nullptr) {
      c_build_ = &obs::Registry::global().counter("query.build_rows",
                                                  {{"op", name_}});
    }
    c_build_->add(n);
  }
}

void Operator::emit_rows(const ColumnBatch& rows,
                         const std::vector<std::uint32_t>& order,
                         std::size_t batch_capacity) {
  ColumnBatch out{out_schema_, batch_capacity};
  for (std::size_t start = 0; start < order.size(); start += batch_capacity) {
    const std::size_t n = std::min(batch_capacity, order.size() - start);
    out.append_rows(rows, order.data() + start, n);
    emit(out);
    out.clear();
  }
}

/// --- TableSource ---------------------------------------------------------

TableSource::TableSource(const Table* table)
    : table_{table},
      schema_{std::make_shared<const BatchSchema>(BatchSchema::of(*table))} {
  for (const auto& c : schema_->columns()) {
    if (c.type == ColumnType::kInt) {
      int_cols_.push_back(&table_->ints(c.name));
      str_cols_.push_back(nullptr);
    } else {
      int_cols_.push_back(nullptr);
      str_cols_.push_back(&table_->strings(c.name));
    }
  }
}

bool TableSource::next(ColumnBatch& out) {
  const std::size_t total = table_->row_count();
  if (pos_ >= total) return false;
  const std::size_t n = std::min(out.capacity(), total - pos_);
  for (std::size_t c = 0; c < schema_->column_count(); ++c) {
    if (int_cols_[c] != nullptr) {
      auto& dst = out.ints(c);
      dst.assign(int_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_),
                 int_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    } else {
      auto& dst = out.strings(c);
      dst.assign(str_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_),
                 str_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    }
  }
  out.set_row_count(n);
  pos_ += n;
  rows_emitted += n;
  return true;
}

/// --- Filters -------------------------------------------------------------

FilterInt::FilterInt(const SchemaPtr& in, std::string column,
                     std::function<bool(std::int64_t)> pred)
    : Operator{"filter"},
      col_{in->index_of(column, ColumnType::kInt)},
      pred_{std::move(pred)} {
  out_schema_ = in;
}

FilterInt::FilterInt(const SchemaPtr& in, std::string column, std::int64_t lo,
                     std::int64_t hi, std::function<bool(std::int64_t)> pred)
    : FilterInt{in, std::move(column), std::move(pred)} {
  is_range_ = true;
  lo_ = lo;
  hi_ = hi;
}

void FilterInt::do_push(ColumnBatch& batch) {
  const auto& values = batch.ints(col_);
  if (is_range_ && !batch.has_selection()) {
    // Dense batch with a known range: one call into the dispatched SIMD
    // selection kernel. Produces exactly the ascending index list the
    // scalar predicate loop below would.
    const std::size_t n = batch.row_count();
    sel_scratch_.resize(n);
    const std::size_t m = accel::simd::kernels().select_between(
        values.data(), n, lo_, hi_, sel_scratch_.data());
    sel_scratch_.resize(m);
    if (obs::enabled()) {
      if (c_simd_rows_ == nullptr) {
        c_simd_rows_ = simd_rows_counter("select_between");
      }
      c_simd_rows_->add(n);
    }
  } else {
    sel_scratch_.clear();
    batch.for_each_active([&](std::uint32_t r) {
      if (pred_(values[r])) sel_scratch_.push_back(r);
    });
  }
  batch.set_selection(sel_scratch_);
  emit(batch);
}

/// --- HashJoin ------------------------------------------------------------

HashJoin::HashJoin(const SchemaPtr& left, const Table* right,
                   std::string left_key, std::string right_key,
                   std::size_t batch_capacity)
    : Operator{"hash_join"},
      right_{right},
      right_key_{std::move(right_key)},
      left_key_col_{left->index_of(left_key, ColumnType::kInt)},
      left_width_{left->column_count()},
      batch_capacity_{batch_capacity} {
  // Validates the right key exists and is int.
  (void)right_->ints(right_key_);
  auto schema = std::make_shared<BatchSchema>(*left);
  for (const auto& name : right_->column_names()) {
    const std::string out_name = schema->has(name) ? name + "_r" : name;
    schema->add(out_name, right_->column_type(name));
    if (right_->column_type(name) == ColumnType::kInt) {
      right_int_cols_.push_back(&right_->ints(name));
      right_str_cols_.push_back(nullptr);
    } else {
      right_int_cols_.push_back(nullptr);
      right_str_cols_.push_back(&right_->strings(name));
    }
  }
  out_schema_ = std::move(schema);
}

void HashJoin::open() {
  const auto& keys = right_->ints(right_key_);
  const std::size_t n = keys.size();
  table_ = accel::HashTable64{n};
  // Insert the rows last to first, so each key's value ends as its first
  // row. A row whose key is present takes over as its head and links to
  // the head it displaces, the key's next row.
  next_.assign(n, kChainEnd);
  for (std::size_t i = n; i-- > 0;) {
    const auto row = static_cast<std::uint32_t>(i);
    table_.upsert(static_cast<std::uint64_t>(keys[i]), row,
                  [this, row](std::uint64_t head, std::uint64_t) {
                    next_[row] = static_cast<std::uint32_t>(head);
                    return std::uint64_t{row};
                  });
  }
  count_build_rows(n);
  out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  match_left_.resize(batch_capacity_);
  match_right_.resize(batch_capacity_);
  matches_ = 0;
}

void HashJoin::flush_matches(const ColumnBatch& batch) {
  if (matches_ == 0) return;
  const std::uint32_t* left = match_left_.data();
  const std::uint32_t* right = match_right_.data();
  for (std::size_t c = 0; c < left_width_; ++c) {
    if (out_schema_->at(c).type == ColumnType::kInt) {
      gather(out_batch_->ints(c), batch.ints(c), left, matches_);
    } else {
      gather(out_batch_->strings(c), batch.strings(c), left, matches_);
    }
  }
  for (std::size_t c = 0; c < right_int_cols_.size(); ++c) {
    if (right_int_cols_[c] != nullptr) {
      gather(out_batch_->ints(left_width_ + c), *right_int_cols_[c], right,
             matches_);
    } else {
      gather(out_batch_->strings(left_width_ + c), *right_str_cols_[c], right,
             matches_);
    }
  }
  out_batch_->set_row_count(matches_);
  matches_ = 0;
  emit(*out_batch_);
  out_batch_->clear();
}

void HashJoin::do_push(ColumnBatch& batch) {
  const auto& keys = batch.ints(left_key_col_);
  // Vertical probe: stage the active keys, look them all up in one
  // find_batch call (gather-based on wide ISAs), then walk each found
  // key's build rows. Matches flush whenever the index lists fill, and at
  // the end of the batch.
  const std::size_t n =
      stage_active(batch, probe_rows_, probe_keys_, [&keys](std::uint32_t r) {
        return static_cast<std::uint64_t>(keys[r]);
      });
  probe_vals_.resize(n);
  probe_found_.resize(n);
  table_.find_batch(probe_keys_.data(), n, probe_vals_.data(),
                    probe_found_.data());
  if (obs::enabled()) {
    if (c_simd_rows_ == nullptr) c_simd_rows_ = simd_rows_counter("hash_probe");
    c_simd_rows_->add(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (probe_found_[i] == 0) continue;
    const std::uint32_t l = probe_rows_[i];
    for (auto r = static_cast<std::uint32_t>(probe_vals_[i]); r != kChainEnd;
         r = next_[r]) {
      match_left_[matches_] = l;
      match_right_[matches_] = r;
      if (++matches_ == batch_capacity_) flush_matches(batch);
    }
  }
  flush_matches(batch);
}

/// --- GroupAggregate ------------------------------------------------------

GroupAggregate::GroupAggregate(const SchemaPtr& in, std::string key,
                               Aggregate agg, std::string value,
                               std::string result,
                               std::size_t batch_capacity)
    : Operator{"group_aggregate"},
      agg_{agg},
      key_col_{in->index_of(key)},
      value_col_{in->index_of(value, ColumnType::kInt)},
      string_key_{in->at(in->index_of(key)).type == ColumnType::kString},
      batch_capacity_{batch_capacity} {
  auto schema = std::make_shared<BatchSchema>();
  schema->add(key, string_key_ ? ColumnType::kString : ColumnType::kInt);
  schema->add(std::move(result), ColumnType::kInt);
  out_schema_ = std::move(schema);
}

std::uint32_t GroupAggregate::slot_for(std::uint64_t code) {
  auto slot = static_cast<std::uint32_t>(accs_.size());
  table_.upsert(code, slot, [&slot](std::uint64_t old, std::uint64_t) {
    slot = static_cast<std::uint32_t>(old);
    return old;
  });
  if (slot == accs_.size()) {
    accs_.push_back(Acc{});
    codes_.push_back(code);
  }
  return slot;
}

template <Aggregate A>
void GroupAggregate::accumulate(const std::vector<std::int64_t>& values,
                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = probe_found_[i] != 0
                                   ? static_cast<std::uint32_t>(probe_vals_[i])
                                   : slot_for(probe_keys_[i]);
    Acc& acc = accs_[slot];
    const std::int64_t v = values[probe_rows_[i]];
    if constexpr (A == Aggregate::kSum) {
      acc.sum += static_cast<std::uint64_t>(v);
    } else if constexpr (A == Aggregate::kMin) {
      if (acc.n == 0 || v < acc.extreme) acc.extreme = v;
    } else if constexpr (A == Aggregate::kMax) {
      if (acc.n == 0 || v > acc.extreme) acc.extreme = v;
    }
    ++acc.n;  // COUNT reads n alone
  }
}

void GroupAggregate::do_push(ColumnBatch& batch) {
  // Batched slot lookup: stage every active row's key code, probe them all
  // in one SIMD find_batch call, then accumulate in row order. A miss
  // means a new group — or an intra-batch duplicate of one — and falls
  // back to slot_for, which inserts on first touch and finds the slot on
  // the second, so slot assignment order matches a per-row loop exactly.
  // A string key's code is its dictionary index, by first appearance.
  std::size_t n = 0;
  if (string_key_) {
    const auto& keys = batch.strings(key_col_);
    n = stage_active(batch, probe_rows_, probe_keys_, [&](std::uint32_t r) {
      const auto [it, inserted] =
          dict_codes_.try_emplace(keys[r], dictionary_.size());
      if (inserted) dictionary_.push_back(keys[r]);
      return it->second;
    });
  } else {
    const auto& keys = batch.ints(key_col_);
    n = stage_active(batch, probe_rows_, probe_keys_, [&keys](std::uint32_t r) {
      return static_cast<std::uint64_t>(keys[r]);
    });
  }
  probe_vals_.resize(n);
  probe_found_.resize(n);
  table_.find_batch(probe_keys_.data(), n, probe_vals_.data(),
                    probe_found_.data());
  if (obs::enabled()) {
    if (c_simd_rows_ == nullptr) c_simd_rows_ = simd_rows_counter("group_probe");
    c_simd_rows_->add(n);
  }
  const auto& values = batch.ints(value_col_);
  switch (agg_) {
    case Aggregate::kSum:
      accumulate<Aggregate::kSum>(values, n);
      break;
    case Aggregate::kCount:
      accumulate<Aggregate::kCount>(values, n);
      break;
    case Aggregate::kMin:
      accumulate<Aggregate::kMin>(values, n);
      break;
    case Aggregate::kMax:
      accumulate<Aggregate::kMax>(values, n);
      break;
  }
}

void GroupAggregate::do_finish() {
  out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  // Emit groups sorted by unsigned key code (the GroupByStage order).
  std::vector<std::uint32_t> order(accs_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return codes_[a] < codes_[b];
            });
  std::size_t filled = 0;
  for (const std::uint32_t slot : order) {
    if (string_key_) {
      out_batch_->strings(0).push_back(
          dictionary_[static_cast<std::size_t>(codes_[slot])]);
    } else {
      out_batch_->ints(0).push_back(
          static_cast<std::int64_t>(codes_[slot]));
    }
    const Acc& acc = accs_[slot];
    std::int64_t result = 0;
    switch (agg_) {
      case Aggregate::kSum:
        result = static_cast<std::int64_t>(acc.sum);
        break;
      case Aggregate::kCount:
        result = static_cast<std::int64_t>(acc.n);
        break;
      case Aggregate::kMin:
      case Aggregate::kMax:
        result = acc.extreme;
        break;
    }
    out_batch_->ints(1).push_back(result);
    if (++filled == batch_capacity_) {
      out_batch_->set_row_count(filled);
      emit(*out_batch_);
      out_batch_->clear();
      filled = 0;
    }
  }
  if (filled > 0) {
    out_batch_->set_row_count(filled);
    emit(*out_batch_);
    out_batch_->clear();
  }
}

/// --- TopK ----------------------------------------------------------------

TopK::TopK(const SchemaPtr& in, std::string column, bool descending,
           std::size_t k, std::size_t batch_capacity)
    : Operator{"topk"},
      sort_col_{in->index_of(column, ColumnType::kInt)},
      descending_{descending},
      k_{k},
      batch_capacity_{batch_capacity},
      rows_{in, std::max<std::size_t>(std::min(k, batch_capacity), 1)} {
  out_schema_ = in;
  // Reserve for what a batch brings, not for k: k is SIZE_MAX for an
  // order_by without a limit, and the buffers grow only as rows arrive.
  heap_.reserve(std::min(k_, batch_capacity_));
}

void TopK::keep(const ColumnBatch& batch, std::uint32_t r, Entry e) {
  if (heap_.size() < k_) {
    e.slot = static_cast<std::uint32_t>(heap_.size());
    rows_.append_rows(batch, &r, 1);
    heap_.push_back(e);
    if (heap_.size() == k_) {
      std::make_heap(heap_.begin(), heap_.end(), sorts_first());
    }
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), sorts_first());
  e.slot = heap_.back().slot;
  rows_.set_row(e.slot, batch, r);
  heap_.back() = e;
  std::push_heap(heap_.begin(), heap_.end(), sorts_first());
}

void TopK::do_push(ColumnBatch& batch) {
  if (k_ == 0) return;
  const auto& keys = batch.ints(sort_col_);
  if (heap_.size() < k_ && batch.active_count() <= k_ - heap_.size()) {
    // Fill phase: every active row is kept. Append them in bulk, in
    // arrival order, and record their entries without heap order; the
    // k-th row heapifies once. Under the strict (value, seq) order the
    // kept set and each evicted slot do not depend on the heap's layout.
    rows_.append_active(batch);
    batch.for_each_active([&](std::uint32_t r) {
      heap_.push_back(
          Entry{keys[r], seq_++, static_cast<std::uint32_t>(heap_.size())});
    });
    if (heap_.size() == k_) {
      std::make_heap(heap_.begin(), heap_.end(), sorts_first());
    }
    return;
  }
  if (heap_.size() == k_ && !batch.has_selection()) {
    // Fused sift: pre-filter the dense batch with the SIMD strict-compare
    // kernel against the worst kept value. The threshold only ratchets
    // tighter as entries are replaced, so filtering against the *initial*
    // threshold admits a superset of what the scalar loop admits, and each
    // survivor is re-checked against the live heap front. The compare is
    // strict because a tie always loses to the incumbent (the incoming
    // entry's seq is larger). Sequence numbers of filtered-out rows are
    // reconstructed as seq_base + row, valid only for dense batches.
    const std::size_t n = batch.row_count();
    sift_scratch_.resize(n);
    const std::int64_t threshold = heap_.front().v;
    const auto& kn = accel::simd::kernels();
    const std::size_t m =
        descending_
            ? kn.select_greater(keys.data(), n, threshold,
                                sift_scratch_.data())
            : kn.select_less(keys.data(), n, threshold, sift_scratch_.data());
    if (obs::enabled()) {
      if (c_simd_rows_ == nullptr) c_simd_rows_ = simd_rows_counter("topk_sift");
      c_simd_rows_->add(n);
    }
    const std::uint64_t seq_base = seq_;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t r = sift_scratch_[i];
      const Entry e{keys[r], seq_base + r, 0};
      if (better(e, heap_.front())) keep(batch, r, e);
    }
    seq_ = seq_base + n;
    return;
  }
  batch.for_each_active([&](std::uint32_t r) {
    const Entry e{keys[r], seq_++, 0};
    if (heap_.size() < k_ || better(e, heap_.front())) keep(batch, r, e);
  });
}

void TopK::do_finish() {
  std::sort(heap_.begin(), heap_.end(), sorts_first());
  std::vector<std::uint32_t> order;
  order.reserve(heap_.size());
  for (const Entry& e : heap_) order.push_back(e.slot);
  emit_rows(rows_, order, batch_capacity_);
}

/// --- Limit ---------------------------------------------------------------

Limit::Limit(const SchemaPtr& in, std::size_t n)
    : Operator{"limit"}, remaining_{n} {
  out_schema_ = in;
}

void Limit::do_push(ColumnBatch& batch) {
  if (remaining_ == 0) return;
  const std::size_t active = batch.active_count();
  if (active <= remaining_) {
    remaining_ -= active;
    emit(batch);
    return;
  }
  std::vector<std::uint32_t> sel;
  sel.reserve(remaining_);
  batch.for_each_active([&](std::uint32_t r) {
    if (sel.size() < remaining_) sel.push_back(r);
  });
  batch.set_selection(sel);
  remaining_ = 0;
  emit(batch);
}

/// --- CollectSink ---------------------------------------------------------

CollectSink::CollectSink(const SchemaPtr& in)
    : Operator{"collect"}, rows_{in, kGrowingBuffer} {
  out_schema_ = in;
}

void CollectSink::do_push(ColumnBatch& batch) {
  rows_.append_active(batch);
  stats_.rows_out += batch.active_count();
}

}  // namespace rb::query::exec
