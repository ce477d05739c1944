#include "query/exec/plan.hpp"

#include <cstdint>
#include <stdexcept>

#include "query/exec/lsm_table.hpp"
#include "query/exec/operators.hpp"

namespace rb::query::exec {

namespace {

/// Operators that forward batches without buffering input; a Limit behind
/// only these can stop the scan early.
bool is_streaming(const char* name) noexcept {
  const std::string_view n{name};
  return n == "filter" || n == "hash_join" || n == "limit";
}

std::unique_ptr<Operator> make_filter(const SchemaPtr& in,
                                      const FilterIntStage& s) {
  if (s.is_range) {
    return std::make_unique<FilterInt>(in, s.column, s.lo, s.hi, s.pred);
  }
  return std::make_unique<FilterInt>(in, s.column, s.pred);
}

}  // namespace

Table Plan::run(const ExecOptions& opts, ExecStats* stats) const {
  if (opts.batch_size == 0)
    throw std::invalid_argument{"Plan: batch_size must be positive"};

  std::unique_ptr<Source> source;
  if (store_ != nullptr) {
    source = std::make_unique<LsmSource>(store_, lsm_table_);
  } else {
    source = std::make_unique<TableSource>(&source_);
  }

  std::vector<std::unique_ptr<Operator>> ops;
  SchemaPtr schema = source->schema();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    std::visit(
        [&](const auto& s) {
          using S = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<S, FilterIntStage>) {
            ops.push_back(make_filter(schema, s));
          } else if constexpr (std::is_same_v<S, JoinStage>) {
            // Filter pushdown: a filter that directly follows the join (or
            // another filter moved ahead of it) and names a column of the
            // join's left input runs before the join, which then probes
            // only the rows it keeps. The join emits each left row's
            // matches in left-row order, so the result is the same.
            while (i + 1 < stages_.size()) {
              const auto* f = std::get_if<FilterIntStage>(&stages_[i + 1]);
              if (f == nullptr || !schema->has(f->column)) break;
              ops.push_back(make_filter(schema, *f));
              ++i;
            }
            ops.push_back(std::make_unique<HashJoin>(
                schema, &s.right, s.left_key, s.right_key, opts.batch_size));
          } else if constexpr (std::is_same_v<S, GroupByStage>) {
            ops.push_back(std::make_unique<GroupAggregate>(
                schema, s.key, s.agg, s.value, s.result, opts.batch_size));
          } else if constexpr (std::is_same_v<S, OrderByStage>) {
            // Every sort is a TopK: it absorbs a directly following limit
            // as its k, and keeps every row without one.
            std::size_t k = SIZE_MAX;
            if (i + 1 < stages_.size()) {
              if (const auto* lim = std::get_if<LimitStage>(&stages_[i + 1])) {
                k = lim->n;
                ++i;
              }
            }
            ops.push_back(std::make_unique<TopK>(schema, s.column,
                                                 s.descending, k,
                                                 opts.batch_size));
          } else {
            ops.push_back(std::make_unique<Limit>(schema, s.n));
          }
        },
        stages_[i]);
    schema = ops.back()->output_schema();
  }
  auto sink = std::make_unique<CollectSink>(schema);

  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    ops[i]->set_output(ops[i + 1].get());
  }
  if (!ops.empty()) ops.back()->set_output(sink.get());
  Operator* first = ops.empty() ? sink.get() : ops.front().get();

  // A Limit preceded only by streaming operators can stop the scan once
  // its quota fills (a blocking operator in between needs all input).
  Operator* stop = nullptr;
  for (const auto& op : ops) {
    if (dynamic_cast<Limit*>(op.get()) != nullptr) {
      stop = op.get();
      break;
    }
    if (!is_streaming(op->name())) break;
  }

  const bool timed = opts.trace != nullptr;
  for (const auto& op : ops) op->set_timed(timed);
  sink->set_timed(timed);

  for (const auto& op : ops) op->open();
  sink->open();

  ColumnBatch batch{source->schema(), opts.batch_size};
  while (source->next(batch)) {
    first->push(batch);
    batch.clear();
    if (stop != nullptr && stop->saturated()) break;
  }
  first->finish();

  if (opts.trace != nullptr && opts.trace->enabled()) {
    for (const auto& op : ops) {
      const auto& s = op->stats();
      opts.trace->complete(
          "query.op", op->name(), 0, op->busy_ns() * 1000,
          {obs::trace_arg("rows_in", s.rows_in),
           obs::trace_arg("rows_out", s.rows_out),
           obs::trace_arg("batches", s.batches_in),
           obs::trace_arg("build_rows", s.build_rows)});
    }
    opts.trace->complete(
        "query.op", "collect", 0, sink->busy_ns() * 1000,
        {obs::trace_arg("rows_in", sink->stats().rows_in),
         obs::trace_arg("batches", sink->stats().batches_in)});
  }

  if (stats != nullptr) {
    stats->source = source->name();
    stats->source_rows = source->rows_emitted;
    stats->operators.clear();
    const auto record = [&stats](const Operator& op) {
      const auto& s = op.stats();
      stats->operators.push_back(ExecStats::OpStat{
          op.name(), s.rows_in, s.rows_out, s.batches_in, s.build_rows,
          op.busy_ns()});
    };
    for (const auto& op : ops) record(*op);
    record(*sink);
  }

  return sink->take();
}

Table Plan::interpret() const {
  return query::interpret(
      store_ != nullptr ? load_table(*store_, lsm_table_) : source_, stages_);
}

PlanBuilder::PlanBuilder(Table source) {
  plan_.source_ = std::move(source);
}

PlanBuilder::PlanBuilder(const storage::LsmStore& store,
                         std::string lsm_table) {
  plan_.store_ = &store;
  plan_.lsm_table_ = std::move(lsm_table);
}

PlanBuilder& PlanBuilder::filter_int(std::string column,
                                     std::function<bool(std::int64_t)> pred) {
  plan_.stages_.emplace_back(
      FilterIntStage{std::move(column), std::move(pred)});
  return *this;
}

PlanBuilder& PlanBuilder::filter_between(std::string column, std::int64_t lo,
                                         std::int64_t hi) {
  plan_.stages_.emplace_back(FilterIntStage{
      std::move(column),
      [lo, hi](std::int64_t v) { return v >= lo && v < hi; }, true, lo, hi});
  return *this;
}

PlanBuilder& PlanBuilder::join(Table right, std::string left_key,
                               std::string right_key) {
  plan_.stages_.emplace_back(JoinStage{
      std::move(right), std::move(left_key), std::move(right_key)});
  return *this;
}

PlanBuilder& PlanBuilder::group_by(std::string key, Aggregate agg,
                                   std::string value,
                                   std::string result_name) {
  plan_.stages_.emplace_back(GroupByStage{
      std::move(key), agg, std::move(value), std::move(result_name)});
  return *this;
}

PlanBuilder& PlanBuilder::order_by(std::string column, bool descending) {
  plan_.stages_.emplace_back(OrderByStage{std::move(column), descending});
  return *this;
}

PlanBuilder& PlanBuilder::limit(std::size_t n) {
  plan_.stages_.emplace_back(LimitStage{n});
  return *this;
}

Plan PlanBuilder::build() { return std::move(plan_); }

}  // namespace rb::query::exec
