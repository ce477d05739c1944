#include "query/table.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace rb::query {

void Table::check_new_column(const std::string& name,
                             std::size_t size) const {
  if (name.empty())
    throw std::invalid_argument{"Table: empty column name"};
  if (has_column(name))
    throw std::invalid_argument{"Table: duplicate column " + name};
  if (!columns_.empty() && size != rows_)
    throw std::invalid_argument{"Table: column " + name +
                                " row count mismatch"};
}

void Table::add_int_column(std::string name,
                           std::vector<std::int64_t> values) {
  check_new_column(name, values.size());
  rows_ = values.size();
  Column column;
  column.name = std::move(name);
  column.type = ColumnType::kInt;
  column.ints = std::move(values);
  columns_.push_back(std::move(column));
}

void Table::add_string_column(std::string name,
                              std::vector<std::string> values) {
  check_new_column(name, values.size());
  rows_ = values.size();
  Column column;
  column.name = std::move(name);
  column.type = ColumnType::kString;
  column.strings = std::move(values);
  columns_.push_back(std::move(column));
}

bool Table::has_column(const std::string& name) const noexcept {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

const Table::Column& Table::find(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return c;
  }
  throw std::invalid_argument{"Table: no column named " + name};
}

ColumnType Table::column_type(const std::string& name) const {
  return find(name).type;
}

std::vector<std::string> Table::column_names() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name);
  return names;
}

const std::vector<std::int64_t>& Table::ints(const std::string& name) const {
  const auto& c = find(name);
  if (c.type != ColumnType::kInt)
    throw std::invalid_argument{"Table: column " + name + " is not int"};
  return c.ints;
}

const std::vector<std::string>& Table::strings(
    const std::string& name) const {
  const auto& c = find(name);
  if (c.type != ColumnType::kString)
    throw std::invalid_argument{"Table: column " + name + " is not string"};
  return c.strings;
}

Table Table::gather(const std::vector<std::uint32_t>& row_indices) const {
  Table out;
  for (const auto& c : columns_) {
    if (c.type == ColumnType::kInt) {
      std::vector<std::int64_t> values;
      values.reserve(row_indices.size());
      for (const auto i : row_indices) values.push_back(c.ints.at(i));
      out.add_int_column(c.name, std::move(values));
    } else {
      std::vector<std::string> values;
      values.reserve(row_indices.size());
      for (const auto i : row_indices) values.push_back(c.strings.at(i));
      out.add_string_column(c.name, std::move(values));
    }
  }
  if (columns_.empty()) out.rows_ = 0;
  return out;
}

std::string Table::to_string(std::size_t max_rows) const {
  std::ostringstream out;
  for (const auto& c : columns_) out << c.name << '\t';
  out << '\n';
  const std::size_t shown = std::min(max_rows, rows_);
  for (std::size_t r = 0; r < shown; ++r) {
    for (const auto& c : columns_) {
      if (c.type == ColumnType::kInt) {
        out << c.ints[r];
      } else {
        out << c.strings[r];
      }
      out << '\t';
    }
    out << '\n';
  }
  if (shown < rows_) out << "... (" << rows_ << " rows)\n";
  return out.str();
}

/// --- Row-at-a-time stage interpreters ----------------------------------

namespace {

std::vector<std::uint32_t> all_rows(std::size_t n) {
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  return idx;
}

Table apply_filter_int(Table t, const FilterIntStage& s) {
  const auto& values = t.ints(s.column);
  std::vector<std::uint32_t> keep;
  for (std::uint32_t i = 0; i < values.size(); ++i) {
    if (s.pred(values[i])) keep.push_back(i);
  }
  return t.gather(keep);
}

Table apply_join(Table left, const JoinStage& s) {
  const auto& lkeys = left.ints(s.left_key);
  const auto& rkeys = s.right.ints(s.right_key);
  // Right rows per key, in row order; probing left rows in order then
  // yields the canonical left-major output directly.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> matches;
  for (std::uint32_t r = 0; r < rkeys.size(); ++r) {
    matches[rkeys[r]].push_back(r);
  }
  std::vector<std::uint32_t> lidx, ridx;
  for (std::uint32_t l = 0; l < lkeys.size(); ++l) {
    const auto it = matches.find(lkeys[l]);
    if (it == matches.end()) continue;
    for (const std::uint32_t r : it->second) {
      lidx.push_back(l);
      ridx.push_back(r);
    }
  }
  Table out = left.gather(lidx);
  const Table rgathered = s.right.gather(ridx);
  for (const auto& name : rgathered.column_names()) {
    const std::string out_name = out.has_column(name) ? name + "_r" : name;
    if (rgathered.column_type(name) == ColumnType::kInt) {
      out.add_int_column(out_name, rgathered.ints(name));
    } else {
      out.add_string_column(out_name, rgathered.strings(name));
    }
  }
  return out;
}

Table apply_group_by(Table t, const GroupByStage& s) {
  const auto& values = t.ints(s.value);
  // Groups in unsigned key-code order: an int key's bits, or a string
  // key's first-appearance index. Sums wrap around in uint64.
  std::map<std::uint64_t, std::int64_t> groups;
  const auto fold = [&s, &groups](std::uint64_t code, std::int64_t v) {
    const auto [it, fresh] =
        groups.try_emplace(code, s.agg == Aggregate::kCount ? 1 : v);
    if (fresh) return;
    std::int64_t& acc = it->second;
    switch (s.agg) {
      case Aggregate::kSum:
        acc = static_cast<std::int64_t>(static_cast<std::uint64_t>(acc) +
                                        static_cast<std::uint64_t>(v));
        break;
      case Aggregate::kCount:
        ++acc;
        break;
      case Aggregate::kMin:
        acc = std::min(acc, v);
        break;
      case Aggregate::kMax:
        acc = std::max(acc, v);
        break;
    }
  };

  Table out;
  std::vector<std::int64_t> results;
  if (t.column_type(s.key) == ColumnType::kInt) {
    const auto& keys = t.ints(s.key);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      fold(static_cast<std::uint64_t>(keys[i]), values[i]);
    }
    std::vector<std::int64_t> out_keys;
    for (const auto& [code, acc] : groups) {
      out_keys.push_back(static_cast<std::int64_t>(code));
      results.push_back(acc);
    }
    out.add_int_column(s.key, std::move(out_keys));
  } else {
    const auto& keys = t.strings(s.key);
    std::unordered_map<std::string, std::uint64_t> codes;
    std::vector<std::string> dictionary;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto [it, inserted] =
          codes.try_emplace(keys[i], dictionary.size());
      if (inserted) dictionary.push_back(keys[i]);
      fold(it->second, values[i]);
    }
    std::vector<std::string> out_keys;
    for (const auto& [code, acc] : groups) {
      out_keys.push_back(dictionary[code]);
      results.push_back(acc);
    }
    out.add_string_column(s.key, std::move(out_keys));
  }
  out.add_int_column(s.result, std::move(results));
  return out;
}

Table apply_order_by(Table t, const OrderByStage& s) {
  const auto& values = t.ints(s.column);
  auto idx = all_rows(values.size());
  std::stable_sort(idx.begin(), idx.end(),
                   [&values, &s](std::uint32_t a, std::uint32_t b) {
                     return s.descending ? values[a] > values[b]
                                         : values[a] < values[b];
                   });
  return t.gather(idx);
}

Table apply_limit(Table t, const LimitStage& s) {
  return t.gather(all_rows(std::min(s.n, t.row_count())));
}

}  // namespace

Table interpret(Table current, const std::vector<Stage>& stages) {
  for (const auto& stage : stages) {
    current = std::visit(
        [&current](const auto& s) -> Table {
          using S = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<S, FilterIntStage>) {
            return apply_filter_int(std::move(current), s);
          } else if constexpr (std::is_same_v<S, JoinStage>) {
            return apply_join(std::move(current), s);
          } else if constexpr (std::is_same_v<S, GroupByStage>) {
            return apply_group_by(std::move(current), s);
          } else if constexpr (std::is_same_v<S, OrderByStage>) {
            return apply_order_by(std::move(current), s);
          } else {
            return apply_limit(std::move(current), s);
          }
        },
        stage);
  }
  return current;
}

}  // namespace rb::query
