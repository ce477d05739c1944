#include "accel/text.hpp"

#include <deque>
#include <stdexcept>

namespace rb::accel {

namespace {
constexpr bool is_word_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}
}  // namespace

std::vector<std::string_view> tokenize(std::string_view text) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  bool in_token = false;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const bool word = i < text.size() && is_word_char(text[i]);
    if (word && !in_token) {
      start = i;
      in_token = true;
    } else if (!word && in_token) {
      tokens.push_back(text.substr(start, i - start));
      in_token = false;
    }
  }
  return tokens;
}

PatternMatcher::PatternMatcher(const std::vector<std::string>& patterns) {
  nodes_.emplace_back();  // root
  for (const auto& pattern : patterns) {
    if (pattern.empty())
      throw std::invalid_argument{"PatternMatcher: empty pattern"};
    std::int32_t at = 0;
    for (const char ch : pattern) {
      const auto c = static_cast<unsigned char>(ch);
      if (nodes_[static_cast<std::size_t>(at)].next[c] < 0) {
        nodes_[static_cast<std::size_t>(at)].next[c] =
            static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      at = nodes_[static_cast<std::size_t>(at)].next[c];
    }
    ++nodes_[static_cast<std::size_t>(at)].hits;
  }
  // BFS to build failure links and convert to a full goto automaton.
  std::deque<std::int32_t> queue;
  for (int c = 0; c < 256; ++c) {
    auto& root_next = nodes_[0].next[static_cast<std::size_t>(c)];
    if (root_next < 0) {
      root_next = 0;
    } else {
      nodes_[static_cast<std::size_t>(root_next)].fail = 0;
      queue.push_back(root_next);
    }
  }
  while (!queue.empty()) {
    const std::int32_t u = queue.front();
    queue.pop_front();
    auto& node = nodes_[static_cast<std::size_t>(u)];
    node.hits += nodes_[static_cast<std::size_t>(node.fail)].hits;
    for (int c = 0; c < 256; ++c) {
      auto& v = nodes_[static_cast<std::size_t>(u)].next[static_cast<std::size_t>(c)];
      const std::int32_t f =
          nodes_[static_cast<std::size_t>(nodes_[static_cast<std::size_t>(u)].fail)]
              .next[static_cast<std::size_t>(c)];
      if (v < 0) {
        v = f;
      } else {
        nodes_[static_cast<std::size_t>(v)].fail = f;
        queue.push_back(v);
      }
    }
  }
}

std::uint64_t PatternMatcher::count_matches(std::string_view text) const {
  std::uint64_t n = 0;
  std::int32_t at = 0;
  for (const char ch : text) {
    at = nodes_[static_cast<std::size_t>(at)]
             .next[static_cast<unsigned char>(ch)];
    n += nodes_[static_cast<std::size_t>(at)].hits;
  }
  return n;
}

}  // namespace rb::accel
