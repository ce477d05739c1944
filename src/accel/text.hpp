#pragma once
// Text/NLP building blocks (Sec IV.C.1: the shift "towards data analysis
// libraries and APIs targeting Machine Learning (ML) and Natural Language
// Processing (NLP)"). Tokenization and multi-pattern substring search —
// the scan-heavy preprocessing every NLP pipeline runs.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rb::accel {

/// Split on non-alphanumeric characters. Views point into `text`, which
/// must outlive them.
std::vector<std::string_view> tokenize(std::string_view text);

/// Multi-pattern substring matcher (Aho-Corasick automaton).
/// Build once, scan many documents — the "DPI / log grep" building block.
class PatternMatcher {
 public:
  explicit PatternMatcher(const std::vector<std::string>& patterns);

  /// Total number of pattern occurrences in `text` (overlaps counted).
  std::uint64_t count_matches(std::string_view text) const;

 private:
  struct Node {
    std::array<std::int32_t, 256> next;
    std::int32_t fail = 0;
    std::uint32_t hits = 0;  // patterns ending here, via failure links too
    Node() { next.fill(-1); }
  };

  std::vector<Node> nodes_;
};

}  // namespace rb::accel
