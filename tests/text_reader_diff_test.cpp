// Differential test of the single-pass text reader (hg::from_text /
// hg::read_text) against the iostream reader it replaced, kept below as a
// test-only oracle. On every input both must agree: the same accept or
// reject, the same std::runtime_error message on reject, and on accept
// the same canonical text and the same util::graph_digest. Inputs: the
// committed text_reader fuzz corpus, explicit grammar corner cases, and
// a seeded byte-mutation loop over both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "util/digest.hpp"

namespace hypercover::hg {
namespace {

// --- oracle: the iostream reader, verbatim in behaviour --------------------

namespace legacy {

bool next_token(std::istream& is, std::string& tok) {
  while (is >> tok) {
    if (tok[0] != '#') return true;
    std::string rest;
    std::getline(is, rest);  // discard remainder of comment line
  }
  return false;
}

std::int64_t next_int(std::istream& is, const char* what) {
  std::string tok;
  if (!next_token(is, tok)) {
    throw std::runtime_error(std::string("hypergraph read: missing ") + what);
  }
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("hypergraph read: bad integer '") +
                             tok + "' for " + what);
  }
}

Hypergraph read_text(std::istream& is) {
  std::string tok;
  if (!next_token(is, tok) || tok != "hypergraph") {
    throw std::runtime_error("hypergraph read: missing 'hypergraph' header");
  }
  const auto n = next_int(is, "vertex count");
  const auto m = next_int(is, "edge count");
  if (n < 0 || m < 0) throw std::runtime_error("hypergraph read: negative size");

  Builder b;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t w = next_int(is, "weight");
    if (w <= 0) {
      throw std::runtime_error("hypergraph read: weight " + std::to_string(w) +
                               " of vertex " + std::to_string(v) +
                               " is not positive");
    }
    b.add_vertex(w);
  }
  std::vector<VertexId> members;
  std::vector<VertexId> sorted;
  for (std::int64_t e = 0; e < m; ++e) {
    const auto k = next_int(is, "edge size");
    if (k <= 0) throw std::runtime_error("hypergraph read: edge size <= 0");
    members.clear();
    for (std::int64_t i = 0; i < k; ++i) {
      const auto v = next_int(is, "edge member");
      if (v < 0 || v >= n) {
        throw std::runtime_error("hypergraph read: member out of range");
      }
      members.push_back(static_cast<VertexId>(v));
    }
    sorted = members;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) {
        throw std::runtime_error("hypergraph read: edge " + std::to_string(e) +
                                 " has duplicate vertex " +
                                 std::to_string(sorted[i]));
      }
    }
    b.add_edge(std::span<const VertexId>(members));
  }
  std::string trailing;
  if (next_token(is, trailing)) {
    throw std::runtime_error("hypergraph read: trailing token '" + trailing +
                             "' after the last edge");
  }
  return b.build();
}

}  // namespace legacy

// --- harness ----------------------------------------------------------------

/// Either the canonical text + digest of an accepted graph, or the
/// message of the std::runtime_error that rejected the input.
struct Outcome {
  bool accepted = false;
  std::string text_or_error;
  std::uint64_t digest = 0;
};

template <typename Parse>
Outcome run(Parse parse) {
  Outcome out;
  try {
    const Hypergraph g = parse();
    out.accepted = true;
    out.text_or_error = to_text(g);
    out.digest = util::graph_digest(g);
  } catch (const std::runtime_error& e) {
    out.text_or_error = e.what();
  }
  // Anything else propagates and fails the test: the contract is
  // std::runtime_error only.
  return out;
}

std::string printable(const std::string& s) {
  std::string out;
  for (const unsigned char c : s) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

/// Asserts the two readers agree on `text`. `via_stream` sends the new
/// reader through read_text(std::istream&) instead of from_text.
void expect_same(const std::string& text, bool via_stream = false) {
  const Outcome want = run([&] {
    std::istringstream is(text);
    return legacy::read_text(is);
  });
  const Outcome got = run([&] {
    if (!via_stream) return from_text(text);
    std::istringstream is(text);
    return read_text(is);
  });
  ASSERT_EQ(got.accepted, want.accepted)
      << "input: \"" << printable(text) << "\"\nnew: " << got.text_or_error
      << "\nold: " << want.text_or_error;
  ASSERT_EQ(got.text_or_error, want.text_or_error)
      << "input: \"" << printable(text) << "\"";
  ASSERT_EQ(got.digest, want.digest) << "input: \"" << printable(text) << "\"";
}

std::vector<std::string> corpus() {
  const std::filesystem::path dir =
      std::filesystem::path(HYPERCOVER_SOURCE_DIR) / "fuzz/corpus/text_reader";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // directory order is unspecified
  std::vector<std::string> out;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    out.emplace_back(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  return out;
}

/// Grammar corners: signs, every C-locale whitespace byte, '#' rules,
/// NUL bytes, int64 limits, truncation and trailing junk.
std::vector<std::string> corner_cases() {
  using namespace std::string_literals;
  return {
      "hypergraph 2 1\n+7 3\n2 0 1\n",
      "hypergraph 2 1\n7 3\n2 +0 +1\n",
      "hypergraph 1 0\n+-7\n",
      "hypergraph 1 0\n-+7\n",
      "hypergraph 1 0\n+\n",
      "hypergraph 1 0\n-\n",
      "hypergraph 1 0\n++1\n",
      "hypergraph\v2\f1\r\n1 1\r\n2 0\v1\r\n",
      "hypergraph\t2\t1\t1\t1\t2\t0\t1",
      "\r\n\f\vhypergraph 0 0\r\n",
      "hypergraph 1 0\n5#c\n",
      "hypergraph 1 0\n5 #c\n",
      "hypergraph 1 0 #c 7\n5\n",
      "hypergraph3 0 0\n",
      "hypergraph 3 0 0\n",
      "Hypergraph 0 0\n",
      "#hypergraph 0 0\nhypergraph 0 0",
      "hypergraph 1 0\n1\n# end without newline",
      "hypergraph 1 0\n1\n#",
      "hypergraph 1 0\n#\n1",
      "hypergraph 1 0\n1\0\n"s,
      "hypergraph 1 0\n\0 1\n"s,
      "hypergraph 1 0\n1 # a\0b\n"s,
      "hypergraph 1 0\n1\n\0"s,
      "hyper\0graph 0 0\n"s,
      "hypergraph 2 1\n1 1\n2 -0 1\n",
      "hypergraph 2 1\n1 1\n2 -0 +0\n",
      "hypergraph 2 1\n1 1\n2 000 01\n",
      "hypergraph 1 0\n9223372036854775807\n",
      "hypergraph 1 0\n9223372036854775808\n",
      "hypergraph 1 0\n99999999999999999999999\n",
      "hypergraph -9223372036854775808 0\n",
      "hypergraph -9223372036854775809 0\n",
      "hypergraph 1 1\n1\n-9223372036854775808 0\n",
      "hypergraph 1 4000000000\n1\n",
      "hypergraph 4000000000 0\n1 1\n",
      "hypergraph 2 1\n1 1\n4000000000 0 1\n",
      "hypergraph 1 0\n0x10\n",
      "hypergraph 1 0\n1e3\n",
      "hypergraph 1 0\n1.0\n",
      "hypergraph 2 0\n12x 5\n",
      "hypergraph 3 1\n1 1 1\n3 2 0 2\n",
      "hypergraph 3 2\n1 1 1\n2 0 1\n2 1 2 junk\n",
      "hypergraph 2 1\n1 1\n2 0 1\n#\n# a\n\n",
      "hypergraph 2 1\n1 1\n2 0 1\n7",
      "hypergraph 2 1\n0 1\n2 0 1\n",
      "hypergraph 2 1\n1 1\n0\n",
      "hypergraph 2 1\n1 1\n2 0 2\n",
      "\xff\xfe hypergraph 0 0\n",
      "hypergraph 1 0\n1\xa0\n",
      "",
      "   \n\t",
      "# only a comment",
  };
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One to four random edits: overwrite, insert, delete, duplicate a
/// span, truncate. Bytes come mostly from the grammar's own alphabet so
/// mutants stay near the accept/reject boundary.
std::string mutate(std::string s, std::uint64_t& rng) {
  using namespace std::string_literals;
  static const std::string kAlphabet = "0123456789+-# \t\n\v\f\r\0x"s;
  auto byte = [&]() -> char {
    const std::uint64_t r = splitmix64(rng);
    if (r % 8 == 0) return static_cast<char>(r >> 8);  // any byte
    return kAlphabet[(r >> 8) % kAlphabet.size()];
  };
  const int edits = 1 + static_cast<int>(splitmix64(rng) % 4);
  for (int i = 0; i < edits; ++i) {
    const std::uint64_t r = splitmix64(rng);
    const std::size_t pos = s.empty() ? 0 : (r >> 8) % (s.size() + 1);
    switch (r % 5) {
      case 0:
        if (pos < s.size()) s[pos] = byte();
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), byte());
        break;
      case 2:
        if (pos < s.size()) s.erase(pos, 1 + (r >> 40) % 3);
        break;
      case 3:
        if (pos < s.size()) {
          const std::size_t len = std::min<std::size_t>(1 + (r >> 40) % 8,
                                                        s.size() - pos);
          s.insert(pos, s.substr(pos, len));
        }
        break;
      default:
        s.resize(pos);
        break;
    }
  }
  return s;
}

// --- tests ------------------------------------------------------------------

TEST(TextReaderDiff, CommittedFuzzCorpus) {
  const auto files = corpus();
  ASSERT_GE(files.size(), 3u);
  for (const std::string& text : files) {
    expect_same(text);
    expect_same(text, /*via_stream=*/true);
  }
}

TEST(TextReaderDiff, GrammarCornerCases) {
  for (const std::string& text : corner_cases()) {
    expect_same(text);
    expect_same(text, /*via_stream=*/true);
  }
}

TEST(TextReaderDiff, GeneratedInstancesLargerThanOneStreamChunk) {
  const Hypergraph graphs[] = {
      random_uniform(4000, 10666, 3, exponential_weights(12), 15),
      random_uniform(6000, 12000, 5, uniform_weights(1000), 16),
  };
  for (const Hypergraph& g : graphs) {
    const std::string text = to_text(g);
    ASSERT_GT(text.size(), 64u * 1024u);  // read_text slurps 64 KiB blocks
    expect_same(text);
    expect_same(text, /*via_stream=*/true);
    EXPECT_EQ(util::graph_digest(from_text(text)), util::graph_digest(g));
  }
}

TEST(TextReaderDiff, SeededByteMutations) {
  std::vector<std::string> seeds = corpus();
  for (std::string& s : corner_cases()) seeds.push_back(std::move(s));
  std::uint64_t rng = 0x7e47'0015'd1ffull;
  constexpr int kCases = 24000;
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string& seed = seeds[splitmix64(rng) % seeds.size()];
    const std::string text = mutate(seed, rng);
    const bool via_stream = i % 4 == 0;
    expect_same(text, via_stream);
    if (HasFatalFailure()) {
      FAIL() << "case " << i << " diverged";
    }
    try {
      (void)from_text(text);
      ++accepted;
    } catch (const std::runtime_error&) {
    }
  }
  // Both sides of the boundary must be exercised for the test to mean
  // anything.
  EXPECT_GT(accepted, kCases / 50);
  EXPECT_LT(accepted, kCases - kCases / 50);
}

}  // namespace
}  // namespace hypercover::hg
