#include "hypergraph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hypercover::hg {

namespace {

/// The C-locale isspace set: ' ', \t, \n, \v, \f, \r.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Single-pass token scanner over a contiguous buffer.
class Scanner {
 public:
  explicit Scanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Reads the next token, skipping whitespace and '#' comments.
  bool next_token(std::string_view& tok) {
    if (!skip_to_token()) return false;
    const char* begin = p_;
    p_ = token_end(p_);
    tok = std::string_view(begin, static_cast<std::size_t>(p_ - begin));
    return true;
  }

  /// Reads the next token as an integer. from_chars runs straight off
  /// the token start and must stop exactly at the token's end.
  std::int64_t next_int(const char* what) {
    if (!skip_to_token()) {
      throw std::runtime_error(std::string("hypergraph read: missing ") + what);
    }
    const char* tok = p_;
    // from_chars takes a '-' but not a '+'; a '+' must be followed
    // directly by a digit ("+-5" is not an integer).
    const char* first = *tok == '+' ? tok + 1 : tok;
    std::int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(first, end_, v);
    if (ec != std::errc() || (ptr != end_ && !is_space(*ptr)) ||
        (first != tok && *first == '-')) {
      throw std::runtime_error(
          std::string("hypergraph read: bad integer '") +
          std::string(tok, token_end(tok)) + "' for " + what);
    }
    p_ = ptr;
    return v;
  }

  /// Upper bound on the integers the unscanned input can still hold:
  /// each takes at least two bytes (digit + separator), except the last.
  /// Reservations use this, never the header's counts.
  [[nodiscard]] std::size_t max_values() const noexcept {
    return static_cast<std::size_t>(end_ - p_) / 2 + 1;
  }

 private:
  /// Advances to the next token's first byte; false at end of input.
  bool skip_to_token() {
    for (;;) {
      while (p_ != end_ && is_space(*p_)) ++p_;
      if (p_ == end_) return false;
      if (*p_ != '#') return true;
      // A token starting with '#' comments out the rest of the line.
      const void* nl =
          std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
      p_ = nl == nullptr ? end_ : static_cast<const char*>(nl) + 1;
    }
  }

  [[nodiscard]] const char* token_end(const char* p) const {
    while (p != end_ && !is_space(*p)) ++p;
    return p;
  }

  const char* p_;
  const char* end_;
};

/// Sorts one edge's members: insertion sort for the short edges that
/// dominate real instances (where std::sort's set-up outweighs the
/// sort), std::sort beyond that.
void sort_members(std::vector<VertexId>& members) {
  if (members.size() > 16) {
    std::sort(members.begin(), members.end());
    return;
  }
  for (std::size_t i = 1; i < members.size(); ++i) {
    const VertexId x = members[i];
    std::size_t j = i;
    for (; j > 0 && members[j - 1] > x; --j) members[j] = members[j - 1];
    members[j] = x;
  }
}

}  // namespace

void write_text(std::ostream& os, const Hypergraph& g) {
  os << "hypergraph " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    os << g.weight(v) << (v + 1 == g.num_vertices() ? '\n' : ' ');
  }
  for (std::uint32_t e = 0; e < g.num_edges(); ++e) {
    const auto members = g.vertices_of(e);
    os << members.size();
    for (const VertexId v : members) os << ' ' << v;
    os << '\n';
  }
}

Hypergraph from_text(std::string_view text) {
  Scanner in(text);
  std::string_view tok;
  if (!in.next_token(tok) || tok != "hypergraph") {
    throw std::runtime_error("hypergraph read: missing 'hypergraph' header");
  }
  const auto n = in.next_int("vertex count");
  const auto m = in.next_int("edge count");
  if (n < 0 || m < 0) throw std::runtime_error("hypergraph read: negative size");

  Builder b;
  b.reserve(std::min(static_cast<std::size_t>(n), in.max_values()), 0, 0);
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t w = in.next_int("weight");
    // Validate here rather than letting Builder::build() reject it, for
    // the same reason as the duplicate check below: malformed *input* is
    // std::runtime_error; std::invalid_argument is the programmatic-API
    // error. (Found by the text-reader fuzz harness, which treats any
    // non-runtime_error escape as a contract violation.)
    if (w <= 0) {
      throw std::runtime_error("hypergraph read: weight " + std::to_string(w) +
                               " of vertex " + std::to_string(v) +
                               " is not positive");
    }
    b.add_vertex(w);
  }
  // An edge line is at least two values: k and one member.
  const std::size_t values = in.max_values();
  const std::size_t edges = std::min(static_cast<std::size_t>(m), values / 2);
  b.reserve(0, edges, edges == 0 ? 0 : values - edges);
  std::vector<VertexId> members;
  for (std::int64_t e = 0; e < m; ++e) {
    const auto k = in.next_int("edge size");
    if (k <= 0) throw std::runtime_error("hypergraph read: edge size <= 0");
    members.clear();
    for (std::int64_t i = 0; i < k; ++i) {
      const auto v = in.next_int("edge member");
      if (v < 0 || v >= n) {
        throw std::runtime_error("hypergraph read: member out of range");
      }
      members.push_back(static_cast<VertexId>(v));
    }
    // Reject duplicate members here (not only in Builder) so both the
    // text and binary readers enforce the same contract with the same
    // error family: malformed *input* is std::runtime_error, while
    // std::invalid_argument stays the programmatic-API error. Sorting in
    // place costs nothing extra: build() needs each edge sorted anyway.
    sort_members(members);
    const auto dup = std::adjacent_find(members.begin(), members.end());
    if (dup != members.end()) {
      throw std::runtime_error("hypergraph read: edge " + std::to_string(e) +
                               " has duplicate vertex " +
                               std::to_string(*dup));
    }
    b.add_edge(std::span<const VertexId>(members));
  }
  // A complete graph must be followed by end-of-input (comments aside):
  // trailing tokens mean a malformed or truncated-header instance, and
  // silently ignoring them used to mask exactly that.
  if (in.next_token(tok)) {
    throw std::runtime_error("hypergraph read: trailing token '" +
                             std::string(tok) + "' after the last edge");
  }
  return b.build();
}

Hypergraph read_text(std::istream& is) {
  std::string text;
  char buf[64 * 1024];
  while (is.read(buf, sizeof(buf)), is.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  return from_text(text);
}

std::string to_text(const Hypergraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

}  // namespace hypercover::hg
