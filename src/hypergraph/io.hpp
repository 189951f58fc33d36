#pragma once
// Plain-text hypergraph serialization.
//
// Format (whitespace separated, '#' starts a comment):
//   hypergraph <n> <m>
//   <w_0> ... <w_{n-1}>          (n vertex weights)
//   <k> <v_1> ... <v_k>          (m edge lines)
//
// Exact grammar the reader accepts:
//   * Tokens are maximal runs of non-whitespace bytes. Whitespace is the
//     C-locale set: space, \t, \n, \v, \f, \r. Line structure carries no
//     meaning beyond comments; any other byte (NUL included) is part of a
//     token.
//   * A token that starts with '#' opens a comment running through the
//     next '\n' (or end of input). A '#' inside a token ("5#c") is not a
//     comment: the token is malformed.
//   * The first token must be exactly `hypergraph`.
//   * Every other token is a base-10 integer: an optional '+' or '-'
//     sign, then at least one digit, nothing else, in the int64 range.
//   * n, m >= 0; every weight > 0; every k > 0; members in [0, n) and
//     distinct within their edge. Nothing but whitespace and comments may
//     follow the m-th edge.
//
// Every malformed input throws std::runtime_error (never another type),
// with a message naming the offending field. Storage reserved while
// reading is bounded by the input's size, never by the header's counts.

#include <iosfwd>
#include <string>
#include <string_view>

#include "hypergraph/hypergraph.hpp"

namespace hypercover::hg {

void write_text(std::ostream& os, const Hypergraph& g);

/// Reads the rest of `is` into memory and parses it with from_text.
[[nodiscard]] Hypergraph read_text(std::istream& is);

[[nodiscard]] std::string to_text(const Hypergraph& g);

/// Parses the format above in one pass over `text`. Strict: duplicate
/// vertices within an edge and any trailing token after the last edge
/// are rejected (same contract as the binary validator in
/// hypergraph/binary.hpp — this is the debug path, not the lenient one).
[[nodiscard]] Hypergraph from_text(std::string_view text);

}  // namespace hypercover::hg
