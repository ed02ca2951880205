// The observation format's one tokenizer and one numeric reader.
//
// Both the offline parser (parse_observations) and the streaming splitter
// (stream_audit's stage 1, which routes blocks and resolves directives before
// any parse) read lines through this header, so routing, splitting and
// parsing can never disagree on a token.
//
// Token rule (docs/observation-format.md): tokens are maximal runs of
// non-whitespace, and `#` starts a comment that runs to end of line wherever
// it appears — also in the middle of what would otherwise be a token, so
// `write 0#note` is `write 0`.
#pragma once

#include <cctype>
#include <charconv>
#include <string_view>
#include <system_error>

namespace crooks::report {

/// Pull tokenizer over one line. A plain character scan with no allocation:
/// the follow loop runs it on every input line.
class LineTokens {
 public:
  explicit LineTokens(std::string_view line) : rest_(line.substr(0, line.find('#'))) {}

  /// The next token; empty once the line is exhausted.
  std::string_view next() {
    std::size_t b = 0;
    while (b < rest_.size() && is_space(rest_[b])) ++b;
    std::size_t e = b;
    while (e < rest_.size() && !is_space(rest_[e])) ++e;
    const std::string_view tok = rest_.substr(b, e - b);
    rest_.remove_prefix(e);
    return tok;
  }

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }

  std::string_view rest_;
};

/// Checked decimal reader: `tok` must be exactly one decimal integer that
/// fits `T` — no sign on an unsigned type, no '+', nothing before or after
/// the digits. Returns std::errc{} and sets `out` on success;
/// std::errc::result_out_of_range when the value does not fit `T`;
/// std::errc::invalid_argument otherwise (then `out` is unchanged).
template <class T>
std::errc read_number(std::string_view tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  if (ptr != end) return std::errc::invalid_argument;
  return ec;
}

}  // namespace crooks::report
