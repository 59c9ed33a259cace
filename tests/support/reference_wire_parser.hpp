/// \file reference_wire_parser.hpp
/// \brief Test oracle: the tokenizer-based request parser that
/// `net::wire_parser` replaced, kept verbatim.
///
/// It splits each line into tokens with `find(' ')`, checks control
/// bytes in a loop of its own and parses ids with `std::from_chars`.
/// The one-pass parser must agree with it on every byte stream — same
/// result, command, error message, fatal latch and buffered count after
/// every `next()` — which `net_wire_fuzz_test` checks on mutated
/// pipelines.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/protocol.hpp"

namespace hdhash::testing {

class reference_wire_parser {
 public:
  explicit reference_wire_parser(
      std::size_t max_line_bytes = net::kMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  void feed(std::string_view bytes) {
    if (failed_) {
      return;  // sink further input — the connection is going away
    }
    // Compact before the buffer doubles in dead prefix.
    if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    buffer_.append(bytes);
  }

  net::parse_result next(net::wire_command& out) {
    using net::command_kind;
    using net::parse_result;
    using net::wire_command;
    if (failed_) {
      return parse_result::error;
    }
    const std::string_view pending =
        std::string_view(buffer_).substr(offset_);
    const std::size_t newline = pending.find('\n');
    if (newline == std::string_view::npos) {
      if (pending.size() >= max_line_bytes_) {
        failed_ = true;
        error_ = "line exceeds protocol maximum";
        return parse_result::error;
      }
      return parse_result::need_more;
    }
    if (newline + 1 > max_line_bytes_) {
      failed_ = true;
      error_ = "line exceeds protocol maximum";
      return parse_result::error;
    }
    // Accept CRLF (canonical) and bare LF (manual/netcat sessions).
    std::string_view line = pending.substr(0, newline);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    const std::size_t consume = newline + 1;
    if (line.empty()) {
      return fail_line("empty command", consume);
    }
    for (const char c : line) {
      if (c == '\0' || c == '\r') {
        return fail_line("control byte inside command", consume);
      }
    }
    std::string_view tokens[3];
    const int count = tokenize(line, tokens, 3);
    if (count < 0) {
      return fail_line("malformed token separators", consume);
    }
    const std::string_view verb = tokens[0];
    if (verb == "PING") {
      if (count != 1) {
        return fail_line("PING takes no arguments", consume);
      }
      out = wire_command{command_kind::ping, 0, 1.0};
    } else if (verb == "STATS") {
      if (count != 1) {
        return fail_line("STATS takes no arguments", consume);
      }
      out = wire_command{command_kind::stats, 0, 1.0};
    } else if (verb == "ROUTE") {
      std::uint64_t id = 0;
      if (count != 2 || !parse_u64(tokens[1], id)) {
        return fail_line("ROUTE needs one decimal id", consume);
      }
      out = wire_command{command_kind::route, id, 1.0};
    } else if (verb == "JOIN") {
      std::uint64_t id = 0;
      double weight = 1.0;
      if (count < 2 || count > 3 || !parse_u64(tokens[1], id) ||
          (count == 3 && !parse_weight(tokens[2], weight))) {
        return fail_line("JOIN needs a decimal id and optional weight > 0",
                         consume);
      }
      out = wire_command{command_kind::join, id, weight};
    } else if (verb == "LEAVE") {
      std::uint64_t id = 0;
      if (count != 2 || !parse_u64(tokens[1], id)) {
        return fail_line("LEAVE needs one decimal id", consume);
      }
      out = wire_command{command_kind::leave, id, 1.0};
    } else {
      return fail_line("unknown command", consume);
    }
    offset_ += consume;
    return parse_result::command;
  }

  const std::string& error_message() const noexcept { return error_; }
  bool failed() const noexcept { return failed_; }
  std::size_t buffered() const noexcept { return buffer_.size() - offset_; }

 private:
  /// Splits `line` into at most `max_tokens` space-separated tokens.
  /// Returns the token count, or -1 on empty tokens (doubled/leading/
  /// trailing separators) or token overflow — both malformed.
  static int tokenize(std::string_view line, std::string_view* tokens,
                      int max_tokens) {
    int count = 0;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      const std::size_t space = line.find(' ', pos);
      const std::size_t end = space == std::string_view::npos ? line.size()
                                                              : space;
      if (end == pos) {
        return -1;  // empty token
      }
      if (count == max_tokens) {
        return -1;  // too many tokens
      }
      tokens[count++] = line.substr(pos, end - pos);
      if (space == std::string_view::npos) {
        break;
      }
      pos = space + 1;
    }
    return count;
  }

  /// Strict full-token uint64 parse (decimal, no sign, no trailing junk).
  static bool parse_u64(std::string_view token, std::uint64_t& out) {
    if (token.empty() || token.size() > 20) {
      return false;
    }
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), out);
    return ec == std::errc{} && ptr == token.data() + token.size();
  }

  /// Strict full-token positive double parse for JOIN weights.
  static bool parse_weight(std::string_view token, double& out) {
    if (token.empty() || token.size() > 32 || token.front() == '-' ||
        token.front() == '+') {
      return false;
    }
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), out);
    return ec == std::errc{} && ptr == token.data() + token.size() &&
           out > 0.0;
  }

  net::parse_result fail_line(std::string_view message,
                              std::size_t consume) {
    error_.assign(message);
    offset_ += consume;
    return net::parse_result::error;
  }

  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t offset_ = 0;
  std::string error_;
  bool failed_ = false;
};

}  // namespace hdhash::testing
