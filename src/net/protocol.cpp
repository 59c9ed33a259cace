#include "net/protocol.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace hdhash::net {

namespace {

/// Longest ROUTE reply: ':' + 20 digits + CRLF.
constexpr std::size_t kMaxRouteReplyBytes = 23;

/// Writes ":<server>\r\n" at `at` and returns one past its end.
char* write_route_reply(char* at, std::uint64_t server) {
  *at++ = ':';
  at = std::to_chars(at, at + 20, server).ptr;
  *at++ = '\r';
  *at++ = '\n';
  return at;
}

/// Reads the eight bytes at `at` as decimal digits (most significant
/// first) into `out`; false when any of them is not a digit.  This is
/// the SWAR digit parse of fast_float/simdjson: check all eight bytes
/// at once, then fold digit pairs, quads and halves with multiplies.
bool parse_eight_digits(const char* at, std::uint64_t& out) {
  std::uint64_t chunk = 0;
  std::memcpy(&chunk, at, sizeof chunk);
  if constexpr (std::endian::native == std::endian::big) {
    chunk = __builtin_bswap64(chunk);  // first byte in the low lane
  }
  // A byte is a digit iff its high nibble is 3 and adding 6 keeps it 3.
  const std::uint64_t high = chunk & 0xF0F0F0F0F0F0F0F0ull;
  const std::uint64_t bumped =
      (chunk + 0x0606060606060606ull) & 0xF0F0F0F0F0F0F0F0ull;
  if ((high | bumped >> 4) != 0x3333333333333333ull) {
    return false;
  }
  chunk = (chunk & 0x0F0F0F0F0F0F0F0Full) * 2561 >> 8;
  chunk = (chunk & 0x00FF00FF00FF00FFull) * 6553601 >> 16;
  out = (chunk & 0x0000FFFF0000FFFFull) * 42949672960001ull >> 32;
  return true;
}

/// Reads the run of decimal digits at `at` into `value` and leaves `at`
/// past it; true when the run has 1 to 20 digits and fits in uint64.
/// Eight digits go per step while the total stays within 19, which
/// cannot overflow; only a 20th digit needs an overflow check.
bool scan_decimal(const char*& at, const char* end, std::uint64_t& value) {
  std::size_t digits = 0;
  std::uint64_t eight = 0;
  while (digits + 8 <= 19 && end - at >= 8 && parse_eight_digits(at, eight)) {
    value = value * 100'000'000 + eight;
    at += 8;
    digits += 8;
  }
  bool overflow = false;
  for (; at < end; ++at, ++digits) {
    const unsigned digit =
        static_cast<unsigned char>(*at) - static_cast<unsigned>('0');
    if (digit > 9) {
      break;
    }
    if (digits < 19) {
      value = value * 10 + digit;
    } else {
      overflow = overflow || __builtin_mul_overflow(value, 10u, &value) ||
                 __builtin_add_overflow(value, digit, &value);
    }
  }
  return digits >= 1 && digits <= 20 && !overflow;
}

/// Strict full-token uint64 parse (decimal, no sign, no trailing junk)
/// for integer reply frames.
bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty() || token.size() > 20) {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

/// Strict full-token positive double parse for JOIN weights.
bool parse_weight(std::string_view token, double& out) {
  if (token.empty() || token.size() > 32 || token.front() == '-' ||
      token.front() == '+') {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size() &&
         out > 0.0;
}

}  // namespace

wire_parser::wire_parser(std::size_t max_line_bytes)
    : max_line_bytes_(max_line_bytes) {}

void wire_parser::feed(std::string_view bytes) {
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

parse_result wire_parser::fail_line(std::string_view message,
                                    std::size_t consume) {
  error_.assign(message);
  offset_ += consume;
  return parse_result::error;
}

parse_result wire_parser::next(wire_command& out) {
  if (failed_) {
    return parse_result::error;
  }
  const char* const pending = buffer_.data() + offset_;
  const std::size_t available = buffer_.size() - offset_;
  const auto* const newline_at =
      static_cast<const char*>(std::memchr(pending, '\n', available));
  if (newline_at == nullptr) {
    if (available >= max_line_bytes_) {
      failed_ = true;
      error_ = "line exceeds protocol maximum";
      return parse_result::error;
    }
    return parse_result::need_more;
  }
  const auto newline = static_cast<std::size_t>(newline_at - pending);
  if (newline + 1 > max_line_bytes_) {
    failed_ = true;
    error_ = "line exceeds protocol maximum";
    return parse_result::error;
  }
  // Accept CRLF (canonical) and bare LF (manual/netcat sessions).
  std::size_t length = newline;
  if (length > 0 && pending[length - 1] == '\r') {
    --length;
  }
  const std::size_t consume = newline + 1;
  if (length == 0) {
    return fail_line("empty command", consume);
  }

  // One pass over the line, token by token: every byte is checked for
  // a control byte, separators delimit at most three tokens (none
  // empty), and the second token is read as a decimal uint64 on the
  // way.  The verdicts are applied afterwards in a fixed order, so the
  // first failing rule names the error wherever its byte sits.
  const char* at = pending;
  const char* const end = pending + length;
  std::string_view tokens[3];
  std::size_t count = 0;
  bool control = false;
  bool malformed = false;
  std::uint64_t id = 0;
  bool id_ok = false;
  for (;;) {
    const char* const start = at;
    if (count == 1) {
      id_ok = scan_decimal(at, end, id) && (at == end || *at == ' ');
    }
    for (; at < end && *at != ' '; ++at) {
      control = control || *at == '\0' || *at == '\r';
    }
    malformed = malformed || at == start;  // empty token
    if (count < 3) {
      tokens[count] =
          std::string_view(start, static_cast<std::size_t>(at - start));
    }
    ++count;
    if (at == end) {
      break;
    }
    if (++at == end) {
      malformed = true;  // trailing separator
      break;
    }
  }
  if (control) {
    return fail_line("control byte inside command", consume);
  }
  if (malformed || count > 3) {
    return fail_line("malformed token separators", consume);
  }
  const std::string_view verb = tokens[0];
  if (verb == "ROUTE") {
    if (count != 2 || !id_ok) {
      return fail_line("ROUTE needs one decimal id", consume);
    }
    out = wire_command{command_kind::route, id, 1.0};
  } else if (verb == "PING") {
    if (count != 1) {
      return fail_line("PING takes no arguments", consume);
    }
    out = wire_command{command_kind::ping, 0, 1.0};
  } else if (verb == "STATS") {
    if (count != 1) {
      return fail_line("STATS takes no arguments", consume);
    }
    out = wire_command{command_kind::stats, 0, 1.0};
  } else if (verb == "JOIN") {
    double weight = 1.0;
    if (!id_ok || (count == 3 && !parse_weight(tokens[2], weight))) {
      return fail_line("JOIN needs a decimal id and optional weight > 0",
                       consume);
    }
    out = wire_command{command_kind::join, id, weight};
  } else if (verb == "LEAVE") {
    if (count != 2 || !id_ok) {
      return fail_line("LEAVE needs one decimal id", consume);
    }
    out = wire_command{command_kind::leave, id, 1.0};
  } else {
    return fail_line("unknown command", consume);
  }
  offset_ += consume;
  return parse_result::command;
}

// --- reply encoding ----------------------------------------------------

void encode_ok(std::string& out) { out.append("+OK\r\n"); }

void encode_pong(std::string& out) { out.append("+PONG\r\n"); }

void encode_route_reply(std::string& out, std::uint64_t server) {
  char reply[kMaxRouteReplyBytes];
  out.append(reply, static_cast<std::size_t>(
                        write_route_reply(reply, server) - reply));
}

void encode_route_replies(std::string& out,
                          std::span<const std::uint64_t> servers) {
  // Grow once for the worst case, write every reply in place, then
  // trim to what was written.
  const std::size_t used = out.size();
  out.resize(used + servers.size() * kMaxRouteReplyBytes);
  char* at = out.data() + used;
  for (const std::uint64_t server : servers) {
    at = write_route_reply(at, server);
  }
  out.resize(static_cast<std::size_t>(at - out.data()));
}

void encode_error(std::string& out, std::string_view message) {
  out.append("-ERR ");
  out.append(message);
  out.append("\r\n");
}

void encode_bulk(std::string& out, std::string_view payload) {
  char header[24];
  const int written =
      std::snprintf(header, sizeof header, "$%zu\r\n", payload.size());
  out.append(header, static_cast<std::size_t>(written));
  out.append(payload);
  out.append("\r\n");
}

// --- reply parsing -----------------------------------------------------

reply_parser::reply_parser(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void reply_parser::feed(std::string_view bytes) {
  if (failed_) {
    return;
  }
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  buffer_.append(bytes);
}

parse_result reply_parser::fail(std::string_view message) {
  failed_ = true;
  error_.assign(message);
  return parse_result::error;
}

parse_result reply_parser::next(wire_reply& out) {
  if (failed_) {
    return parse_result::error;
  }
  const std::string_view pending =
      std::string_view(buffer_).substr(offset_);
  if (pending.empty()) {
    return parse_result::need_more;
  }
  const std::size_t newline = pending.find('\n');
  if (newline == std::string_view::npos) {
    if (pending.size() >= max_frame_bytes_) {
      return fail("reply line exceeds frame maximum");
    }
    return parse_result::need_more;
  }
  if (newline == 0 || pending[newline - 1] != '\r') {
    return fail("reply line not CRLF-terminated");
  }
  const std::string_view line = pending.substr(0, newline - 1);
  const std::size_t line_consume = newline + 1;
  switch (pending[0]) {
    case '+':
      out.type = wire_reply::kind::status;
      out.text.assign(line.substr(1));
      out.value = 0;
      offset_ += line_consume;
      return parse_result::command;
    case '-':
      out.type = wire_reply::kind::error;
      out.text.assign(line.substr(1));
      out.value = 0;
      offset_ += line_consume;
      return parse_result::command;
    case ':': {
      std::uint64_t value = 0;
      if (!parse_u64(line.substr(1), value)) {
        return fail("malformed integer reply");
      }
      out.type = wire_reply::kind::integer;
      out.value = value;
      out.text.clear();
      offset_ += line_consume;
      return parse_result::command;
    }
    case '$': {
      std::uint64_t length = 0;
      if (!parse_u64(line.substr(1), length) ||
          length > max_frame_bytes_) {
        return fail("malformed bulk header");
      }
      // Whole frame: header line + payload + CRLF.
      const std::size_t frame = line_consume + length + 2;
      if (pending.size() < frame) {
        return parse_result::need_more;
      }
      if (pending[line_consume + length] != '\r' ||
          pending[line_consume + length + 1] != '\n') {
        return fail("bulk payload not CRLF-terminated");
      }
      out.type = wire_reply::kind::bulk;
      out.value = length;
      out.text.assign(pending.substr(line_consume, length));
      offset_ += frame;
      return parse_result::command;
    }
    default:
      return fail("unknown reply type tag");
  }
}

}  // namespace hdhash::net
