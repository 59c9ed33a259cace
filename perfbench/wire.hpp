/// \file wire.hpp
/// \brief The load generator's client-side code: a reply scanner,
/// per-connection command accounting, the open-loop send schedule and
/// the reply recorder.  Written apart from src/net so that a change to
/// the server's own parser cannot change how the benchmark reads replies.
/// Pure code with no hdhash dependency (checked by perfbench_selftest).
/// Times are nanoseconds on one monotonic clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "stats.hpp"

namespace perfbench {

/// One reply frame: ':' integer, '+' status, '-' error, '$' bulk.
struct reply_frame {
  char type = 0;
  std::uint64_t value = 0;  ///< integer replies
  std::string_view text;    ///< status / error / bulk payload; valid
                            ///< until the next feed()
};

/// Incremental reply scanner.  A malformed frame latches failed(): a
/// client cannot resynchronise a reply stream it does not understand.
class reply_scanner {
 public:
  void feed(std::string_view bytes) {
    if (offset_ > 0 && offset_ == buffer_.size()) {
      buffer_.clear();
      offset_ = 0;
    } else if (offset_ > (1u << 16)) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    buffer_.append(bytes);
  }

  /// True and fills `out` when one complete frame is buffered.
  bool next(reply_frame& out) {
    if (failed_ || offset_ >= buffer_.size()) {
      return false;
    }
    const std::string_view rest(buffer_.data() + offset_,
                                buffer_.size() - offset_);
    const std::size_t eol = rest.find("\r\n");
    if (eol == std::string_view::npos) {
      failed_ = rest.size() > kMaxLine;
      return false;
    }
    const char type = rest[0];
    const std::string_view body = rest.substr(1, eol - 1);
    out.type = type;
    out.value = 0;
    out.text = {};
    switch (type) {
      case ':': {
        if (body.empty() || body.size() > 20) {
          failed_ = true;
          return false;
        }
        std::uint64_t value = 0;
        for (const char c : body) {
          if (c < '0' || c > '9') {
            failed_ = true;
            return false;
          }
          value = value * 10 + static_cast<std::uint64_t>(c - '0');
        }
        out.value = value;
        offset_ += eol + 2;
        return true;
      }
      case '+':
      case '-':
        out.text = body;
        offset_ += eol + 2;
        return true;
      case '$': {
        std::size_t length = 0;
        for (const char c : body) {
          if (c < '0' || c > '9' || length > (1u << 20)) {
            failed_ = true;
            return false;
          }
          length = length * 10 + static_cast<std::size_t>(c - '0');
        }
        const std::size_t start = eol + 2;
        if (rest.size() < start + length + 2) {
          return false;  // payload not complete yet
        }
        if (rest.substr(start + length, 2) != "\r\n") {
          failed_ = true;
          return false;
        }
        out.text = rest.substr(start, length);
        offset_ += start + length + 2;
        return true;
      }
      default:
        failed_ = true;
        return false;
    }
  }

  bool failed() const noexcept { return failed_; }

 private:
  static constexpr std::size_t kMaxLine = 256;
  std::string buffer_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

enum class command_kind : std::uint8_t { route, join, leave, ping, stats };

/// One command sent and not yet answered.
struct sent_command {
  command_kind kind = command_kind::route;
  std::uint32_t key = 0;       ///< key index (ROUTE)
  std::uint64_t sent_ns = 0;   ///< when it was written
  std::uint64_t due_ns = 0;    ///< when it was due (open loop; else sent)
};

/// Outcome of matching one reply frame against the oldest command.
enum class reply_outcome : std::uint8_t {
  route_answer,  ///< integer answer to a ROUTE — the caller checks it
  ok,            ///< expected status/bulk reply to a non-ROUTE command
  failed,        ///< -ERR, wrong reply type, or a reply with no command
};

/// Per-connection command accounting: every command sent is answered,
/// counted failed on an error or wrong-typed reply, or counted failed
/// when the connection drops with it still outstanding.
class command_ledger {
 public:
  void sent(const sent_command& command) {
    pending_.push_back(command);
    ++attempted_;
  }

  /// Matches `frame` with the oldest outstanding command (written to
  /// `command`, when there is one).
  reply_outcome answer(const reply_frame& frame, sent_command& command) {
    if (pending_.empty()) {
      ++failed_;
      return reply_outcome::failed;
    }
    command = pending_.front();
    pending_.pop_front();
    bool good = false;
    switch (command.kind) {
      case command_kind::route:
        if (frame.type == ':') {
          return reply_outcome::route_answer;
        }
        break;
      case command_kind::join:
      case command_kind::leave:
        good = frame.type == '+' && frame.text == "OK";
        break;
      case command_kind::ping:
        good = frame.type == '+' && frame.text == "PONG";
        break;
      case command_kind::stats:
        good = frame.type == '$';
        break;
    }
    if (!good) {
      ++failed_;
      return reply_outcome::failed;
    }
    return reply_outcome::ok;
  }

  /// A ROUTE answer that failed the caller's correctness check.
  void wrong_answer() { ++failed_; }

  /// The connection is gone: everything outstanding was never answered.
  void dropped() {
    failed_ += pending_.size();
    pending_.clear();
  }

  std::size_t outstanding() const noexcept { return pending_.size(); }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::deque<sent_command> pending_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Closes a connection's books into run totals.  Commands still
/// outstanding when a run ends were never answered: they count failed.
inline void settle(command_ledger& ledger, std::uint64_t& attempted,
                   std::uint64_t& failed) {
  ledger.dropped();
  attempted += ledger.attempted();
  failed += ledger.failed();
}

/// Open-loop send schedule: request i is due at start + i / rate.
/// Latency is timed from the due time, so a generator or server stall
/// charges every request that fell due during it.
class open_loop_schedule {
 public:
  open_loop_schedule(std::uint64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

  std::uint64_t due(std::uint64_t index) const noexcept {
    return start_ns_ +
           static_cast<std::uint64_t>(static_cast<double>(index) * period_ns_);
  }

  /// True and sets `due_ns` when the next request is due at `now_ns`.
  bool pop_due(std::uint64_t now_ns, std::uint64_t& due_ns) noexcept {
    const std::uint64_t next = due(issued_);
    if (next > now_ns) {
      return false;
    }
    due_ns = next;
    ++issued_;
    return true;
  }

 private:
  std::uint64_t start_ns_;
  double period_ns_;
  std::uint64_t issued_ = 0;
};

/// Reply counts and one latency histogram of a measured interval.
struct reply_recorder {
  bool paced = false;      ///< time latency from the due time
  std::uint64_t replies = 0;   ///< every reply
  std::uint64_t answered = 0;  ///< answered ROUTEs (PINGs)
  histogram latency;           ///< of the answered ones, ns

  /// `counted`: an answered ROUTE (PING) that enters rate and latency.
  void reply(std::uint64_t t, const sent_command& command, bool counted) {
    ++replies;
    if (counted) {
      ++answered;
      latency.record(t - (paced ? command.due_ns : command.sent_ns));
    }
  }
};

}  // namespace perfbench
