/// \file channel.hpp
/// \brief The shard-channel concept: the bounded hand-off surface every
/// ingest pipeline (sharded emulator, stream router, net front-end)
/// builds on, and its mutex reference implementation.
///
/// A *shard channel* is a bounded SPSC hand-off between exactly one
/// producer thread and exactly one consumer thread.  The contract,
/// shared by both implementations and asserted by the channel
/// conformance suite (tests/emu_channel_test.cpp):
///
///  * **bounded + backpressure** — `push()` blocks once `capacity`
///    items are queued, so a producer that outruns its consumer stalls
///    instead of ballooning memory (for the socket front-end this
///    propagates all the way back to the TCP receive window);
///  * **FIFO per channel** — items pop in push order, which is what
///    keeps per-connection (and per-stream) reply ordering trivial;
///  * **loud close** — after `close()`, `push()` throws
///    `channel_closed` (including a push already *blocked* on a full
///    channel when close arrives — it wakes and throws instead of
///    deadlocking), and `pop()` drains the remaining items, then
///    returns false forever;
///  * **non-blocking probes** — `try_push`/`try_pop` return a status
///    (`ok`/`full|empty`/`closed`) and never block or throw.
///
/// Implementations:
///
///  * `spsc_ring` (emu/spsc_ring.hpp) — lock-free cache-line-padded
///    bounded ring (acquire/release atomics, power-of-two capacity,
///    cached-cursor publication).  Every pipeline hands off through it
///    (the lanes of emu/ingest.hpp's mesh).
///  * `mutex_channel` (this header) — mutex + condvar deque.  The
///    portable reference the conformance suite and bench_channel
///    measure the ring against; also tolerates multiple pushers (the
///    ring does not).
///
/// Buffer recycling is deliberately *not* part of the channel concept:
/// the producer/consumer memory round-trip lives in the standalone
/// `buffer_pool` (emu/buffer_pool.hpp), so hand-off and recycling are
/// separate, individually testable APIs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/require.hpp"

namespace hdhash {

/// Thrown by push() when the channel is (or becomes, while the push is
/// blocked on a full queue) closed: pushing into a closed channel is a
/// pipeline-protocol violation and must fail loudly, never block or
/// silently drop.
class channel_closed : public precondition_error {
 public:
  channel_closed() : precondition_error("push into a closed channel") {}
};

/// Non-blocking push outcome.
enum class push_status : std::uint8_t {
  ok,      ///< the item was moved into the channel
  full,    ///< no slot free; the item is untouched — retry later
  closed,  ///< the channel is closed; the item is untouched
};

/// Non-blocking pop outcome.
enum class pop_status : std::uint8_t {
  ok,      ///< an item was moved out
  empty,   ///< nothing queued right now (channel still open)
  closed,  ///< closed *and* drained — no item will ever arrive again
};

namespace detail {

/// Producer/consumer wait loop for the lock-free paths: spin briefly
/// (the common case — the peer is one batch away), then yield, then
/// park in short sleeps.  Progress resets the ladder.
class channel_backoff {
 public:
  void pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
      return;  // busy-spin: the peer is usually mid-batch
    }
    if (spins_ < kSpinLimit + kYieldLimit) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  void reset() { spins_ = 0; }

 private:
  static constexpr int kSpinLimit = 64;
  static constexpr int kYieldLimit = 16;
  int spins_ = 0;
};

}  // namespace detail

/// Mutex + condvar shard channel: the portable reference implementation
/// of the channel concept (and the conformance baseline the lock-free
/// ring is tested against).  Unlike the ring it tolerates any number of
/// pushers; the popping side is still single-consumer.
template <typename T>
class mutex_channel {
 public:
  /// \pre capacity >= 1.
  explicit mutex_channel(std::size_t capacity = 2) : capacity_(capacity) {
    HDHASH_REQUIRE(capacity_ >= 1, "channel capacity must be positive");
  }

  /// Blocks while the channel is full; throws channel_closed if the
  /// channel is closed — including when close() arrives while this
  /// push is already waiting on a full queue (the waiter wakes and
  /// throws instead of deadlocking; regression-tested).
  void push(T&& item) {
    std::unique_lock lock(mutex_);
    can_push_.wait(lock,
                   [this] { return queue_.size() < capacity_ || closed_; });
    if (closed_) {
      throw channel_closed();
    }
    queue_.push_back(std::move(item));
    can_pop_.notify_one();
  }

  /// Non-blocking push; `item` is moved from only on `ok`.
  push_status try_push(T& item) {
    const std::lock_guard lock(mutex_);
    if (closed_) {
      return push_status::closed;
    }
    if (queue_.size() >= capacity_) {
      return push_status::full;
    }
    queue_.push_back(std::move(item));
    can_pop_.notify_one();
    return push_status::ok;
  }

  /// Blocks for the next item; returns false once the channel is
  /// closed and drained.
  bool pop(T& out) {
    std::unique_lock lock(mutex_);
    can_pop_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) {
      return false;
    }
    out = std::move(queue_.front());
    queue_.pop_front();
    can_push_.notify_one();
    return true;
  }

  /// Non-blocking pop.  `closed` means closed *and* drained.
  pop_status try_pop(T& out) {
    const std::lock_guard lock(mutex_);
    if (!queue_.empty()) {
      out = std::move(queue_.front());
      queue_.pop_front();
      can_push_.notify_one();
      return pop_status::ok;
    }
    return closed_ ? pop_status::closed : pop_status::empty;
  }

  /// After close(), push() throws and pop() drains the remaining items,
  /// then returns false forever.  Wakes *both* sides: a consumer
  /// waiting on an empty queue and a producer blocked on a full one
  /// (the latter was the PR-7 deadlock — can_push_ never woke on
  /// close, so a push into a full channel after close() hung forever).
  void close() {
    const std::lock_guard lock(mutex_);
    closed_ = true;
    can_pop_.notify_all();
    can_push_.notify_all();
  }

  bool closed() const {
    const std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace hdhash
