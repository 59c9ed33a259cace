/// perfbench_selftest: checks the benchmark's own code on known data —
/// histogram and percentile math, reply accounting (-ERR replies,
/// wrong-typed replies, dropped connections and commands still
/// outstanding when a run ends count as failures), and the open-loop
/// schedule timing each request from its due time.
/// Exits non-zero when any check fails; run.py runs it before every
/// benchmark run.
#include <cmath>
#include <cstdio>

#include "stats.hpp"
#include "wire.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double value, double expected, double relative) {
  return std::fabs(value - expected) <= relative * std::fabs(expected);
}

using namespace perfbench;

void histogram_math() {
  // Exact region: 1..100 recorded once each.
  histogram small;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    small.record(v);
  }
  CHECK(small.count() == 100);
  CHECK(small.quantile(0.50) == 50.0);
  CHECK(small.quantile(0.99) == 99.0);
  CHECK(small.quantile(1.00) == 100.0);
  CHECK(small.quantile(0.0) == 1.0);
  CHECK(histogram().quantile(0.5) == 0.0);

  // Bucket geometry: every value lies in its bucket, buckets are
  // contiguous and no wider than 1/1024 of their lower bound.
  std::uint64_t previous_index = 0;
  for (std::uint64_t v = 0; v < 5'000'000; v += 1 + v / 97) {
    const std::size_t index = histogram::index_of(v);
    CHECK(histogram::lower_bound(index) <= v);
    CHECK(v < histogram::upper_bound(index));
    CHECK(index >= previous_index);
    previous_index = index;
    if (index + 1 < histogram::kBuckets) {
      CHECK(histogram::upper_bound(index) ==
            histogram::lower_bound(index + 1));
    }
    if (v >= histogram::kExact) {
      const double width = static_cast<double>(histogram::upper_bound(index) -
                                               histogram::lower_bound(index));
      CHECK(width <=
            static_cast<double>(histogram::lower_bound(index)) / 1024.0);
    }
  }
  CHECK(histogram::index_of(~std::uint64_t{0}) == histogram::kBuckets - 1);

  // Uniform 1..1,000,000: percentiles within the bucket resolution.
  histogram big;
  histogram half_a;
  histogram half_b;
  for (std::uint64_t v = 1; v <= 1'000'000; ++v) {
    big.record(v);
    (v % 2 == 0 ? half_a : half_b).record(v);
  }
  CHECK(near(big.quantile(0.50), 500'000.0, 0.004));
  CHECK(near(big.quantile(0.99), 990'000.0, 0.004));
  CHECK(near(big.quantile(0.999), 999'000.0, 0.004));
  // Merging is exact.
  half_a.merge(half_b);
  CHECK(half_a.count() == big.count());
  CHECK(half_a.quantile(0.5) == big.quantile(0.5));
  CHECK(half_a.quantile(0.99) == big.quantile(0.99));

  CHECK(median({}) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void reply_accounting() {
  command_ledger ledger;
  reply_scanner scanner;
  ledger.sent({command_kind::route, 5, 0, 0});
  ledger.sent({command_kind::route, 6, 0, 0});
  ledger.sent({command_kind::join, 0, 0, 0});
  ledger.sent({command_kind::route, 7, 0, 0});
  ledger.sent({command_kind::ping, 0, 0, 0});
  ledger.sent({command_kind::stats, 0, 0, 0});
  // A frame split across two reads, an error and a wrong-typed reply.
  scanner.feed(":55\r\n-ERR no servers in pool\r\n+OK\r\n:7");
  scanner.feed("7\r\n+OK\r\n$6\r\na=1\r\nb\r\n");
  reply_frame frame;
  sent_command command;
  CHECK(scanner.next(frame));
  CHECK(ledger.answer(frame, command) == reply_outcome::route_answer);
  CHECK(frame.value == 55 && command.key == 5);
  CHECK(scanner.next(frame));
  CHECK(ledger.answer(frame, command) == reply_outcome::failed);  // -ERR
  CHECK(scanner.next(frame));
  CHECK(ledger.answer(frame, command) == reply_outcome::ok);  // JOIN +OK
  CHECK(scanner.next(frame));
  CHECK(ledger.answer(frame, command) == reply_outcome::route_answer);
  CHECK(frame.value == 77 && command.key == 7);
  CHECK(scanner.next(frame));
  // A PING answered +OK.
  CHECK(ledger.answer(frame, command) == reply_outcome::failed);
  CHECK(scanner.next(frame));
  CHECK(frame.type == '$' && frame.text == "a=1\r\nb");
  CHECK(ledger.answer(frame, command) == reply_outcome::ok);
  CHECK(!scanner.next(frame));
  CHECK(ledger.failed() == 2);

  // A wrong answer the caller's check rejects.
  ledger.wrong_answer();
  CHECK(ledger.failed() == 3);

  // A reply with no command outstanding is a failure.
  scanner.feed(":1\r\n");
  CHECK(scanner.next(frame));
  CHECK(ledger.answer(frame, command) == reply_outcome::failed);
  CHECK(ledger.failed() == 4);

  // Dropped connection: everything outstanding counts failed.
  ledger.sent({command_kind::route, 1, 0, 0});
  ledger.sent({command_kind::route, 2, 0, 0});
  ledger.sent({command_kind::leave, 0, 0, 0});
  ledger.dropped();
  CHECK(ledger.outstanding() == 0);
  CHECK(ledger.failed() == 7);
  CHECK(ledger.attempted() == 9);

  // A run that ends with replies outstanding on a live connection:
  // settling its books counts them failed, once.
  command_ledger open;
  open.sent({command_kind::route, 1, 0, 0});
  open.sent({command_kind::route, 2, 0, 0});
  open.sent({command_kind::join, 0, 0, 0});
  scanner.feed(":9\r\n");
  CHECK(scanner.next(frame));
  CHECK(open.answer(frame, command) == reply_outcome::route_answer);
  std::uint64_t attempted = 10;
  std::uint64_t failed = 1;
  settle(open, attempted, failed);
  CHECK(attempted == 13 && failed == 3);
  CHECK(open.outstanding() == 0);
  command_ledger answered;  // nothing outstanding
  settle(answered, attempted, failed);
  CHECK(attempted == 13 && failed == 3);

  // Malformed frames latch the scanner.
  reply_scanner bad;
  bad.feed(":12a\r\n");
  CHECK(!bad.next(frame));
  CHECK(bad.failed());
  reply_scanner garbage;
  garbage.feed("?\r\n");
  CHECK(!garbage.next(frame));
  CHECK(garbage.failed());
}

void open_loop_timing() {
  // 100k req/s: one request due every 10 us.  The generator stalls
  // until t = 1 ms, then sends everything due; the replies arrive at
  // once.  Timed from the due time, the stall shows in the latencies
  // (coordinated omission is not hidden) and in the lateness.
  open_loop_schedule schedule(0, 100'000.0);
  reply_recorder recorder;
  recorder.paced = true;
  histogram lateness;
  const std::uint64_t stall_end = 1'000'000;
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  while (schedule.pop_due(stall_end, due)) {
    lateness.record(stall_end - due);
    // Sent at the stall's end, answered at once.
    recorder.reply(stall_end, {command_kind::route, 0, stall_end, due}, true);
    ++sent;
  }
  CHECK(sent == 101);  // due at 0, 10 us, ..., 1000 us
  CHECK(!schedule.pop_due(stall_end, due));
  CHECK(schedule.pop_due(stall_end + 10'000, due) && due == 1'010'000);
  CHECK(recorder.answered == 101 && recorder.replies == 101);
  CHECK(near(recorder.latency.quantile(0.50), 500'000.0, 0.004));
  CHECK(near(recorder.latency.quantile(0.99), 990'000.0, 0.004));
  CHECK(near(lateness.quantile(0.99), 990'000.0, 0.004));

  // The closed loop times the same reply from its send instead; a
  // reply that is not counted enters neither rate nor latency.
  reply_recorder closed;
  closed.reply(stall_end + 5'000, {command_kind::route, 0, stall_end, 0},
               true);
  closed.reply(stall_end + 9'000, {command_kind::route, 0, stall_end, 0},
               false);
  CHECK(closed.replies == 2 && closed.answered == 1);
  CHECK(closed.latency.count() == 1 &&
        near(closed.latency.quantile(0.50), 5'000.0, 0.004));

  // Without a stall every request is sent on time: lateness 0.
  open_loop_schedule steady(5'000, 100'000.0);
  histogram on_time;
  for (std::uint64_t t = 5'000; t < 5'000 + 1'000'000; t += 10'000) {
    while (steady.pop_due(t, due)) {
      on_time.record(t - due);
    }
  }
  CHECK(on_time.count() == 100);
  CHECK(on_time.quantile(1.0) == 0.0);
}

}  // namespace

int main() {
  histogram_math();
  reply_accounting();
  open_loop_timing();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
