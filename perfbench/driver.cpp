/// perfbench_driver: one run of one routing workload.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    --server PATH [--trace-out DIR]
///
/// --trace 0 (end-to-end run): starts perfbench_server in its own
/// process (set up several times; setup_s is the median), drives it
/// over loopback TCP from this single-threaded, non-blocking generator
/// (4 connections, 128 pipelined commands each, or the open-loop
/// schedule of route-paced), checks every reply, and reports delivered
/// ROUTE replies/s, latency percentiles, server CPU per reply, setup
/// time and server peak RSS.
///
/// --trace 1 (traced run): a shorter end-to-end phase plus a pipelined
/// PING phase over TCP, then an in-process replay of the same command
/// stream through each layer's public functions, timed from this file
/// as trace spans.  Reports the per-layer metrics, each layer's self
/// time, the residual against the end-to-end CPU cost, and the tracing
/// overhead; the spans are dumped to --trace-out.
///
/// The last stdout line is one JSON object: correct, attempted, failed
/// and metrics.  The line before it is the run's context.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "emu/emulator.hpp"
#include "emu/snapshot.hpp"
#include "emu/stream_router.hpp"
#include "mem/arena_options.hpp"
#include "mem/hugepage_arena.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "runtime/cpu_topology.hpp"
#include "runtime/worker_pool.hpp"
#include "simd/hamming_kernel.hpp"
#include "stats.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using hdhash::server_id;

constexpr std::size_t kSetups = 25;         // set-ups timed per run
constexpr double kWarmupSeconds = 0.3;      // traffic before measuring
constexpr double kSegmentSeconds = 1.0;     // measured between steal checks
constexpr double kMaxStealShare = 0.005;    // a segment above is disturbed
constexpr double kExtraSegments = 1.2;      // extra segments, per segment
constexpr double kDrainSeconds = 5.0;       // wait for late replies
constexpr double kPingSeconds = 1.0;        // traced run: PING phase

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The live server process, killed and reaped by die().
pid_t g_server_pid = -1;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
  }
  std::exit(1);
}

// --- options and CPU split --------------------------------------------

struct options {
  const workload_spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string server_path;
  std::string trace_out;
};

options parse_options(int argc, char** argv) {
  options opts;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.spec = find_workload(value);
      if (opts.spec == nullptr) {
        die("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--server") {
      opts.server_path = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      die("unknown flag " + flag);
    }
  }
  if (opts.spec == nullptr || !have_seed || opts.seconds <= 0.0 ||
      opts.server_path.empty()) {
    die("usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 --server PATH [--trace-out DIR]");
  }
  return opts;
}

/// Server threads plus the generator thread stay within the allowed
/// CPUs: the server process gets all but the last allowed CPU (1 io
/// thread, the rest shards), the generator is pinned to the last one.
struct cpu_split {
  std::vector<int> allowed;
  cpu_set_t server_set{};
  int generator_cpu = -1;
  std::size_t io_threads = 1;
  std::size_t shards = 1;
};

cpu_split plan_cpus() {
  cpu_split split;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
    die("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) {
      split.allowed.push_back(cpu);
    }
  }
  CPU_ZERO(&split.server_set);
  const std::size_t server_cpus =
      split.allowed.size() >= 2 ? split.allowed.size() - 1
                                : split.allowed.size();
  for (std::size_t i = 0; i < server_cpus; ++i) {
    CPU_SET(split.allowed[i], &split.server_set);
  }
  if (split.allowed.size() >= 2) {
    split.generator_cpu = split.allowed.back();
  }
  split.shards = server_cpus >= 2 ? server_cpus - 1 : 1;
  return split;
}

void pin_thread(const cpu_set_t& set) {
  sched_setaffinity(0, sizeof set, &set);
}

void pin_generator(const cpu_split& split) {
  if (split.generator_cpu < 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(split.generator_cpu, &one);
  pin_thread(one);
}

// --- reference answers ------------------------------------------------

/// Base-membership table plus its answer for every key, computed
/// through the public API (snapshot + lookup_batch) on all allowed CPUs.
struct reference {
  std::unique_ptr<hdhash::dynamic_table> table;
  std::vector<server_id> base;
};

reference build_reference(const workload_spec& spec, const key_space& keys,
                          std::size_t threads) {
  reference ref;
  ref.table = make_workload_table(spec);
  join_initial_members(*ref.table, spec);
  const std::shared_ptr<const hdhash::dynamic_table> snap =
      ref.table->snapshot();
  ref.base.assign(kKeys, 0);
  std::vector<std::thread> workers;
  const std::size_t chunk = (kKeys + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t begin = std::min(kKeys, t * chunk);
      const std::size_t end = std::min(kKeys, begin + chunk);
      for (std::size_t i = begin; i < end; i += 1024) {
        const std::size_t n = std::min<std::size_t>(1024, end - i);
        snap->lookup_batch(
            std::span<const std::uint64_t>(keys.ids.data() + i, n),
            std::span<server_id>(ref.base.data() + i, n));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  return ref;
}

// --- server process ---------------------------------------------------

struct server_process {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;
};

server_process spawn_server(const options& opts, const cpu_split& split) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    die("pipe2 failed");
  }
  const std::string io = std::to_string(split.io_threads);
  const std::string shards = std::to_string(split.shards);
  const std::string workload(opts.spec->name);
  const pid_t pid = fork();
  if (pid < 0) {
    die("fork failed");
  }
  if (pid == 0) {
    sched_setaffinity(0, sizeof split.server_set, &split.server_set);
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    const char* args[] = {opts.server_path.c_str(), "--workload",
                          workload.c_str(),         "--io",
                          io.c_str(),               "--shards",
                          shards.c_str(),           nullptr};
    execv(opts.server_path.c_str(), const_cast<char* const*>(args));
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  g_server_pid = pid;
  server_process proc;
  proc.pid = pid;
  proc.stdin_fd = in_pipe[1];
  proc.stdout_fd = out_pipe[0];
  std::string line;
  while (line.find('\n') == std::string::npos) {
    pollfd pfd{proc.stdout_fd, POLLIN, 0};
    if (poll(&pfd, 1, 60'000) <= 0) {
      die("server did not become ready");
    }
    char buffer[128];
    const ssize_t got = read(proc.stdout_fd, buffer, sizeof buffer);
    if (got <= 0) {
      die("server exited before it was ready");
    }
    line.append(buffer, static_cast<std::size_t>(got));
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "READY %u", &port) != 1 || port == 0) {
    die("unexpected server banner: " + line);
  }
  proc.port = static_cast<std::uint16_t>(port);
  return proc;
}

/// Closes the server's stdin (it drains and exits) and reaps it; kills
/// it when it does not exit within 20 s.
void stop_server(server_process& proc) {
  if (proc.pid < 0) {
    return;
  }
  close(proc.stdin_fd);
  int status = 0;
  const std::uint64_t deadline = now_ns() + 20'000'000'000ull;
  while (waitpid(proc.pid, &status, WNOHANG) == 0) {
    if (now_ns() > deadline) {
      kill(proc.pid, SIGKILL);
      waitpid(proc.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  close(proc.stdout_fd);
  proc.pid = -1;
  g_server_pid = -1;
}

/// CPU time (user + system, all threads) of a live child process, in
/// nanoseconds, from its process CPU-time clock.
std::uint64_t server_cpu_ns(pid_t pid) {
  clockid_t clock_id;
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock_id) != 0 ||
      clock_gettime(clock_id, &ts) != 0) {
    die("cannot read the server's CPU clock");
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// VmHWM (peak resident set) of a live process, in kB.
std::uint64_t server_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  die("cannot read server VmHWM");
}

/// Host-wide CPU tick counters from /proc/stat (all zero when absent).
struct host_ticks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

host_ticks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  host_ticks ticks;
  if (!(in >> label) || label != "cpu") {
    return ticks;
  }
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) {
      break;
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

/// Share of all CPU time between two readings that was stolen.
double steal_share(const host_ticks& before, const host_ticks& after) {
  const double total = static_cast<double>(after.total - before.total);
  return total > 0.0
             ? static_cast<double>(after.steal - before.steal) / total
             : 0.0;
}

// --- correctness ------------------------------------------------------

/// Checks every ROUTE answer.  Static workloads: the answer equals the
/// reference table's.  route-churn: connection 0's answers must match
/// an exact replay of its own stream (and the plain emulator's load
/// histogram); an answer on another connection must equal the
/// reference answer under some membership epoch open while the
/// request was in flight.  Epoch v follows v membership changes; even
/// epochs have the base membership (JOIN x / LEAVE x alternate).
///
/// An answer flagged `control` is the negative control: the generator
/// corrupted it on purpose.  It is checked like any other; finish()
/// reports how many such answers its checks caught.
class verifier {
 public:
  verifier(const workload_spec& spec, const key_space& keys,
           const reference& ref)
      : spec_(spec), keys_(keys), ref_(ref) {}

  /// Online check of an answer on a connection other than route-churn's
  /// connection 0.  False = certainly wrong; true = right or deferred
  /// to finish().
  bool check(std::uint32_t key, server_id answer, std::uint64_t sent_ns,
             bool control) {
    const bool base_match = answer == ref_.base[key];
    if (!spec_.churn) {
      return base_match;
    }
    const auto [lo, hi] = open_epochs(sent_ns);
    const bool has_even = lo % 2 == 0 || lo < hi;
    if (base_match && has_even) {
      return true;
    }
    if (!odd_epoch_open(sent_ns)) {
      return false;
    }
    deferred_.push_back({key, answer, lo, hi, control});
    return true;
  }

  /// route-churn: whether an epoch with a joined fresh server was open
  /// while a request sent at `sent_ns` was in flight, so that a wrong
  /// answer to it is only found by finish().
  bool odd_epoch_open(std::uint64_t sent_ns) const {
    const auto [lo, hi] = open_epochs(sent_ns);
    return lo % 2 == 1 || lo < hi;
  }

  /// route-churn connection 0: a command of its stream was sent.
  void conn0_sent(const stream_command& command) {
    log_.push_back({command.kind, command.key, command.server, 0, false,
                    false});
    if (command.kind != command_kind::route) {
      op_server_.push_back(command.server);
    }
  }

  /// ... and its oldest unanswered command was answered (`ok` false for
  /// an error reply).
  void conn0_answered(server_id answer, bool ok, std::uint64_t t,
                      bool control) {
    entry& e = log_[answered_++];
    e.answer = answer;
    e.answered = ok;
    e.control = control;
    if (e.kind != command_kind::route) {
      op_reply_ns_.push_back(t);
      failed_changes_ += ok ? 0 : 1;
    }
  }

  /// Offline checks; returns the number of wrong answers, controls
  /// among them, and adds the controls it caught to `controls_caught`.
  /// Sets `emulator_ok` from the emulator histogram comparison.
  std::uint64_t finish(bool& emulator_ok,
                       std::uint64_t& controls_caught) const {
    emulator_ok = true;
    if (!spec_.churn) {
      return 0;
    }
    return check_connection0(emulator_ok, controls_caught) +
           check_deferred(controls_caught);
  }

 private:
  struct entry {
    command_kind kind;
    std::uint32_t key;
    std::uint64_t server;
    server_id answer;
    bool answered;
    bool control;
  };
  struct pending_check {
    std::uint32_t key;
    server_id answer;
    std::uint64_t lo;
    std::uint64_t hi;
    bool control;
  };

  /// [lo, hi]: the epochs open while a request sent at `sent_ns` was in
  /// flight, up to now.  Every change sent so far was sent before the
  /// reply arrived (hi); the first epoch still open at sent_ns is the
  /// one whose closing change (change v+1) was answered after it (lo).
  std::pair<std::uint64_t, std::uint64_t> open_epochs(
      std::uint64_t sent_ns) const {
    const auto it = std::upper_bound(op_reply_ns_.begin(), op_reply_ns_.end(),
                                     sent_ns);
    return {static_cast<std::uint64_t>(it - op_reply_ns_.begin()),
            op_server_.size()};
  }

  void apply(hdhash::dynamic_table& table, command_kind kind,
             std::uint64_t server) const {
    if (kind == command_kind::join) {
      table.join(server);
    } else {
      table.leave(server);
    }
  }

  std::uint64_t check_connection0(bool& emulator_ok,
                                  std::uint64_t& controls_caught) const {
    std::unique_ptr<hdhash::dynamic_table> table = ref_.table->clone();
    std::uint64_t wrong = 0;
    std::vector<std::uint64_t> ids;
    std::vector<const entry*> routes;
    std::vector<server_id> answers;
    std::unordered_map<server_id, std::uint64_t> load;
    std::vector<hdhash::event> events;
    bool all_answered = true;
    const auto resolve = [&] {
      answers.resize(ids.size());
      table->lookup_batch(ids, answers);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (routes[i]->answered && routes[i]->answer != answers[i]) {
          ++wrong;
          controls_caught += routes[i]->control ? 1 : 0;
        }
      }
      ids.clear();
      routes.clear();
    };
    for (const entry& e : log_) {
      if (e.kind == command_kind::route) {
        ids.push_back(keys_.ids[e.key]);
        routes.push_back(&e);
        all_answered = all_answered && e.answered;
        // The control's true answer is unknown: it stays out of both
        // load histograms.
        if (!e.control) {
          ++load[e.answer];
          events.push_back(
              {hdhash::event_kind::request, keys_.ids[e.key], 1.0});
        }
        continue;
      }
      resolve();
      apply(*table, e.kind, e.server);
      events.push_back({e.kind == command_kind::join
                            ? hdhash::event_kind::join
                            : hdhash::event_kind::leave,
                        e.server, 1.0});
    }
    resolve();
    if (all_answered && failed_changes_ == 0) {
      std::unique_ptr<hdhash::dynamic_table> replay = ref_.table->clone();
      hdhash::emulator emulator(*replay);
      emulator.set_timing(false);
      const hdhash::run_stats stats = emulator.run(events);
      std::unordered_map<server_id, std::uint64_t> expected(
          stats.load.begin(), stats.load.end());
      std::erase_if(expected, [](const auto& kv) { return kv.second == 0; });
      emulator_ok = expected == load;
    }
    return wrong;
  }

  std::uint64_t check_deferred(std::uint64_t& controls_caught) const {
    // (odd epoch, deferred index) pairs, resolved by walking the
    // membership changes in order on one reference table.
    std::vector<std::pair<std::uint64_t, std::size_t>> wanted;
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      for (std::uint64_t v = deferred_[i].lo; v <= deferred_[i].hi; ++v) {
        if (v % 2 == 1) {
          wanted.emplace_back(v, i);
        }
      }
    }
    std::sort(wanted.begin(), wanted.end());
    std::vector<bool> passed(deferred_.size(), false);
    std::unique_ptr<hdhash::dynamic_table> table = ref_.table->clone();
    std::uint64_t epoch = 0;
    std::size_t next = 0;
    std::vector<std::uint64_t> ids;
    std::vector<server_id> answers;
    while (next < wanted.size()) {
      const std::uint64_t v = wanted[next].first;
      while (epoch < v) {
        apply(*table,
              epoch % 2 == 0 ? command_kind::join : command_kind::leave,
              op_server_[epoch]);
        ++epoch;
      }
      std::size_t end = next;
      ids.clear();
      while (end < wanted.size() && wanted[end].first == v) {
        ids.push_back(keys_.ids[deferred_[wanted[end].second].key]);
        ++end;
      }
      answers.resize(ids.size());
      table->lookup_batch(ids, answers);
      for (std::size_t j = next; j < end; ++j) {
        const pending_check& c = deferred_[wanted[j].second];
        if (answers[j - next] == c.answer) {
          passed[wanted[j].second] = true;
        }
      }
      next = end;
    }
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      if (!passed[i]) {
        ++wrong;
        controls_caught += deferred_[i].control ? 1 : 0;
      }
    }
    return wrong;
  }

  const workload_spec& spec_;
  const key_space& keys_;
  const reference& ref_;
  std::vector<entry> log_;
  std::size_t answered_ = 0;
  std::vector<std::uint64_t> op_reply_ns_;  ///< change v+1 answered at [v]
  std::vector<std::uint64_t> op_server_;    ///< server of change v+1 at [v]
  std::vector<pending_check> deferred_;
  std::uint64_t failed_changes_ = 0;
};

// --- the load generator -----------------------------------------------

struct connection {
  hdhash::net::unique_fd fd;
  reply_scanner scanner;
  command_ledger ledger;
  std::string out;
  std::size_t out_offset = 0;
  bool dead = false;
};

enum class traffic { route, ping };

/// Figures of the measured time of a traffic phase, summed over its
/// kept segments.  Rate, CPU per reply and percentiles are figures of
/// the whole measured time, so a stall anywhere in it moves them.
struct drive_result {
  std::uint64_t wall_ns = 0;        ///< measured time
  std::uint64_t server_cpu_ns = 0;  ///< server CPU over it
  std::uint64_t bytes = 0;          ///< sent + received in it
  reply_recorder recorded;          ///< replies received in it
  histogram late;                   ///< generator lateness, ns
  std::size_t segments_measured = 0;
  std::size_t segments_kept = 0;

  /// Adds a segment's figures.
  void append(const drive_result& other) {
    wall_ns += other.wall_ns;
    server_cpu_ns += other.server_cpu_ns;
    bytes += other.bytes;
    recorded.replies += other.recorded.replies;
    recorded.answered += other.recorded.answered;
    recorded.latency.merge(other.recorded.latency);
    late.merge(other.late);
  }

  /// Answered ROUTEs (PINGs) per second.
  double rps() const {
    return static_cast<double>(recorded.answered) /
           (static_cast<double>(std::max<std::uint64_t>(1, wall_ns)) / 1e9);
  }

  double cpu_ns_per_reply() const {
    return static_cast<double>(server_cpu_ns) /
           static_cast<double>(std::max<std::uint64_t>(1, recorded.replies));
  }
};

/// Negative control armed on a connection for one drive: the first
/// ROUTE answer it receives while measuring (`any`), or the first whose
/// request was in flight while a fresh server was a member, so that only
/// the route-churn offline check can catch it (`deferred`), is corrupted
/// to a server id no membership contains.
enum class control_kind : std::uint8_t { none, any, deferred };

constexpr server_id kCorruptBit = server_id{1} << 62;

class generator {
 public:
  generator(const options& opts, const key_space& keys,
            command_source& source, verifier& check)
      : opts_(opts), keys_(keys), source_(source), verifier_(check) {}

  /// Connects, then waits for one PING and one ROUTE answer on every
  /// connection (the first ROUTE publishes the first epoch).
  void connect(std::uint16_t port) {
    conns_.clear();
    conns_.resize(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::string error;
      conns_[c].fd = hdhash::net::tcp_connect("127.0.0.1", port, &error);
      if (!conns_[c].fd.valid()) {
        die("connect failed: " + error);
      }
      hdhash::net::set_nodelay(conns_[c].fd.get());
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      const auto key = static_cast<std::uint32_t>(c);
      const std::uint64_t t = now_ns();
      enqueue(c, {command_kind::ping, 0, t, t}, "PING\r\n");
      enqueue(c, {command_kind::route, key, t, t}, keys_.line(key));
      flush(c);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      while (!conns_[c].dead && conns_[c].ledger.outstanding() > 0) {
        pollfd pfd{conns_[c].fd.get(), POLLIN, 0};
        if (poll(&pfd, 1, 30'000) <= 0) {
          die("setup reply timed out");
        }
        receive(c);
      }
    }
    for (connection& conn : conns_) {
      hdhash::net::set_nonblocking(conn.fd.get(), true);
    }
  }

  /// Closes every connection's books: commands never answered count
  /// failed.
  void disconnect() {
    for (connection& conn : conns_) {
      settle(conn.ledger, attempted_, failed_);
    }
    conns_.clear();
  }

  /// Drives `kind` traffic against `pid`: warmup_s seconds, then
  /// measure_s seconds measured in segments of about kSegmentSeconds.
  /// The hypervisor can stop this guest's CPUs to run other guests
  /// ("steal", in /proc/stat).  A segment during which more than
  /// kMaxStealShare of all CPU time was stolen is disturbed: measuring
  /// goes on until enough undisturbed segments are kept, or until
  /// kExtraSegments times as many extra segments were measured; then
  /// the least disturbed segments are kept.  Which segments are kept
  /// depends on steal alone, never on the figures measured.
  drive_result drive(traffic kind, pid_t pid, double warmup_s,
                     double measure_s) {
    drive_result result;
    const auto segments = static_cast<std::size_t>(
        std::max(1.0, std::round(measure_s / kSegmentSeconds)));
    const auto segment_ns = static_cast<std::uint64_t>(
        measure_s * 1e9 / static_cast<double>(segments));
    // Allocated up front, so that no page faults fall in measured time.
    std::vector<drive_result> measured(
        segments + static_cast<std::size_t>(std::ceil(
                       kExtraSegments * static_cast<double>(segments))));
    std::vector<double> stolen;
    stolen.reserve(measured.size());
    std::size_t undisturbed = 0;
    const std::uint64_t start = now_ns();
    const std::uint64_t measure_from =
        start + static_cast<std::uint64_t>(warmup_s * 1e9);
    const bool paced = kind == traffic::route && opts_.spec->paced_rps > 0.0;
    for (drive_result& segment : measured) {
      segment.recorded.paced = paced;
    }
    result.recorded.paced = paced;
    open_loop_schedule schedule(start, paced ? opts_.spec->paced_rps : 1.0);

    hdhash::net::unique_fd epoll_fd(epoll_create1(EPOLL_CLOEXEC));
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = c;
      epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, conns_[c].fd.get(), &event);
    }
    if (kind == traffic::route) {
      arm_controls();
    }

    drive_result* segment = measured.data();
    recorder_ = &segment->recorded;
    streaming_ = kind == traffic::route;
    measuring_ = false;
    std::uint64_t cpu_from = 0;
    std::uint64_t wall_from = 0;
    host_ticks ticks_from;
    std::uint64_t stop_at = 0;
    bool sending = true;
    std::uint64_t next_paced_conn = 0;
    // Every reply received between a segment's two readings is its own.
    const auto open_segment = [&] {
      bytes_ = 0;
      ticks_from = read_host_ticks();
      cpu_from = server_cpu_ns(pid);
      wall_from = now_ns();
      measuring_ = true;
    };
    epoll_event events[kConnections];
    for (;;) {
      const std::uint64_t now = now_ns();
      if (sending && !measuring_ && now >= measure_from) {
        open_segment();
      } else if (measuring_ && now >= wall_from + segment_ns) {
        segment->server_cpu_ns = server_cpu_ns(pid) - cpu_from;
        segment->wall_ns = now_ns() - wall_from;
        segment->bytes = bytes_;
        stolen.push_back(steal_share(ticks_from, read_host_ticks()));
        undisturbed += stolen.back() > kMaxStealShare ? 0 : 1;
        if (undisturbed < segments && stolen.size() < measured.size()) {
          ++segment;
          recorder_ = &segment->recorded;
          open_segment();
        } else {
          measuring_ = false;
          sending = false;
          stop_at = now;
        }
      }
      if (!sending) {
        std::size_t outstanding = 0;
        for (const connection& conn : conns_) {
          outstanding += conn.dead ? 0 : conn.ledger.outstanding();
        }
        if (outstanding == 0 ||
            now > stop_at + static_cast<std::uint64_t>(kDrainSeconds * 1e9)) {
          break;
        }
      }
      if (sending && paced) {
        std::uint64_t due = 0;
        while (schedule.pop_due(now, due)) {
          const std::size_t c = next_paced_conn++ % conns_.size();
          send_next(c, kind, due, now);
          if (measuring_) {
            segment->late.record(now - due);
          }
        }
      } else if (sending) {
        for (std::size_t c = 0; c < conns_.size(); ++c) {
          connection& conn = conns_[c];
          if (conn.dead || conn.ledger.outstanding() >= kPipeline) {
            continue;
          }
          if (measuring_) {
            segment->late.record(now - conn_ready_ns_[c]);
          }
          while (conn.ledger.outstanding() < kPipeline) {
            send_next(c, kind, now, now);
          }
        }
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        flush(c);
      }
      // Polls without sleeping.  A sleeping generator halts its CPU, and
      // waking it then waits on the hypervisor: that wait showed up as
      // steal and as milliseconds added to the latencies it measures.
      const int ready = epoll_wait(epoll_fd.get(), events,
                                   static_cast<int>(kConnections), 0);
      for (int i = 0; i < ready; ++i) {
        receive(static_cast<std::size_t>(events[i].data.u64));
      }
    }
    recorder_ = nullptr;
    streaming_ = false;
    // The least disturbed segments, the earlier first among equals.
    std::vector<std::size_t> order(stolen.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return stolen[a] < stolen[b];
                     });
    result.segments_measured = stolen.size();
    result.segments_kept = std::min(segments, stolen.size());
    for (std::size_t i = 0; i < result.segments_kept; ++i) {
      result.append(measured[order[i]]);
    }
    for (control_kind& armed : armed_) {
      controls_unfired_ += armed == control_kind::none ? 0 : 1;
      armed = control_kind::none;
    }
    return result;
  }

  /// Sends STATS on connection 1 and returns the payload (blocking).
  std::string stats() {
    const std::size_t c = 1;
    const std::uint64_t t = now_ns();
    enqueue(c, {command_kind::stats, 0, t, t}, "STATS\r\n");
    flush(c);
    stats_payload_.clear();
    while (!conns_[c].dead && conns_[c].ledger.outstanding() > 0) {
      pollfd pfd{conns_[c].fd.get(), POLLIN, 0};
      if (poll(&pfd, 1, 10'000) <= 0) {
        die("STATS timed out");
      }
      receive(c);
    }
    return stats_payload_;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  /// Failures counted online, controls caught online among them.
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t scanner_failures() const noexcept { return scanner_failures_; }
  std::uint64_t controls_injected() const noexcept {
    return controls_injected_;
  }
  std::uint64_t controls_caught() const noexcept { return controls_caught_; }
  std::uint64_t controls_unfired() const noexcept { return controls_unfired_; }

 private:
  /// route-churn corrupts one answer of connection 0's exactly replayed
  /// stream and one deferred answer on connection 1; the static
  /// workloads one answer on connection 1.
  void arm_controls() {
    if (opts_.spec->churn) {
      armed_[0] = control_kind::any;
      armed_[1] = control_kind::deferred;
    } else {
      armed_[1] = control_kind::any;
    }
  }

  bool fire_control(std::size_t c, const sent_command& command) {
    const control_kind armed = armed_[c];
    if (armed == control_kind::none ||
        (armed == control_kind::deferred &&
         !verifier_.odd_epoch_open(command.sent_ns))) {
      return false;
    }
    armed_[c] = control_kind::none;
    ++controls_injected_;
    return true;
  }

  void enqueue(std::size_t c, const sent_command& command,
               std::string_view bytes) {
    conns_[c].out.append(bytes);
    conns_[c].ledger.sent(command);
  }

  void send_next(std::size_t c, traffic kind, std::uint64_t due,
                 std::uint64_t now) {
    if (conns_[c].dead) {
      return;
    }
    if (kind == traffic::ping) {
      enqueue(c, {command_kind::ping, 0, now, due}, "PING\r\n");
      return;
    }
    const stream_command command = source_.next(c);
    command_source::encode(keys_, command, conns_[c].out);
    conns_[c].ledger.sent({command.kind, command.key, now, due});
    if (opts_.spec->churn && c == 0) {
      verifier_.conn0_sent(command);
    }
  }

  void flush(std::size_t c) {
    connection& conn = conns_[c];
    while (!conn.dead && conn.out_offset < conn.out.size()) {
      const ssize_t written =
          ::write(conn.fd.get(), conn.out.data() + conn.out_offset,
                  conn.out.size() - conn.out_offset);
      if (written > 0) {
        conn.out_offset += static_cast<std::size_t>(written);
        if (measuring_) {
          bytes_ += static_cast<std::uint64_t>(written);
        }
        continue;
      }
      if (written < 0 && errno == EINTR) {
        continue;
      }
      if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      drop(c);
      return;
    }
    conn.out.clear();
    conn.out_offset = 0;
  }

  void drop(std::size_t c) {
    connection& conn = conns_[c];
    if (!conn.dead) {
      conn.dead = true;
      conn.ledger.dropped();
    }
  }

  void receive(std::size_t c) {
    connection& conn = conns_[c];
    static char buffer[256 * 1024];
    for (;;) {
      if (conn.dead) {
        return;
      }
      const ssize_t got = ::read(conn.fd.get(), buffer, sizeof buffer);
      if (got == 0 || (got < 0 && errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK)) {
        drop(c);
        return;
      }
      if (got < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;
      }
      const std::uint64_t t = now_ns();
      if (measuring_) {
        bytes_ += static_cast<std::uint64_t>(got);
      }
      conn.scanner.feed(
          std::string_view(buffer, static_cast<std::size_t>(got)));
      reply_frame frame;
      while (conn.scanner.next(frame)) {
        handle(c, frame, t);
      }
      if (conn.scanner.failed()) {
        ++scanner_failures_;
        drop(c);
        return;
      }
      conn_ready_ns_[c] = t;
      if (static_cast<std::size_t>(got) < sizeof buffer) {
        return;
      }
    }
  }

  void handle(std::size_t c, reply_frame frame, std::uint64_t t) {
    sent_command command;
    const reply_outcome outcome = conns_[c].ledger.answer(frame, command);
    const bool control = measuring_ &&
                         outcome == reply_outcome::route_answer &&
                         fire_control(c, command);
    if (control) {
      frame.value ^= kCorruptBit;
    }
    const bool counted =
        answered_and_right(c, frame, t, command, outcome, control);
    if (measuring_) {
      recorder_->reply(t, command, counted);
    }
  }

  /// Records `frame`'s outcome; true for a correct ROUTE answer (or,
  /// in the PING phase, a PONG).  A control never enters rate and
  /// latency.
  bool answered_and_right(std::size_t c, const reply_frame& frame,
                          std::uint64_t t, const sent_command& command,
                          reply_outcome outcome, bool control) {
    // route-churn connection 0's stream is checked offline, in order.
    const bool stream0 = streaming_ && opts_.spec->churn && c == 0 &&
                         command.kind != command_kind::ping &&
                         command.kind != command_kind::stats;
    if (stream0) {
      verifier_.conn0_answered(frame.value, outcome != reply_outcome::failed,
                               t, control);
    }
    if (command.kind == command_kind::stats && outcome == reply_outcome::ok) {
      stats_payload_.assign(frame.text);
    }
    if (command.kind != command_kind::route) {
      return command.kind == command_kind::ping &&
             outcome == reply_outcome::ok;
    }
    if (outcome != reply_outcome::route_answer) {
      return false;
    }
    if (!stream0 && !verifier_.check(command.key, frame.value,
                                     command.sent_ns, control)) {
      conns_[c].ledger.wrong_answer();
      controls_caught_ += control ? 1 : 0;
      return false;
    }
    return !control;
  }

  const options& opts_;
  const key_space& keys_;
  command_source& source_;
  verifier& verifier_;
  std::vector<connection> conns_;
  std::uint64_t conn_ready_ns_[kConnections] = {};
  control_kind armed_[kConnections] = {};
  reply_recorder* recorder_ = nullptr;  ///< set while driving
  bool measuring_ = false;
  bool streaming_ = false;  ///< sending the workload's command stream
  std::uint64_t bytes_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t scanner_failures_ = 0;
  std::uint64_t controls_injected_ = 0;
  std::uint64_t controls_caught_ = 0;
  std::uint64_t controls_unfired_ = 0;
  std::string stats_payload_;
};

// --- tracing ----------------------------------------------------------

enum span_name : std::uint8_t {
  span_window,
  span_parse,
  span_lookup,
  span_encode,
  span_join,
  span_leave,
  span_publish,
  span_submit,
  span_complete,
  span_names
};

constexpr const char* kSpanLabel[span_names] = {
    "replay.window", "net.parse",   "core.lookup",
    "net.encode",    "core.join",   "core.leave",
    "emu.publish",   "emu.submit",  "emu.complete"};

/// In-memory span recorder.  Disabled, open/close are no-ops and read
/// no clock — the untraced replay that measures tracing overhead.
class tracer {
 public:
  struct span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t request = 0;
    std::int32_t parent = -1;
    span_name name = span_window;
  };

  explicit tracer(bool enabled) : enabled_(enabled) {}

  std::int32_t open(span_name name, std::int32_t parent,
                    std::uint64_t request) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({now_ns(), 0, request, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t index) {
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].end = now_ns();
    }
  }

  void add(const span& s) {
    if (enabled_) {
      spans_.push_back(s);
    }
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  void clear() noexcept { spans_.clear(); }

  /// Self time per span name: duration minus the children's durations.
  std::vector<double> self_ns() const {
    std::vector<double> self(span_names, 0.0);
    for (const span& s : spans_) {
      const double duration = static_cast<double>(s.end - s.start);
      self[s.name] += duration;
      if (s.parent >= 0) {
        self[spans_[static_cast<std::size_t>(s.parent)].name] -= duration;
      }
    }
    return self;
  }

  void dump(const std::string& path) const {
    std::ofstream out(path);
    out << "index\tname\tstart_ns\tend_ns\tparent\trequest\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      out << i << '\t' << kSpanLabel[s.name] << '\t' << s.start << '\t'
          << s.end << '\t' << s.parent << '\t' << s.request << '\n';
    }
  }

  std::size_t size() const noexcept { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<span> spans_;
};

// --- in-process replay ------------------------------------------------

/// The replayed command stream: windows of `window_size` commands (what
/// one server read delivers) in round-robin connection order, with each
/// window's exact wire bytes.
struct replay_stream {
  std::size_t window_size = kPipeline;
  std::vector<std::vector<stream_command>> commands;
  std::vector<std::string> bytes;
};

replay_stream build_replay(const options& opts, const key_space& keys,
                           std::size_t windows, std::size_t window_size) {
  replay_stream stream;
  stream.window_size = window_size;
  command_source source(opts.seed, *opts.spec);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t c = w % kConnections;
    std::vector<stream_command> window;
    std::string bytes;
    for (std::size_t i = 0; i < window_size; ++i) {
      window.push_back(source.next(c));
      command_source::encode(keys, window.back(), bytes);
    }
    stream.commands.push_back(std::move(window));
    stream.bytes.push_back(std::move(bytes));
  }
  return stream;
}

struct layer_pass {
  std::uint64_t wall_ns = 0;
  std::uint64_t commands = 0;
  std::uint64_t routes = 0;
  std::uint64_t publishes = 0;
  std::uint64_t wrong = 0;
};

/// Replays the stream through the layers a request crosses, in order,
/// on this thread: net wire parsing, membership changes and epoch
/// publication, per-shard lookup_batch on the published snapshot, and
/// reply encoding.  Each call is one span under its window's span.
layer_pass replay_layers(const replay_stream& stream, const reference& ref,
                         const hdhash::stream_router& partition,
                         tracer& trace) {
  layer_pass pass;
  hdhash::snapshot_publisher publisher(ref.table->clone());
  std::shared_ptr<const hdhash::table_snapshot> snap = publisher.current();
  const std::size_t shards = partition.shards();
  hdhash::net::wire_parser parser;
  hdhash::net::wire_command parsed;
  std::vector<hdhash::net::wire_command> commands;
  std::vector<std::vector<std::uint64_t>> shard_ids(shards);
  std::vector<std::vector<std::uint32_t>> shard_pos(shards);
  std::vector<std::vector<server_id>> shard_answers(shards);
  std::vector<server_id> answers;
  std::string out;
  std::uint64_t changes = 0;
  bool stale = false;
  const std::uint64_t start = now_ns();
  for (std::size_t w = 0; w < stream.bytes.size(); ++w) {
    const std::uint64_t request = w * stream.window_size;
    const std::int32_t root = trace.open(span_window, -1, request);
    std::int32_t sp = trace.open(span_parse, root, request);
    parser.feed(stream.bytes[w]);
    commands.clear();
    while (parser.next(parsed) == hdhash::net::parse_result::command) {
      commands.push_back(parsed);
    }
    trace.close(sp);
    answers.assign(commands.size(), 0);
    std::size_t segment = 0;
    const auto resolve = [&](std::size_t end) {
      if (segment == end) {
        return;
      }
      if (stale) {
        const std::int32_t pub = trace.open(span_publish, root, request);
        snap = publisher.current();
        trace.close(pub);
        stale = false;
        ++pass.publishes;
      }
      for (std::size_t s = 0; s < shards; ++s) {
        shard_ids[s].clear();
        shard_pos[s].clear();
      }
      for (std::size_t i = segment; i < end; ++i) {
        const std::size_t s = partition.shard_of(commands[i].id);
        shard_ids[s].push_back(commands[i].id);
        shard_pos[s].push_back(static_cast<std::uint32_t>(i));
      }
      const std::int32_t look = trace.open(span_lookup, root, request);
      for (std::size_t s = 0; s < shards; ++s) {
        shard_answers[s].resize(shard_ids[s].size());
        snap->table().lookup_batch(shard_ids[s], shard_answers[s]);
      }
      trace.close(look);
      for (std::size_t s = 0; s < shards; ++s) {
        for (std::size_t j = 0; j < shard_pos[s].size(); ++j) {
          answers[shard_pos[s][j]] = shard_answers[s][j];
        }
      }
      pass.routes += end - segment;
      segment = end;
    };
    for (std::size_t i = 0; i < commands.size(); ++i) {
      const hdhash::net::command_kind kind = commands[i].kind;
      if (kind == hdhash::net::command_kind::route) {
        continue;
      }
      resolve(i);
      segment = i + 1;
      const bool join = kind == hdhash::net::command_kind::join;
      const std::int32_t change =
          trace.open(join ? span_join : span_leave, root, request + i);
      if (join) {
        publisher.join(commands[i].id);
      } else {
        publisher.leave(commands[i].id);
      }
      trace.close(change);
      stale = true;
    }
    resolve(commands.size());
    sp = trace.open(span_encode, root, request);
    out.clear();
    for (std::size_t i = 0; i < commands.size(); ++i) {
      if (commands[i].kind == hdhash::net::command_kind::route) {
        hdhash::net::encode_route_reply(out, answers[i]);
      } else {
        hdhash::net::encode_ok(out);
      }
    }
    trace.close(sp);
    trace.close(root);
    // Verify against the reference (base-membership epochs only).
    for (std::size_t i = 0; i < commands.size(); ++i) {
      const stream_command& c = stream.commands[w][i];
      if (c.kind != command_kind::route) {
        ++changes;
      } else if (changes % 2 == 0 && answers[i] != ref.base[c.key]) {
        ++pass.wrong;
      }
    }
    pass.commands += commands.size();
  }
  pass.wall_ns = now_ns() - start;
  return pass;
}

struct router_pass {
  double router_rps = 0.0;
  double submit_ns = 0.0;        ///< per request
  double cpu_ns_per_req = 0.0;   ///< process CPU per request
  histogram complete;            ///< submit -> on_complete, ns
  std::uint64_t requests = 0;
  std::uint64_t wrong = 0;
};

/// Replays the stream through an in-process stream_router (no socket):
/// worker 0 submits like the server's io loop, with at most
/// kConnections tickets of up to kPipeline requests in flight; workers
/// 1..shards decode.
router_pass replay_router(const replay_stream& stream, const key_space& keys,
                          const reference& ref, const cpu_split& split,
                          tracer& trace) {
  router_pass result;
  hdhash::runtime::worker_pool pool(
      1 + split.shards, hdhash::runtime::default_placement_policy());
  hdhash::stream_router::config config;
  config.shards = split.shards;
  config.sessions = 1;
  hdhash::stream_router router(ref.table->clone(), pool, 1, config);
  router.start();

  struct ticket_state {
    std::shared_ptr<hdhash::stream_router::route_batch> batch;
    std::vector<std::uint32_t> keys;
    std::uint64_t request = 0;  ///< stream position of the first ROUTE
    std::uint64_t epoch = 0;
    std::uint64_t submit_start = 0;
    std::uint64_t submit_end = 0;
    std::uint64_t done = 0;
  };
  // Cut the stream into tickets at membership changes, as the io loop
  // flushes its open batch before every JOIN/LEAVE.
  std::vector<ticket_state> tickets;
  std::vector<std::pair<std::size_t, stream_command>> changes;  // before ticket
  std::uint64_t epoch = 0;
  std::uint64_t position = 0;
  for (const auto& window : stream.commands) {
    ticket_state open;
    for (const stream_command& c : window) {
      if (c.kind == command_kind::route) {
        if (open.keys.empty()) {
          open.request = position;
        }
        open.keys.push_back(c.key);
        ++position;
        continue;
      }
      ++position;
      if (!open.keys.empty()) {
        open.epoch = epoch;
        tickets.push_back(std::move(open));
        open = ticket_state{};
      }
      changes.emplace_back(tickets.size(), c);
      ++epoch;
    }
    if (!open.keys.empty()) {
      open.epoch = epoch;
      tickets.push_back(std::move(open));
    }
  }
  for (ticket_state& t : tickets) {
    t.batch = std::make_shared<hdhash::stream_router::route_batch>();
    for (const std::uint32_t key : t.keys) {
      t.batch->requests.push_back(keys.ids[key]);
    }
  }

  std::atomic<std::uint64_t> completed{0};
  std::promise<std::pair<std::uint64_t, std::uint64_t>> finished;
  std::future<std::pair<std::uint64_t, std::uint64_t>> wall_and_cpu =
      finished.get_future();
  std::uint64_t requests = 0;
  for (const ticket_state& t : tickets) {
    requests += t.keys.size();
  }
  pool.submit(0, [&] {
    try {
      hdhash::stream_router::session session = router.open_session(0);
      const std::uint64_t cpu0 = process_cpu_ns();
      const std::uint64_t t0 = now_ns();
      std::size_t next_change = 0;
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        while (next_change < changes.size() &&
               changes[next_change].first == i) {
          const stream_command& c = changes[next_change].second;
          if (c.kind == command_kind::join) {
            router.join(c.server);
          } else {
            router.leave(c.server);
          }
          ++next_change;
        }
        std::uint64_t done = completed.load(std::memory_order_acquire);
        while (i - done >= kConnections) {
          completed.wait(done, std::memory_order_acquire);
          done = completed.load(std::memory_order_acquire);
        }
        ticket_state& t = tickets[i];
        t.batch->on_complete = [&t, &completed] {
          t.done = now_ns();
          completed.fetch_add(1, std::memory_order_release);
          completed.notify_one();
        };
        t.submit_start = now_ns();
        session.submit(t.batch);
        t.submit_end = now_ns();
      }
      std::uint64_t done = completed.load(std::memory_order_acquire);
      while (done < tickets.size()) {
        completed.wait(done, std::memory_order_acquire);
        done = completed.load(std::memory_order_acquire);
      }
      finished.set_value({now_ns() - t0, process_cpu_ns() - cpu0});
    } catch (...) {
      finished.set_exception(std::current_exception());
    }
  });
  const auto [wall_ns, cpu_ns] = wall_and_cpu.get();
  router.stop();

  double submit_total = 0.0;
  for (const ticket_state& t : tickets) {
    submit_total += static_cast<double>(t.submit_end - t.submit_start);
    result.complete.record(t.done - t.submit_start);
    trace.add({t.submit_start, t.submit_end, t.request, -1, span_submit});
    trace.add({t.submit_start, t.done, t.request, -1, span_complete});
    if (t.epoch % 2 == 0) {
      for (std::size_t j = 0; j < t.keys.size(); ++j) {
        if (t.batch->answers[j] != ref.base[t.keys[j]]) {
          ++result.wrong;
        }
      }
    }
  }
  result.requests = requests;
  const double n = static_cast<double>(std::max<std::uint64_t>(1, requests));
  result.router_rps = n / (static_cast<double>(wall_ns) / 1e9);
  result.submit_ns = submit_total / n;
  result.cpu_ns_per_req = static_cast<double>(cpu_ns) / n;
  return result;
}

struct membership_costs {
  double join_us = 0.0;
  double leave_us = 0.0;
  double snapshot_us = 0.0;
  double publish_us = 0.0;
};

/// Join/leave of a fresh server on a copy of the deployment's table,
/// the snapshot after the join, and the first snapshot_publisher
/// current() after a change (median of 33 each).
membership_costs measure_membership(const reference& ref) {
  std::vector<double> join_us;
  std::vector<double> leave_us;
  std::vector<double> snapshot_us;
  std::vector<double> publish_us;
  std::unique_ptr<hdhash::dynamic_table> table = ref.table->clone();
  hdhash::snapshot_publisher publisher(ref.table->clone());
  publisher.current();
  for (std::uint64_t i = 0; i < 33; ++i) {
    const std::uint64_t server = kFreshServerBase / 2 + i;
    const std::uint64_t a = now_ns();
    table->join(server);
    const std::uint64_t b = now_ns();
    std::shared_ptr<const hdhash::dynamic_table> snap = table->snapshot();
    const std::uint64_t c = now_ns();
    table->leave(server);
    const std::uint64_t d = now_ns();
    join_us.push_back(static_cast<double>(b - a) / 1e3);
    snapshot_us.push_back(static_cast<double>(c - b) / 1e3);
    leave_us.push_back(static_cast<double>(d - c) / 1e3);
    publisher.join(server);
    const std::uint64_t e = now_ns();
    publisher.current();
    publish_us.push_back(static_cast<double>(now_ns() - e) / 1e3);
    publisher.leave(server);
    publisher.current();
  }
  return {median(join_us), median(leave_us), median(snapshot_us),
          median(publish_us)};
}

volatile std::uint64_t g_sink = 0;

/// ns per PING to parse it with wire_parser and encode its +PONG — the
/// wire cost inside the PING phase's CPU per request.
double measure_ping_wire_ns() {
  std::string bytes;
  for (std::size_t i = 0; i < kPipeline; ++i) {
    bytes += "PING\r\n";
  }
  hdhash::net::wire_parser parser;
  hdhash::net::wire_command command;
  std::string out;
  std::uint64_t commands = 0;
  const std::uint64_t start = now_ns();
  while (now_ns() - start < 20'000'000ull) {
    parser.feed(bytes);
    out.clear();
    while (parser.next(command) == hdhash::net::parse_result::command) {
      hdhash::net::encode_pong(out);
      ++commands;
    }
  }
  g_sink = out.size();
  return static_cast<double>(now_ns() - start) / static_cast<double>(commands);
}

/// ns per active_kernel().tile_distance call (one stored row against a
/// full tile of probes) over the table's own item-memory rows.
double measure_tile_ns(const reference& ref) {
  std::unique_ptr<hdhash::dynamic_table> table = ref.table->clone();
  const std::size_t words = (kDimension + 63) / 64;
  std::vector<const std::uint64_t*> rows;
  for (const hdhash::memory_region& region : table->fault_regions()) {
    if (region.bytes.size() == words * sizeof(std::uint64_t)) {
      rows.push_back(
          reinterpret_cast<const std::uint64_t*>(region.bytes.data()));
    }
  }
  if (rows.empty()) {
    die("no item-memory rows to time the kernel on");
  }
  const std::size_t tile =
      std::min<std::size_t>(hdhash::simd::kMaxTile, rows.size());
  const hdhash::simd::hamming_kernel& kernel = hdhash::simd::active_kernel();
  std::uint64_t dist[hdhash::simd::kMaxTile] = {};
  std::uint64_t sink = 0;
  std::uint64_t calls = 0;
  const std::uint64_t start = now_ns();
  while (now_ns() - start < 50'000'000ull) {
    for (const std::uint64_t* row : rows) {
      kernel.tile_distance(row, rows.data(), tile, words, dist);
      sink += dist[0];
      ++calls;
    }
  }
  const double elapsed = static_cast<double>(now_ns() - start);
  g_sink = sink;  // keeps the kernel calls observable
  return elapsed / static_cast<double>(calls);
}

// --- reporting --------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Numeric `key=value` field of a STATS payload; 0 when absent.
double stats_field(const std::string& payload, const std::string& key) {
  const std::size_t at = payload.find(key + "=");
  if (at == std::string::npos) {
    return 0.0;
  }
  return std::strtod(payload.c_str() + at + key.size() + 1, nullptr);
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string text;
  for (const int cpu : cpus) {
    text += (text.empty() ? "" : ",") + std::to_string(cpu);
  }
  return text;
}

/// What the traced run adds after its TCP phases: the per-layer
/// metrics, from replaying the workload's stream in process.
struct layer_report {
  std::vector<metric> metrics;
  std::uint64_t requests = 0;  ///< replayed ROUTEs checked
  std::uint64_t wrong = 0;     ///< of which answered wrongly
};

/// Replays the stream through each layer, prints the ledger (self time
/// per layer, residual, tracing overhead) and dumps the spans.
layer_report trace_layers(const options& opts, const key_space& keys,
                          const reference& ref, const cpu_split& split,
                          const drive_result& run, const drive_result& ping,
                          const std::string& stats_payload) {
  const workload_spec& spec = *opts.spec;
  const double e2e_cpu_ns = run.cpu_ns_per_reply();
  // Per-layer replay, with the server's batch shape: full pipeline
  // windows under the closed loop, the observed ROUTEs per batch
  // under the open loop.  Window count: about 0.5 s of untraced
  // replay, capped so the stream stays small.
  const double requests_per_batch =
      stats_field(stats_payload, "requests_routed") /
      std::max(1.0, stats_field(stats_payload, "batches_routed"));
  const std::size_t window_size =
      spec.paced_rps > 0.0
          ? std::clamp<std::size_t>(
                static_cast<std::size_t>(std::llround(requests_per_batch)),
                1, kPipeline)
          : kPipeline;
  // Never started: only its request partition (shard_of) is used.
  hdhash::runtime::worker_pool partition_pool(
      split.shards, hdhash::runtime::placement_policy::none);
  hdhash::stream_router::config partition_config;
  partition_config.shards = split.shards;
  const hdhash::stream_router partition(ref.table->clone(), partition_pool, 0,
                                        partition_config);
  tracer off(false);
  const replay_stream probe = build_replay(opts, keys, 64, window_size);
  const layer_pass probe_pass = replay_layers(probe, ref, partition, off);
  const double per_window_ns =
      static_cast<double>(probe_pass.wall_ns) / 64.0;
  const auto windows = static_cast<std::size_t>(std::clamp(
      0.5e9 / std::max(1.0, per_window_ns), 64.0, 8192.0));
  const replay_stream stream = build_replay(opts, keys, windows, window_size);
  // Alternate untraced and traced passes; the overhead compares the
  // fastest of each.  The spans kept are the last traced pass's.
  tracer trace(true);
  trace.reserve(windows * 24);
  layer_pass untraced;
  layer_pass traced;
  std::uint64_t untraced_ns = UINT64_MAX;
  std::uint64_t traced_ns = UINT64_MAX;
  for (int round = 0; round < 3; ++round) {
    untraced = replay_layers(stream, ref, partition, off);
    untraced_ns = std::min(untraced_ns, untraced.wall_ns);
    trace.clear();
    traced = replay_layers(stream, ref, partition, trace);
    traced_ns = std::min(traced_ns, traced.wall_ns);
  }
  const router_pass routed = replay_router(stream, keys, ref, split, trace);
  const membership_costs costs = measure_membership(ref);
  const double tile_ns = measure_tile_ns(ref);
  const double ping_wire_ns = measure_ping_wire_ns();
  layer_report report;
  report.requests = traced.routes + routed.requests;
  report.wrong = traced.wrong + untraced.wrong + routed.wrong;

  const std::vector<double> self = trace.self_ns();
  const double commands = static_cast<double>(traced.commands);
  const auto per_command = [&](span_name name) {
    return self[name] / commands;
  };
  const hdhash::table_stats table_stats = ref.table->stats();
  const double words = static_cast<double>((kDimension + 63) / 64);
  const double row_distances = table_stats.expected_lookup_cost / words;
  const double simd_self =
      row_distances * tile_ns / static_cast<double>(hdhash::simd::kMaxTile);
  // Self time per request of each layer.  core: lookups, changes and
  // the table snapshots behind each publication, minus the kernel's
  // share; emu: the in-process router's CPU per request minus core;
  // net: server CPU per PING over the same connections, with the
  // PING parse/encode cost swapped for the ROUTE one.
  const double core_total =
      per_command(span_lookup) + per_command(span_join) +
      per_command(span_leave) +
      static_cast<double>(traced.publishes) * costs.snapshot_us * 1e3 /
          commands;
  const double core_self = core_total - simd_self;
  const double emu_self = routed.cpu_ns_per_req - core_total;
  const double net_self =
      ping.cpu_ns_per_reply() - ping_wire_ns + per_command(span_parse) +
      per_command(span_encode);
  const double residual =
      (e2e_cpu_ns - (net_self + emu_self + core_self + simd_self)) /
      e2e_cpu_ns;
  const double overhead = static_cast<double>(traced_ns) /
                              static_cast<double>(untraced_ns) -
                          1.0;
  const double epochs = stats_field(stats_payload, "snapshots_published");
  const double bytes_per_req =
      static_cast<double>(run.bytes) /
      static_cast<double>(std::max<std::uint64_t>(1, run.recorded.replies));

  std::printf("ledger %s: end-to-end server CPU %.1f ns/reply "
              "(untraced TCP run)\n",
              std::string(spec.name).c_str(), e2e_cpu_ns);
  const auto ledger_line = [&](const char* layer, double ns) {
    std::printf("  %-6s self %10.1f ns/req  %6.1f%%\n", layer, ns,
                100.0 * ns / e2e_cpu_ns);
  };
  ledger_line("net", net_self);
  std::printf("    (net.parse %.1f, net.encode %.1f, replay glue %.1f "
              "ns/req, inside net/emu)\n",
              per_command(span_parse), per_command(span_encode),
              per_command(span_window));
  ledger_line("emu", emu_self);
  ledger_line("core", core_self);
  ledger_line("simd", simd_self);
  std::printf("  residual %.1f ns/req (%.1f%%); tracing overhead %.1f%% "
              "(%zu spans, %zu windows)\n",
              e2e_cpu_ns * residual, 100.0 * residual, 100.0 * overhead,
              trace.size(), windows);
  if (!opts.trace_out.empty()) {
    std::filesystem::create_directories(opts.trace_out);
    const std::string path = opts.trace_out + "/" + std::string(spec.name) +
                             "-seed" + std::to_string(opts.seed) + ".tsv";
    trace.dump(path);
    std::printf("  spans written to %s\n", path.c_str());
  }

  report.metrics = {
      {"net.parse_ns", per_command(span_parse), "ns"},
      {"net.encode_ns", per_command(span_encode), "ns"},
      {"net.ping_rps", ping.rps(), "1/s"},
      {"net.bytes_per_req", bytes_per_req, "B"},
      {"net.self_ns", net_self, "ns"},
      {"emu.submit_ns", routed.submit_ns, "ns"},
      {"emu.router_rps", routed.router_rps, "1/s"},
      {"emu.complete_p50_us", routed.complete.quantile(0.50) / 1e3, "us"},
      {"emu.complete_p99_us", routed.complete.quantile(0.99) / 1e3, "us"},
      {"emu.requests_per_batch", requests_per_batch, "count"},
      {"emu.epochs_published", epochs, "count"},
      {"emu.publish_us", costs.publish_us, "us"},
      {"emu.self_ns", emu_self, "ns"},
      {"core.lookup_ns",
       self[span_lookup] / static_cast<double>(traced.routes), "ns"},
      {"core.join_us", costs.join_us, "us"},
      {"core.leave_us", costs.leave_us, "us"},
      {"core.snapshot_us", costs.snapshot_us, "us"},
      {"core.row_distances_per_req", row_distances, "count"},
      {"core.self_ns", core_self, "ns"},
      {"simd.tile_ns", tile_ns, "ns"},
      {"simd.self_ns", simd_self, "ns"},
      {"mem.table_bytes", static_cast<double>(table_stats.memory_bytes), "B"},
      {"gen.late_p99_us", run.late.quantile(0.99) / 1e3, "us"},
      {"trace.residual_frac", residual, "fraction"},
      {"trace.overhead_frac", overhead, "fraction"},
  };
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const options opts = parse_options(argc, argv);
  const workload_spec& spec = *opts.spec;
  const cpu_split split = plan_cpus();
  // The host topology is discovered once per process: discover it
  // under the server's CPU set, which the in-process replay mirrors.
  pin_thread(split.server_set);
  (void)hdhash::runtime::host_topology();

  const key_space keys(opts.seed);
  const reference ref = build_reference(spec, keys, split.allowed.size());

  const char* mem_env = std::getenv("HDHASH_MEM");
  std::string context =
      std::string("{\"workload\": \"") + std::string(spec.name) +
      "\", \"seed\": " + std::to_string(opts.seed) +
      ", \"seconds\": " + json_number(opts.seconds) +
      ", \"trace\": " + (opts.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"allowed_cpus\": \"" + cpu_list(split.allowed) +
      "\", \"io_threads\": " + std::to_string(split.io_threads) +
      ", \"shards\": " + std::to_string(split.shards) +
      ", \"generator_threads\": 1, \"generator_cpu\": " +
      std::to_string(split.generator_cpu) +
      ", \"transport\": \"loopback\", \"kernel\": \"" +
      std::string(hdhash::simd::active_kernel().name) +
      "\", \"hdhash_mem\": \"" + (mem_env != nullptr ? mem_env : "auto") +
      "\", \"memory_backing\": \"" +
      std::string(
          hdhash::mem::to_string(hdhash::mem::registry_stats().backing)) +
      "\", \"connections\": " + std::to_string(kConnections) +
      ", \"pipeline\": " + std::to_string(kPipeline) +
      ", \"paced_rps\": " + json_number(spec.paced_rps);

  // Set-up (spawn, table build and joins, listen, connects, first
  // answers) is timed kSetups times, each with a fresh server process;
  // the last server is then driven and measured.  The traced run sets
  // up once.
  const host_ticks ticks_before = read_host_ticks();
  const std::size_t setups = opts.trace ? 1 : kSetups;
  const double measure_s =
      opts.trace ? std::max(2.0, opts.seconds / 2.0) : opts.seconds;
  std::vector<double> setup_s;
  double hwm_mb = 0.0;
  drive_result run;
  drive_result ping;
  std::string stats_payload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t malformed_streams = 0;
  std::uint64_t controls_injected = 0;
  std::uint64_t controls_caught = 0;
  std::uint64_t controls_unfired = 0;
  bool emulator_ok = true;
  for (std::size_t cycle = 0; cycle < setups; ++cycle) {
    command_source source(opts.seed, spec);
    verifier check(spec, keys, ref);
    generator gen(opts, keys, source, check);
    const std::uint64_t t0 = now_ns();
    server_process server = spawn_server(opts, split);
    gen.connect(server.port);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (cycle + 1 == setups) {
      pin_generator(split);
      run = gen.drive(traffic::route, server.pid, kWarmupSeconds, measure_s);
      hwm_mb = static_cast<double>(server_hwm_kb(server.pid)) / 1024.0;
      if (opts.trace) {
        ping = gen.drive(traffic::ping, server.pid, 0.2, kPingSeconds);
        stats_payload = gen.stats();
      }
    }
    gen.disconnect();
    stop_server(server);
    pin_thread(split.server_set);
    bool histogram_ok = true;
    failed += check.finish(histogram_ok, controls_caught) + gen.failed();
    attempted += gen.attempted();
    malformed_streams += gen.scanner_failures();
    emulator_ok = emulator_ok && histogram_ok;
    controls_injected += gen.controls_injected();
    controls_caught += gen.controls_caught();
    controls_unfired += gen.controls_unfired();
  }
  // Every control must have been injected and caught, each as exactly
  // one failure; the caught ones are then taken out of the count.
  const bool control_caught = controls_injected > 0 &&
                              controls_caught == controls_injected &&
                              controls_unfired == 0;
  failed -= controls_caught;

  std::vector<metric> metrics;
  std::vector<std::string> notes;
  bool replay_ok = true;

  if (!opts.trace) {
    metrics = {
        {"route_rps", run.rps(), "1/s"},
        {"route_p50_us", run.recorded.latency.quantile(0.50) / 1e3, "us"},
        {"route_p99_us", run.recorded.latency.quantile(0.99) / 1e3, "us"},
        {"cpu_ns_per_req", run.cpu_ns_per_reply(), "ns"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", hwm_mb, "MB"},
    };
  } else {
    const layer_report layers =
        trace_layers(opts, keys, ref, split, run, ping, stats_payload);
    metrics = layers.metrics;
    attempted += layers.requests;
    failed += layers.wrong;
    replay_ok = layers.wrong == 0;
  }

  if (!emulator_ok) {
    notes.push_back("connection 0 load histogram differs from the emulator");
  }
  if (!control_caught) {
    notes.push_back("negative control: a corrupted answer was NOT caught");
  }
  if (malformed_streams > 0) {
    notes.push_back("malformed reply stream");
  }
  if (!replay_ok) {
    notes.push_back("in-process replay answers differ from the reference");
  }
  const bool correct = failed == 0 && emulator_ok && control_caught &&
                       replay_ok && malformed_streams == 0;

  std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " commands, %" PRIu64
              " failed (failed_frac %.3g), negative control %" PRIu64
              "/%" PRIu64 " %s\n",
              std::string(spec.name).c_str(), opts.seed, attempted, failed,
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, attempted)),
              controls_caught, controls_injected,
              control_caught ? "caught" : "MISSED");
  for (const std::string& note : notes) {
    std::printf("  check failed: %s\n", note.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const metric& m = metrics[i];
    std::printf("metric %-28s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (i == 0 ? "" : ", ") + std::string("\"") + m.name +
            "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  // CPU time the hypervisor gave to others while this run wanted it:
  // numbers from runs with very different steal are not comparable.
  context += ", \"host_steal_pct\": " +
             json_number(100.0 * steal_share(ticks_before, read_host_ticks())) +
             ", \"segments_measured\": " +
             std::to_string(run.segments_measured) +
             ", \"segments_kept\": " + std::to_string(run.segments_kept) +
             "}";
  std::printf("context %s\n", context.c_str());
  std::printf("%s\n", json.c_str());
  return 0;
}
