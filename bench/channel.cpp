/// Channel micro-benchmark: the lock-free spsc_ring against the
/// mutex_channel reference on the two shapes every ingest pipeline is
/// made of.  Emits BENCH_channel.json (accepted report-only by
/// scripts/check_bench.py, which prints the ring-vs-mutex speedup per
/// scenario).
///
/// Scenarios:
///  * ping-pong (ring and mutex) — two depth-1 channels between two
///    threads, an item bouncing back and forth: round-trip hand-off
///    latency, the number that dominates the shallow (depth-2)
///    emulator channels;
///  * stream 1x1 (ring and mutex) — one producer saturating one
///    consumer through a deep channel: steady-state hand-off
///    throughput (items/s);
///  * mesh MxN (ring only: the mesh's lanes are rings) — M producer
///    threads streaming at N consumer threads through the full
///    ingest_mesh (M x N lanes, round-robin consumer scan): aggregate
///    delivered items/s with every thread of the sharded pipeline's
///    ingest side live.  --producers/--shards set M and N (defaults
///    2x2).
///
/// On a single-core runner the stream/mesh numbers compress (producer
/// and consumer time-slice one CPU and the backoff ladder's sleeps
/// dominate); the recorded topology block makes such runs readable.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "emu/channel.hpp"
#include "emu/ingest.hpp"
#include "emu/spsc_ring.hpp"
#include "exp/emulator_options.hpp"
#include "runtime/cpu_topology.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hdhash;

/// Wall-clock interval in seconds (steady clock, started at creation).
class stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

struct scenario_result {
  std::string scenario;
  std::string kind;  ///< "ring" or "mutex"
  std::size_t producers = 1;
  std::size_t consumers = 1;
  std::uint64_t items = 0;
  double wall_seconds = 0.0;
  double items_per_second = 0.0;
};

template <typename Channel>
scenario_result run_ping_pong(const char* kind, std::uint64_t rounds) {
  // Two depth-1 channels: the caller thread serves, the echo thread
  // returns.  Every round trip is two full hand-offs.
  Channel out(1);
  Channel back(1);
  std::thread echo([&] {
    std::uint64_t token = 0;
    while (out.pop(token)) {
      back.push(std::move(token));
    }
    back.close();
  });

  stopwatch watch;
  std::uint64_t token = 0;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    out.push(std::uint64_t{i});
    back.pop(token);
  }
  const double seconds = watch.seconds();
  out.close();
  echo.join();

  scenario_result result;
  result.scenario = "ping_pong";
  result.kind = kind;
  result.items = rounds;
  result.wall_seconds = seconds;
  result.items_per_second = seconds > 0.0 ? rounds / seconds : 0.0;
  return result;
}

template <typename Channel>
scenario_result run_stream(const char* kind, std::uint64_t items,
                           std::size_t capacity) {
  Channel channel(capacity);
  std::uint64_t checksum = 0;
  std::thread consumer([&] {
    std::uint64_t item = 0;
    while (channel.pop(item)) {
      checksum += item;
    }
  });

  stopwatch watch;
  for (std::uint64_t i = 0; i < items; ++i) {
    channel.push(std::uint64_t{i});
  }
  channel.close();
  consumer.join();
  const double seconds = watch.seconds();
  HDHASH_REQUIRE(checksum == items * (items - 1) / 2,
                 "stream scenario lost or duplicated items");

  scenario_result result;
  result.scenario = "stream_1x1";
  result.kind = kind;
  result.items = items;
  result.wall_seconds = seconds;
  result.items_per_second = seconds > 0.0 ? items / seconds : 0.0;
  return result;
}

scenario_result run_mesh(std::size_t producers, std::size_t shards,
                         std::uint64_t items_per_producer,
                         std::size_t capacity) {
  ingest_mesh<std::uint64_t> mesh(producers, shards, capacity);
  std::vector<std::uint64_t> checksums(shards, 0);
  std::vector<std::thread> threads;

  stopwatch watch;
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&mesh, &checksums, s] {
      auto consumer = mesh.consumer(s);
      std::uint64_t item = 0;
      while (consumer.pop(item)) {
        checksums[s] += item;
      }
    });
  }
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&mesh, p, shards, items_per_producer] {
      auto session = mesh.session(p);
      for (std::uint64_t i = 0; i < items_per_producer; ++i) {
        session.push(i % shards, std::uint64_t{i});
      }
      session.close();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double seconds = watch.seconds();

  std::uint64_t total = 0;
  for (const std::uint64_t sum : checksums) {
    total += sum;
  }
  HDHASH_REQUIRE(
      total == producers * (items_per_producer * (items_per_producer - 1) / 2),
      "mesh scenario lost or duplicated items");

  const std::uint64_t items = producers * items_per_producer;
  scenario_result result;
  result.scenario = "mesh_" + std::to_string(producers) + "x" +
                    std::to_string(shards);
  result.kind = "ring";
  result.producers = producers;
  result.consumers = shards;
  result.items = items;
  result.wall_seconds = seconds;
  result.items_per_second = seconds > 0.0 ? items / seconds : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  std::string json_path = "BENCH_channel.json";
  std::uint64_t rounds = 200'000;
  std::uint64_t items = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = parse_positive_value(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--items=", 8) == 0) {
      items = parse_positive_value(argv[i] + 8);
    }
  }
  if (rounds == 0 || items == 0) {
    std::fprintf(stderr, "--rounds/--items need positive integers\n");
    return 1;
  }
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }
  const std::size_t mesh_producers = opts.producers > 1 ? opts.producers : 2;
  const std::size_t mesh_shards = opts.shards >= 1 ? opts.shards : 2;
  constexpr std::size_t kStreamCapacity = 1024;
  constexpr std::size_t kMeshCapacity = 64;

  const runtime::cpu_topology& topo = runtime::host_topology();
  std::printf(
      "== Channel hand-off: spsc_ring vs mutex_channel ==\n"
      "ping-pong %llu round trips, stream %llu items (depth %zu),\n"
      "mesh %zux%zu x %llu items/producer (depth %zu)\n"
      "topology: %zu physical core(s), %zu allowed CPU(s), "
      "%zu NUMA node(s)\n\n",
      static_cast<unsigned long long>(rounds),
      static_cast<unsigned long long>(items), kStreamCapacity, mesh_producers,
      mesh_shards, static_cast<unsigned long long>(items / mesh_producers),
      kMeshCapacity, topo.physical_cores(), topo.allowed_cpus().size(),
      topo.numa_nodes());

  using mutex_lane = mutex_channel<std::uint64_t>;
  using ring_lane = spsc_ring<std::uint64_t>;
  const std::vector<scenario_result> results = {
      run_ping_pong<mutex_lane>("mutex", rounds),
      run_stream<mutex_lane>("mutex", items, kStreamCapacity),
      run_ping_pong<ring_lane>("ring", rounds),
      run_stream<ring_lane>("ring", items, kStreamCapacity),
      run_mesh(mesh_producers, mesh_shards, items / mesh_producers,
               kMeshCapacity),
  };

  table_printer table(
      {"scenario", "kind", "threads", "items", "wall s", "items/s"});
  for (const scenario_result& r : results) {
    table.add_row({r.scenario, r.kind,
                   std::to_string(r.producers + r.consumers),
                   std::to_string(r.items), format_double(r.wall_seconds, 3),
                   format_double(r.items_per_second, 0)});
  }
  table.print(std::cout);

  // Ring-vs-mutex speedup per scenario: the number check_bench prints.
  std::printf("\nring vs mutex:\n");
  for (const scenario_result& r : results) {
    if (r.kind != "ring") {
      continue;
    }
    for (const scenario_result& m : results) {
      if (m.kind == "mutex" && m.scenario == r.scenario &&
          m.items_per_second > 0.0) {
        std::printf("  %-10s x%.2f\n", r.scenario.c_str(),
                    r.items_per_second / m.items_per_second);
      }
    }
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"channel\",\n"
               "  \"rounds\": %llu,\n"
               "  \"items\": %llu,\n"
               "  \"topology\": {\"physical_cores\": %zu, "
               "\"logical_cpus\": %zu, \"allowed_cpus\": %zu, "
               "\"numa_nodes\": %zu},\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(items), topo.physical_cores(),
               topo.logical_cpus(), topo.allowed_cpus().size(),
               topo.numa_nodes());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const scenario_result& r = results[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"kind\": \"%s\", "
                 "\"producers\": %zu, \"consumers\": %zu, \"items\": %llu, "
                 "\"wall_seconds\": %.6f, \"items_per_second\": %.0f}%s\n",
                 r.scenario.c_str(), r.kind.c_str(),
                 r.producers, r.consumers,
                 static_cast<unsigned long long>(r.items), r.wall_seconds,
                 r.items_per_second, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
