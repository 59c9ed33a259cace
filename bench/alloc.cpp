/// Allocator benchmark: what the memory layer (src/mem) buys on the
/// hot paths, emitted as BENCH_allocator.json for the perf trajectory
/// (report-only in scripts/check_bench.py — allocator wins are
/// TLB-bound and vary with the host's hugepage configuration).
///
/// Two panels, each before/after:
///  * batch_lookup — the paper-scale hd batch query (d = 10,000) with
///    item-memory rows on the default heap allocator versus on the
///    hugepage arena.  The arena packs the ~1.2KB rows contiguously
///    into 2MB chunks, so the full-memory sweep walks one TLB entry
///    per ~1,600 rows instead of one per ~3 rows of a 4KB heap.
///  * snapshot_churn — epoch publish/drain cycles on a
///    snapshot_publisher, heap versus arena-fed: with the arena, the
///    slot-cache block and the epoch object recycle through free lists
///    instead of round-tripping the general allocator every epoch.
///
/// The JSON records which backing the arenas actually landed on
/// (huge/thp/page — `memory_backing`), because the numbers read very
/// differently on a hugepage-less CI runner than on a tuned host.
///
/// Usage: bench_alloc [--json[=PATH]]   (default BENCH_allocator.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/hd_table.hpp"
#include "emu/snapshot.hpp"
#include "hashing/registry.hpp"
#include "mem/hugepage_arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace hdhash;

constexpr std::size_t kDim = 10'000;
constexpr std::size_t kBatchSize = 512;
constexpr std::size_t kServers = 256;

/// Best of three timed trials after a warm-up, in nanoseconds total.
template <typename Body>
double best_of_trials_ns(std::size_t rounds, Body&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 3; ++trial) {
    const auto start = clock::now();
    for (std::size_t round = 0; round < rounds; ++round) {
      body();
    }
    const auto stop = clock::now();
    best = std::min(best,
                    static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            stop - start)
                            .count()) /
                        static_cast<double>(rounds));
  }
  return best;
}

hd_table_config table_config(bool arena_rows) {
  hd_table_config config;
  config.dimension = kDim;
  config.capacity = 4096;
  config.arena_rows = arena_rows;
  return config;
}

std::vector<request_id> bench_requests() {
  xoshiro256 rng(77);
  std::vector<request_id> requests(kBatchSize);
  for (request_id& r : requests) {
    r = rng();
  }
  return requests;
}

struct lookup_result {
  double batch_ns_per_lookup = 0.0;
  std::string backing;  // what the rows actually landed on
};

/// The d = 10,000 batch sweep with rows on the given backing.
lookup_result measure_batch_lookup(bool arena_rows) {
  const hash64& hash = hash_by_name("xxhash64");
  hd_table table(hash, table_config(arena_rows));
  for (server_id s = 1; s <= kServers; ++s) {
    table.join(s * 101);
  }
  const auto requests = bench_requests();
  std::vector<server_id> answers(requests.size());
  lookup_result result;
  const double total_ns = best_of_trials_ns(8, [&] {
    table.lookup_batch(requests, answers);
  });
  result.batch_ns_per_lookup = total_ns / static_cast<double>(kBatchSize);
  result.backing = std::string(table.stats().arena_backing);
  return result;
}

struct churn_result {
  double publish_us = 0.0;       // one join+leave+2×publish cycle
  std::uint64_t recycled = 0;    // arena free-list hits during the run
  std::string backing;
};

/// Epoch publish/drain churn: the allocator round-trip the arena free
/// lists absorb.  Smaller table — the cost measured here is the
/// snapshot bookkeeping, not the row sweep.
churn_result measure_snapshot_churn(bool arena_rows) {
  const hash64& hash = hash_by_name("xxhash64");
  hd_table_config config;
  config.dimension = kDim;
  config.capacity = 1024;
  config.slot_cache = true;  // snapshot warms + copies the slot pages
  config.arena_rows = arena_rows;
  auto arena = arena_rows ? mem::local_arena() : nullptr;
  const std::uint64_t recycled_before =
      arena ? arena->stats().recycled : 0;
  auto table = std::make_unique<hd_table>(hash, config);
  for (server_id s = 1; s <= 64; ++s) {
    table->join(s * 101);
  }
  snapshot_publisher publisher(std::move(table), arena);
  (void)publisher.current();

  constexpr std::size_t kCycles = 50;
  const double total_ns = best_of_trials_ns(kCycles, [&] {
    publisher.join(999'983);
    (void)publisher.current();  // publish the join epoch, drop the old
    publisher.leave(999'983);
    (void)publisher.current();
  });
  churn_result result;
  result.publish_us = total_ns / 1000.0;
  result.recycled = arena ? arena->stats().recycled - recycled_before : 0;
  result.backing =
      std::string(publisher.table().stats().arena_backing);
  return result;
}

int emit_json(const std::string& path) {
  std::printf("batch lookup, d=%zu k=%zu batch=%zu\n", kDim, kServers,
              kBatchSize);
  const lookup_result heap_lookup = measure_batch_lookup(false);
  const lookup_result arena_lookup = measure_batch_lookup(true);
  std::printf("  rows=heap   %8.1f ns/lookup\n"
              "  rows=arena  %8.1f ns/lookup (%s)  %.2fx\n",
              heap_lookup.batch_ns_per_lookup,
              arena_lookup.batch_ns_per_lookup, arena_lookup.backing.c_str(),
              heap_lookup.batch_ns_per_lookup /
                  arena_lookup.batch_ns_per_lookup);

  std::printf("snapshot churn, d=%zu slot_cache=on\n", kDim);
  const churn_result heap_churn = measure_snapshot_churn(false);
  const churn_result arena_churn = measure_snapshot_churn(true);
  std::printf("  rows=heap   %8.1f us/cycle\n"
              "  rows=arena  %8.1f us/cycle (%s)  recycled=%llu\n",
              heap_churn.publish_us, arena_churn.publish_us,
              arena_churn.backing.c_str(),
              static_cast<unsigned long long>(arena_churn.recycled));

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"benchmark\": \"allocator\",\n"
      "  \"dimension\": %zu,\n"
      "  \"batch_size\": %zu,\n"
      "  \"servers\": %zu,\n"
      "  \"memory_backing\": \"%s\",\n"
      "  \"batch_lookup\": [\n"
      "    {\"rows\": \"heap\", \"batch_ns_per_lookup\": %.1f, "
      "\"speedup_vs_heap\": 1.00},\n"
      "    {\"rows\": \"arena\", \"batch_ns_per_lookup\": %.1f, "
      "\"speedup_vs_heap\": %.2f}\n"
      "  ],\n"
      "  \"snapshot_churn\": [\n"
      "    {\"rows\": \"heap\", \"publish_us\": %.1f, \"recycled\": 0},\n"
      "    {\"rows\": \"arena\", \"publish_us\": %.1f, \"recycled\": %llu}\n"
      "  ]\n"
      "}\n",
      kDim, kBatchSize, kServers, arena_lookup.backing.c_str(),
      heap_lookup.batch_ns_per_lookup, arena_lookup.batch_ns_per_lookup,
      heap_lookup.batch_ns_per_lookup / arena_lookup.batch_ns_per_lookup,
      heap_churn.publish_us, arena_churn.publish_us,
      static_cast<unsigned long long>(arena_churn.recycled));
  std::fclose(out);
  std::printf("wrote %s (backing: %s)\n", path.c_str(),
              arena_lookup.backing.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_allocator.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") != 0) {
      std::fprintf(stderr, "usage: %s [--json[=PATH]]\n", argv[0]);
      return 2;
    }
  }
  return emit_json(path);
}
