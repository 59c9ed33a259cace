/// TCP front-end throughput: an in-process net_server on a loopback
/// ephemeral port, driven by the multi-connection pipelined load
/// generator.  Emits BENCH_net_frontend.json with the delivered
/// request rate and reply-latency percentiles — the end-to-end number
/// that sits on top of BENCH_sharded_emulator.json's in-process
/// service rates (scripts/check_bench.py prints the delivered-vs-
/// service comparison when both are present).
///
/// The server runs the default io/shard split for this topology
/// (io-core reservation included), the hd-hierarchical table with the
/// maintained slot cache, and the epoll reactor; the generator keeps
/// `--connections` pipelined connections saturated.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "exp/factory.hpp"
#include "exp/sharded.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "runtime/cpu_topology.hpp"
#include "runtime/placement_plan.hpp"
#include "runtime/worker_pool.hpp"

int main(int argc, char** argv) {
  using namespace hdhash;
  std::string json_path = "BENCH_net_frontend.json";
  std::size_t connections = 8;
  std::size_t requests_per_connection = 50'000;
  std::size_t pipeline_depth = 128;
  std::size_t servers = 128;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--connections=", 14) == 0) {
      connections = parse_positive_value(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests_per_connection = parse_positive_value(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--pipeline=", 11) == 0) {
      pipeline_depth = parse_positive_value(argv[i] + 11);
    }
  }
  if (connections == 0 || requests_per_connection == 0 ||
      pipeline_depth == 0) {
    std::fprintf(stderr, "--connections/--requests/--pipeline need "
                         "positive integers\n");
    return 1;
  }
  if (!net::net_server::supported()) {
    std::fprintf(stderr, "net_frontend: epoll reactor unsupported here\n");
    return 1;
  }
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }

  const runtime::cpu_topology& topo = runtime::host_topology();
  const runtime::io_shard_split split = runtime::plan_io_shard_split(topo);
  net::server_config config;
  config.port = 0;  // ephemeral
  config.io_threads = split.io_threads;
  config.shards = split.shards;
  config.placement = opts.placement;

  table_options options;
  options.hd.capacity = 512;
  options.hd.slot_cache = true;
  net::net_server server(
      [options] { return make_table("hd-hierarchical", options); }, config);
  server.start();
  for (std::size_t s = 1; s <= servers; ++s) {
    server.router().join(static_cast<server_id>(s));
  }

  std::printf(
      "== Net front-end throughput (hd-hierarchical, %zu servers) ==\n"
      "loopback 127.0.0.1:%u — %zu connection(s) x %zu request(s), "
      "pipeline %zu\n"
      "io threads %zu, shards %zu, placement %s\n"
      "topology: %zu physical core(s), %zu allowed CPU(s), "
      "%zu NUMA node(s)\n",
      servers, server.port(), connections, requests_per_connection,
      pipeline_depth, config.io_threads, config.shards,
      std::string(runtime::to_string(config.placement)).c_str(),
      topo.physical_cores(), topo.allowed_cpus().size(), topo.numa_nodes());
  std::fflush(stdout);

  net::load_gen_config load;
  load.port = server.port();
  load.connections = connections;
  load.requests_per_connection = requests_per_connection;
  load.pipeline_depth = pipeline_depth;
  net::load_gen_report report;
  try {
    report = net::run_load_gen(load);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "load_gen failed: %s\n", error.what());
    server.stop();
    return 1;
  }
  server.stop();

  std::uint64_t peak = 0;
  std::uint64_t total = 0;
  for (const auto& [id, count] : report.server_load) {
    peak = std::max(peak, count);
    total += count;
  }
  const double mean =
      report.server_load.empty()
          ? 0.0
          : static_cast<double>(total) /
                static_cast<double>(report.server_load.size());
  std::printf(
      "\ndelivered %.0f req/s (%zu replies in %.2fs, %zu error(s))\n"
      "latency p50 %llu us, p99 %llu us, p99.9 %llu us, max %llu us\n"
      "load spread: %zu server(s), peak/mean %.2f\n",
      report.requests_per_second, report.requests, report.wall_seconds,
      report.errors, static_cast<unsigned long long>(report.p50_us),
      static_cast<unsigned long long>(report.p99_us),
      static_cast<unsigned long long>(report.p999_us),
      static_cast<unsigned long long>(report.max_us),
      report.server_load.size(), mean > 0.0 ? peak / mean : 0.0);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"benchmark\": \"net_frontend\",\n"
      "  \"algorithm\": \"hd-hierarchical\",\n"
      "  \"servers\": %zu,\n"
      "  \"connections\": %zu,\n"
      "  \"requests_per_connection\": %zu,\n"
      "  \"pipeline_depth\": %zu,\n"
      "  \"io_threads\": %zu,\n"
      "  \"shards\": %zu,\n"
      "  \"placement_policy\": \"%s\",\n"
      "  \"hardware_cores\": %u,\n"
      "  \"topology\": {\"packages\": %zu, \"numa_nodes\": %zu, "
      "\"physical_cores\": %zu, \"logical_cpus\": %zu, "
      "\"allowed_cpus\": %zu, \"smt_per_core\": %zu, "
      "\"pinning_supported\": %s, \"from_sysfs\": %s},\n"
      "  \"results\": {\"requests_per_second\": %.0f, \"requests\": %zu, "
      "\"errors\": %zu, \"wall_seconds\": %.4f, \"p50_us\": %llu, "
      "\"p99_us\": %llu, \"p999_us\": %llu, \"max_us\": %llu, "
      "\"peak_to_mean_load\": %.4f}\n"
      "}\n",
      servers, connections, requests_per_connection, pipeline_depth,
      config.io_threads, config.shards,
      std::string(runtime::to_string(config.placement)).c_str(),
      std::thread::hardware_concurrency(), topo.packages(), topo.numa_nodes(),
      topo.physical_cores(), topo.logical_cpus(), topo.allowed_cpus().size(),
      topo.smt_per_core(),
      runtime::worker_pool::pinning_supported() ? "true" : "false",
      topo.from_sysfs_tree() ? "true" : "false", report.requests_per_second,
      report.requests, report.errors, report.wall_seconds,
      static_cast<unsigned long long>(report.p50_us),
      static_cast<unsigned long long>(report.p99_us),
      static_cast<unsigned long long>(report.p999_us),
      static_cast<unsigned long long>(report.max_us),
      mean > 0.0 ? peak / mean : 0.0);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
