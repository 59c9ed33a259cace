/// Standalone TCP load-balancer server: the hd-hierarchical table
/// behind the wire protocol, served by the epoll reactor.
///
///   net_server [--port P] [--io N] [--shards N|auto] [--servers K]
///              [--pin <none|compact|scatter|smt-aware>]
///
/// Binds 127.0.0.1:7700 by default, pre-joins K servers (ids 1..K) so
/// ROUTE works immediately, then serves until SIGINT/SIGTERM — at
/// which point it drains connections gracefully and prints the final
/// counters.  `--help` prints the usage; an unknown flag or a bad value
/// exits 2 without binding.  Drive it with examples/net_load_gen or
/// netcat:
///
///   $ printf 'PING\r\nROUTE 7\r\nSTATS\r\n' | nc 127.0.0.1 7700
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "cli_flags.hpp"
#include "exp/factory.hpp"
#include "exp/emulator_options.hpp"
#include "net/server.hpp"
#include "runtime/cpu_topology.hpp"
#include "runtime/placement_plan.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

constexpr std::string_view kUsage =
    "usage: net_server [--port P] [--io N] [--shards N|auto] [--servers K]\n"
    "                  [--pin none|compact|scatter|smt-aware]\n"
    "  --port P     TCP port on 127.0.0.1, 1..65535 (default 7700)\n"
    "  --io N       io reactor threads (default: one per four cores)\n"
    "  --shards N   shard decode workers, or auto (default auto)\n"
    "  --servers K  servers pre-joined as ids 1..K (default 48)\n"
    "  --pin P      worker placement policy (default per HDHASH_PIN)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  const examples::cli_flags flags(
      argc, argv, kUsage,
      {"--port", "--io", "--shards", "--servers", "--pin"});
  const std::size_t port = flags.positive("--port", 7700, 65535);
  const std::size_t io_requested = flags.positive("--io", 0);
  const std::size_t servers = flags.positive("--servers", 48);
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    std::string message = opts.errors.front();
    for (std::size_t e = 1; e < opts.errors.size(); ++e) {
      message += "; " + opts.errors[e];
    }
    flags.fail(message);
  }
  if (!net::net_server::supported()) {
    std::fprintf(stderr, "net_server: epoll reactor unsupported here\n");
    return 1;
  }

  // `--shards auto` sizes the whole split io-aware: the io reservation
  // comes off the shard budget instead of oversubscribing cores.
  const runtime::cpu_topology& topo = runtime::host_topology();
  const runtime::io_shard_split split =
      runtime::plan_io_shard_split(topo, io_requested);
  net::server_config config;
  config.port = static_cast<std::uint16_t>(port);
  config.io_threads = split.io_threads;
  config.shards = opts.shards_set && !opts.shards_auto ? opts.shards
                                                       : split.shards;
  config.placement = opts.placement;

  table_options options;
  options.hd.dimension = 4096;
  options.hd.capacity = std::max<std::size_t>(256, servers * 2);
  options.hd.slot_cache = true;
  net::net_server server(
      [options] { return make_table("hd-hierarchical", options); }, config);
  server.start();
  for (std::size_t s = 1; s <= servers; ++s) {
    server.router().join(static_cast<server_id>(s));
  }

  std::printf(
      "hdhash net_server listening on %s:%u\n"
      "  io threads %zu, shards %zu, placement %s\n"
      "  %zu server(s) pre-joined\n"
      "  stop with SIGINT/SIGTERM (graceful drain)\n",
      server.config().bind_address.c_str(), server.port(),
      config.io_threads, config.shards,
      std::string(runtime::to_string(config.placement)).c_str(), servers);
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::printf("\ndraining...\n");
  server.stop();
  const net::server_counters counters = server.counters();
  std::printf(
      "served %llu request(s) over %llu connection(s); joins %llu, "
      "leaves %llu, protocol errors %llu\n",
      static_cast<unsigned long long>(counters.requests_routed),
      static_cast<unsigned long long>(counters.connections_accepted),
      static_cast<unsigned long long>(counters.joins),
      static_cast<unsigned long long>(counters.leaves),
      static_cast<unsigned long long>(counters.protocol_errors));
  return 0;
}
