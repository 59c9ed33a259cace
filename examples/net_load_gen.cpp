/// Loopback load generator for the TCP front-end: opens N pipelined
/// connections against a running net_server and reports delivered
/// throughput plus reply-latency percentiles.
///
///   net_load_gen [--port P] [--host A] [--connections N]
///                [--requests N] [--pipeline N] [--join K]
///
/// `--join K` first sends a JOIN burst (server ids 1..K) over a
/// control connection, so the generator can drive a freshly started
/// empty server end to end.  `--help` prints the usage; an unknown
/// flag or a bad value exits 2 without connecting.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cli_flags.hpp"
#include "net/load_gen.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

constexpr std::string_view kUsage =
    "usage: net_load_gen [--port P] [--host A] [--connections N]\n"
    "                    [--requests N] [--pipeline N] [--join K]\n"
    "  --port P         server port, 1..65535 (default 7700)\n"
    "  --host A         server address (default 127.0.0.1)\n"
    "  --connections N  pipelined connections (default 8)\n"
    "  --requests N     ROUTE requests per connection (default 25000)\n"
    "  --pipeline N     requests in flight per connection (default 128)\n"
    "  --join K         JOIN servers 1..K first (default: no JOIN)\n";

/// Sends `JOIN 1..K` over one blocking control connection and checks
/// every reply parses (duplicate joins answer -ERR, which is fine when
/// pointing at an already-populated server).
bool join_burst(const std::string& host, std::uint16_t port,
                std::size_t servers) {
#if defined(__unix__) || defined(__APPLE__)
  std::string error;
  const hdhash::net::unique_fd fd =
      hdhash::net::tcp_connect(host, port, &error);
  if (!fd.valid()) {
    std::fprintf(stderr, "join burst connect failed: %s\n", error.c_str());
    return false;
  }
  std::string commands;
  for (std::size_t s = 1; s <= servers; ++s) {
    commands += "JOIN " + std::to_string(s) + "\r\n";
  }
  std::size_t offset = 0;
  while (offset < commands.size()) {
    const ssize_t written = ::write(fd.get(), commands.data() + offset,
                                    commands.size() - offset);
    if (written <= 0) {
      std::fprintf(stderr, "join burst write failed\n");
      return false;
    }
    offset += static_cast<std::size_t>(written);
  }
  hdhash::net::reply_parser parser;
  hdhash::net::wire_reply reply;
  std::size_t replies = 0;
  char buffer[4096];
  while (replies < servers) {
    const ssize_t received = ::read(fd.get(), buffer, sizeof buffer);
    if (received <= 0) {
      std::fprintf(stderr, "join burst read failed\n");
      return false;
    }
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(received)));
    while (parser.next(reply) == hdhash::net::parse_result::command) {
      ++replies;
    }
    if (parser.failed()) {
      std::fprintf(stderr, "join burst: %s\n", parser.error_message().c_str());
      return false;
    }
  }
  return true;
#else
  (void)host;
  (void)port;
  (void)servers;
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  const examples::cli_flags flags(argc, argv, kUsage,
                                  {"--port", "--host", "--connections",
                                   "--requests", "--pipeline", "--join"});
  net::load_gen_config config;
  config.host = flags.text("--host", "127.0.0.1");
  config.port =
      static_cast<std::uint16_t>(flags.positive("--port", 7700, 65535));
  config.connections = flags.positive("--connections", 8);
  config.requests_per_connection = flags.positive("--requests", 25000);
  config.pipeline_depth = flags.positive("--pipeline", 128);
  const std::size_t join_servers = flags.positive("--join", 0);

  if (join_servers > 0 &&
      !join_burst(config.host, config.port, join_servers)) {
    return 1;
  }

  std::printf("driving %s:%u — %zu connection(s) x %zu request(s), "
              "pipeline %zu\n",
              config.host.c_str(), config.port, config.connections,
              config.requests_per_connection, config.pipeline_depth);
  std::fflush(stdout);
  net::load_gen_report report;
  try {
    report = net::run_load_gen(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "load_gen failed: %s\n", error.what());
    return 1;
  }

  std::uint64_t peak = 0;
  std::uint64_t total = 0;
  for (const auto& [server, count] : report.server_load) {
    peak = std::max(peak, count);
    total += count;
  }
  const double mean =
      report.server_load.empty()
          ? 0.0
          : static_cast<double>(total) /
                static_cast<double>(report.server_load.size());
  std::printf(
      "delivered %.0f req/s (%zu replies in %.2fs, %zu error(s))\n"
      "latency p50 %llu us, p99 %llu us, p99.9 %llu us, max %llu us\n"
      "load spread: %zu server(s), peak/mean %.2f\n",
      report.requests_per_second, report.requests, report.wall_seconds,
      report.errors, static_cast<unsigned long long>(report.p50_us),
      static_cast<unsigned long long>(report.p99_us),
      static_cast<unsigned long long>(report.p999_us),
      static_cast<unsigned long long>(report.max_us),
      report.server_load.size(), mean > 0.0 ? peak / mean : 0.0);
  return 0;
}
