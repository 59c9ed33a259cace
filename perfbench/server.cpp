/// perfbench_server: the routing server of one workload in its own
/// process, so its CPU time and peak RSS are measured apart from the
/// load generator's.
///
///   perfbench_server --workload NAME --io N --shards N
///
/// Builds the workload's table, starts net::net_server on an ephemeral
/// loopback port, joins the initial members, prints "READY <port>" on
/// stdout, and serves until its stdin reaches end-of-file (the driver
/// closes it, or the driver died); then it drains gracefully and exits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <unistd.h>

#include "net/server.hpp"
#include "workload.hpp"

namespace {

std::size_t count_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return 0;
}

const char* text_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return argv[i + 1];
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  const perfbench::workload_spec* spec =
      perfbench::find_workload(text_flag(argc, argv, "--workload"));
  const std::size_t io = count_flag(argc, argv, "--io");
  const std::size_t shards = count_flag(argc, argv, "--shards");
  if (spec == nullptr || io == 0 || shards == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_server --workload NAME --io N --shards N\n");
    return 2;
  }
  try {
    net::server_config config;
    config.io_threads = io;
    config.shards = shards;
    net::net_server server(
        [spec] { return perfbench::make_workload_table(*spec); }, config);
    server.start();
    for (std::uint64_t s = 1; s <= spec->servers; ++s) {
      server.router().join(s);
    }
    std::printf("READY %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    char buffer[256];
    while (::read(STDIN_FILENO, buffer, sizeof buffer) > 0) {
    }
    server.stop();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_server: %s\n", error.what());
    return 1;
  }
  return 0;
}
