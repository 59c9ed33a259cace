/// \file workload.hpp
/// \brief The four routing workloads: table deployment, key space and
/// the per-connection command streams, all derived from the seed.
/// Shared by the server (which builds the table) and the driver (which
/// sends the commands and builds the reference table).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/factory.hpp"
#include "table/dynamic_table.hpp"
#include "wire.hpp"

namespace perfbench {

inline constexpr std::size_t kDimension = 10'000;
inline constexpr std::size_t kKeys = 200'000;
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kPipeline = 128;
/// Connection 0 of route-churn sends a membership change as every
/// kChurnEvery-th command (about 1% of all commands over 4 connections).
inline constexpr std::uint64_t kChurnEvery = 25;
/// Fresh server ids joined by route-churn start here (initial members
/// are 1..servers).
inline constexpr std::uint64_t kFreshServerBase = 1'000'000'000;

struct workload_spec {
  std::string_view name;
  std::string_view algorithm;  ///< make_table() name
  std::size_t servers = 0;     ///< initial members 1..servers
  std::size_t capacity = 0;    ///< hd circle capacity
  bool slot_cache = false;
  bool churn = false;          ///< connection 0 sends JOIN/LEAVE
  double paced_rps = 0.0;      ///< > 0: open loop at this rate
};

inline const std::vector<workload_spec>& workloads() {
  static const std::vector<workload_spec> all = {
      {"route-cached", "hd-hierarchical", 128, 512, true, false, 0.0},
      {"route-assoc", "hd", 512, 4096, false, false, 0.0},
      {"route-churn", "hd-hierarchical", 128, 512, true, true, 0.0},
      {"route-paced", "hd-hierarchical", 128, 512, true, false, 100'000.0},
  };
  return all;
}

inline const workload_spec* find_workload(std::string_view name) {
  for (const workload_spec& spec : workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

/// Empty table of the workload's deployment (d = 10,000).
inline std::unique_ptr<hdhash::dynamic_table> make_workload_table(
    const workload_spec& spec) {
  hdhash::table_options options;
  options.hd.dimension = kDimension;
  options.hd.capacity = spec.capacity;
  options.hd.slot_cache = spec.slot_cache;
  return hdhash::make_table(spec.algorithm, options);
}

inline void join_initial_members(hdhash::dynamic_table& table,
                                 const workload_spec& spec) {
  for (std::uint64_t s = 1; s <= spec.servers; ++s) {
    table.join(s);
  }
}

/// splitmix64 finalizer: the benchmark's own seeded generator.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E37'79B9'7F4A'7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D0'49BB'1331'11EBull;
  return x ^ (x >> 31);
}

/// The key universe: kKeys request ids drawn from the seed, each with
/// its "ROUTE <id>\r\n" line pre-encoded.
struct key_space {
  std::vector<std::uint64_t> ids;
  std::string lines;
  std::vector<std::uint32_t> line_offset;  ///< kKeys + 1 offsets

  explicit key_space(std::uint64_t seed) {
    ids.reserve(kKeys);
    line_offset.reserve(kKeys + 1);
    for (std::size_t i = 0; i < kKeys; ++i) {
      const std::uint64_t id = mix64(seed * 0x1000'0000'01B3ull + i);
      ids.push_back(id);
      line_offset.push_back(static_cast<std::uint32_t>(lines.size()));
      lines += "ROUTE ";
      lines += std::to_string(id);
      lines += "\r\n";
    }
    line_offset.push_back(static_cast<std::uint32_t>(lines.size()));
  }

  std::string_view line(std::uint32_t key) const {
    return std::string_view(lines).substr(
        line_offset[key], line_offset[key + 1] - line_offset[key]);
  }
};

/// One command of a stream: a ROUTE of key `key`, or a membership
/// change of server `server`.
struct stream_command {
  command_kind kind = command_kind::route;
  std::uint32_t key = 0;
  std::uint64_t server = 0;
};

/// The seeded command streams of every connection.  ROUTE keys are
/// uniform over the key space; on route-churn, connection 0's every
/// kChurnEvery-th command alternates JOIN of a fresh id and LEAVE of
/// that id.  Every connection draws its keys from its own seeded
/// sequence, so the inputs do not depend on timing.
class command_source {
 public:
  command_source(std::uint64_t seed, const workload_spec& spec)
      : churn_(spec.churn) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      state_[c] = mix64(seed ^ (0xC0FFEEull + c));
    }
  }

  stream_command next(std::size_t connection) {
    const std::uint64_t index = issued_[connection]++;
    stream_command command;
    if (churn_ && connection == 0 && index % kChurnEvery == kChurnEvery - 1) {
      const std::uint64_t op = membership_ops_++;
      command.kind = op % 2 == 0 ? command_kind::join : command_kind::leave;
      command.server = kFreshServerBase + op / 2;
      return command;
    }
    state_[connection] += 0x9E37'79B9'7F4A'7C15ull;
    const std::uint64_t r = mix64(state_[connection]);
    // Lemire's multiply-shift: uniform over [0, kKeys).
    command.key = static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(r) * kKeys) >> 64);
    return command;
  }

  /// Wire bytes of `command` appended to `out`.
  static void encode(const key_space& keys, const stream_command& command,
                     std::string& out) {
    switch (command.kind) {
      case command_kind::route:
        out += keys.line(command.key);
        break;
      case command_kind::join:
        out += "JOIN " + std::to_string(command.server) + "\r\n";
        break;
      case command_kind::leave:
        out += "LEAVE " + std::to_string(command.server) + "\r\n";
        break;
      case command_kind::ping:
        out += "PING\r\n";
        break;
      case command_kind::stats:
        out += "STATS\r\n";
        break;
    }
  }

 private:
  bool churn_;
  std::uint64_t state_[kConnections] = {};
  std::uint64_t issued_[kConnections] = {};
  std::uint64_t membership_ops_ = 0;
};

}  // namespace perfbench
