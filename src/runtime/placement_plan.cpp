#include "runtime/placement_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <tuple>

#include "util/require.hpp"

namespace hdhash::runtime {

std::string_view to_string(placement_policy policy) noexcept {
  switch (policy) {
    case placement_policy::none:
      return "none";
    case placement_policy::compact:
      return "compact";
    case placement_policy::scatter:
      return "scatter";
    case placement_policy::smt_aware:
      return "smt-aware";
  }
  return "none";
}

std::optional<placement_policy> parse_placement_policy(std::string_view name) {
  if (name == "none") {
    return placement_policy::none;
  }
  if (name == "compact") {
    return placement_policy::compact;
  }
  if (name == "scatter") {
    return placement_policy::scatter;
  }
  if (name == "smt-aware" || name == "smt_aware") {
    return placement_policy::smt_aware;
  }
  return std::nullopt;
}

placement_policy default_placement_policy() {
  const char* env = std::getenv("HDHASH_PIN");
  if (env == nullptr || *env == '\0') {
    return placement_policy::compact;
  }
  const auto policy = parse_placement_policy(env);
  HDHASH_REQUIRE(policy.has_value(),
                 "HDHASH_PIN must be one of none|compact|scatter|smt-aware");
  return *policy;
}

namespace {

/// Allowed CPUs in the visit order of one policy.  Each comparison key
/// leads with the dimension the policy spreads over least eagerly:
/// compact keeps SMT siblings adjacent inside one node; smt-aware puts
/// every core's thread 0 before any thread 1; scatter interleaves
/// nodes round-robin on top of the smt-aware order.
std::vector<const logical_cpu*> policy_order(const cpu_topology& topology,
                                             placement_policy policy) {
  std::vector<const logical_cpu*> cpus;
  for (const logical_cpu& cpu : topology.cpus()) {
    if (cpu.allowed) {
      cpus.push_back(&cpu);
    }
  }
  const auto compact_key = [](const logical_cpu* c) {
    return std::make_tuple(c->node, c->package, c->core, c->smt_rank, c->id);
  };
  const auto smt_key = [](const logical_cpu* c) {
    return std::make_tuple(c->smt_rank, c->node, c->package, c->core, c->id);
  };
  switch (policy) {
    case placement_policy::none:
      return cpus;
    case placement_policy::compact:
      std::sort(cpus.begin(), cpus.end(),
                [&](const logical_cpu* a, const logical_cpu* b) {
                  return compact_key(a) < compact_key(b);
                });
      return cpus;
    case placement_policy::smt_aware:
      std::sort(cpus.begin(), cpus.end(),
                [&](const logical_cpu* a, const logical_cpu* b) {
                  return smt_key(a) < smt_key(b);
                });
      return cpus;
    case placement_policy::scatter: {
      // Physical cores first within each node, then interleave the
      // per-node queues round-robin so consecutive workers land on
      // different memory controllers.
      std::map<unsigned, std::vector<const logical_cpu*>> per_node;
      for (const logical_cpu* cpu : cpus) {
        per_node[cpu->node].push_back(cpu);
      }
      for (auto& [node, queue] : per_node) {
        std::sort(queue.begin(), queue.end(),
                  [&](const logical_cpu* a, const logical_cpu* b) {
                    return smt_key(a) < smt_key(b);
                  });
      }
      std::vector<const logical_cpu*> order;
      order.reserve(cpus.size());
      for (std::size_t round = 0; order.size() < cpus.size(); ++round) {
        for (const auto& [node, queue] : per_node) {
          if (round < queue.size()) {
            order.push_back(queue[round]);
          }
        }
      }
      return order;
    }
  }
  return cpus;
}

}  // namespace

placement_plan plan_placement(const cpu_topology& topology,
                              std::size_t workers, placement_policy policy) {
  placement_plan plan;
  plan.policy = policy;
  plan.workers.assign(workers, worker_placement{});
  if (policy == placement_policy::none) {
    return plan;
  }
  const std::vector<const logical_cpu*> order = policy_order(topology, policy);
  if (order.empty()) {
    return plan;  // nothing allowed: every worker stays unpinned
  }
  plan.oversubscribed = workers > order.size();
  if (plan.oversubscribed) {
    return plan;  // sharing CPUs: leave every worker to the scheduler
  }
  for (std::size_t w = 0; w < workers; ++w) {
    const logical_cpu* cpu = order[w];
    plan.workers[w].cpu = static_cast<int>(cpu->id);
    plan.workers[w].node = static_cast<int>(cpu->node);
  }
  return plan;
}

std::size_t auto_shard_count(const cpu_topology& topology) {
  return auto_shard_count(topology, 1);
}

std::size_t auto_shard_count(const cpu_topology& topology,
                             std::size_t reserved_cores) {
  const std::size_t cores = topology.allowed_physical_cores();
  if (cores > reserved_cores + 1) {
    return cores - reserved_cores;  // reserved workers get their own cores
  }
  // Too small to dedicate cores: every worker shares the full set.
  return std::max<std::size_t>(cores, 1);
}

io_shard_split plan_io_shard_split(const cpu_topology& topology,
                                   std::size_t requested_io) {
  const std::size_t cores =
      std::max<std::size_t>(topology.allowed_physical_cores(), 1);
  io_shard_split split;
  if (requested_io == 0) {
    split.io_threads = std::clamp<std::size_t>(cores / 4, 1, 4);
  } else {
    split.io_threads = std::min(requested_io, cores);
  }
  split.shards = auto_shard_count(topology, split.io_threads);
  return split;
}

}  // namespace hdhash::runtime
