/// Sharded, double-buffered emulator: determinism against the
/// single-table reference, merge() accounting, shadow mirroring and
/// degenerate configurations.  These tests exercise real worker threads
/// and are the primary TSan target (-DHDHASH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <vector>

#include "emu/emulator.hpp"
#include "emu/generator.hpp"
#include "emu/ingest.hpp"
#include "emu/sharded_emulator.hpp"
#include "emu/stream_router.hpp"
#include "exp/factory.hpp"
#include "exp/sharded.hpp"
#include "runtime/worker_pool.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 128;
  return options;
}

workload_config churn_workload() {
  workload_config config;
  config.initial_servers = 12;
  config.request_count = 4000;
  config.churn_rate = 0.02;
  config.seed = 11;
  return config;
}

sharded_emulator::table_factory factory_for(std::string_view algorithm) {
  return [algorithm](std::size_t) {
    return make_table(algorithm, fast_options());
  };
}

TEST(ShardedEmulatorTest, MergedStatsEqualSingleTableReference) {
  const generator gen(churn_workload());
  const auto events = gen.generate();
  for (const auto algorithm : {"consistent", "hd-hierarchical"}) {
    auto reference_table = make_table(algorithm, fast_options());
    emulator reference(*reference_table, 256);
    const run_stats expected = reference.run(events);

    for (const auto membership : {membership_mode::snapshot,
                                  membership_mode::replicated}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{4}}) {
        sharded_config config;
        config.shards = shards;
        config.membership = membership;
        sharded_emulator emu(factory_for(algorithm), config);
        const sharded_report report = emu.run(events);
        const char* mode =
            membership == membership_mode::snapshot ? "snapshot" : "replicated";
        EXPECT_EQ(report.merged.requests, expected.requests)
            << algorithm << " " << mode << " shards=" << shards;
        EXPECT_EQ(report.merged.joins, expected.joins)
            << algorithm << " " << mode << " shards=" << shards;
        EXPECT_EQ(report.merged.leaves, expected.leaves)
            << algorithm << " " << mode << " shards=" << shards;
        // The headline determinism guarantee: the merged per-server load
        // histogram is bit-identical to the single-table run.
        EXPECT_EQ(report.merged.load, expected.load)
            << algorithm << " " << mode << " shards=" << shards;
      }
    }
  }
}

TEST(ShardedEmulatorTest, PlacementPoliciesNeverChangeAssignments) {
  // The acceptance bar of the runtime layer: placement decides *where*
  // workers execute, never *what* they answer — the merged histogram is
  // bit-identical to the single-table reference under every policy at
  // 1–8 shards (snapshot membership, churny stream).
  const generator gen(churn_workload());
  const auto events = gen.generate();
  auto reference_table = make_table("hd-hierarchical", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const auto policy :
       {runtime::placement_policy::none, runtime::placement_policy::compact,
        runtime::placement_policy::scatter,
        runtime::placement_policy::smt_aware}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      sharded_config config;
      config.shards = shards;
      config.placement = policy;
      sharded_emulator emu(factory_for("hd-hierarchical"), config);
      const sharded_report report = emu.run(events);
      EXPECT_EQ(report.merged.load, expected.load)
          << runtime::to_string(policy) << " shards=" << shards;
      EXPECT_EQ(report.placement, policy);
      ASSERT_EQ(report.workers.size(), shards);
      for (const runtime::worker_info& worker : report.workers) {
        if (policy == runtime::placement_policy::none) {
          // `none` never even attempts the affinity call.
          EXPECT_FALSE(worker.pinned);
        }
        if (worker.pinned) {
          EXPECT_GE(worker.cpu, 0);
          EXPECT_GE(worker.node, 0);
        } else {
          EXPECT_EQ(worker.cpu, -1);
        }
      }
    }
  }
}

TEST(ShardedEmulatorTest, EveryShardReplicatesTheFullPool) {
  const generator gen(churn_workload());
  const auto events = gen.generate();
  sharded_config config;
  config.shards = 3;
  config.membership = membership_mode::replicated;
  sharded_emulator emu(factory_for("consistent"), config);
  const sharded_report report = emu.run(events);
  ASSERT_EQ(report.per_shard.size(), 3u);
  std::size_t shard_requests = 0;
  for (std::size_t s = 0; s < emu.shards(); ++s) {
    // Broadcast membership: every replica applied every join/leave.
    EXPECT_EQ(report.per_shard[s].joins, report.merged.joins);
    EXPECT_EQ(report.per_shard[s].leaves, report.merged.leaves);
    EXPECT_EQ(emu.table(s).server_count(),
              report.merged.joins - report.merged.leaves);
    shard_requests += report.per_shard[s].requests;
  }
  // Partitioned requests: each answered in exactly one shard.
  EXPECT_EQ(shard_requests, report.merged.requests);
}

TEST(ShardedEmulatorTest, ShadowOraclesSeeNoMismatch) {
  // In both membership modes an uncorrupted run must agree with its
  // shadow on every answer (the deeper conformance suite — corrupted
  // tables, bit-identical counts across modes — lives in
  // scenario_oracle_test.cpp).
  const generator gen(churn_workload());
  const auto events = gen.generate();
  for (const auto membership : {membership_mode::snapshot,
                                membership_mode::replicated}) {
    sharded_config config;
    config.shards = 4;
    config.shadow = true;
    config.membership = membership;
    sharded_emulator emu(factory_for("hd-hierarchical"), config);
    const sharded_report report = emu.run(events);
    EXPECT_GT(report.merged.requests, 0u);
    EXPECT_EQ(report.merged.mismatches, 0u);
    EXPECT_EQ(report.merged.invalid_assignments, 0u);
  }
}

TEST(ShardedEmulatorTest, DegenerateConfigurationsStillComplete) {
  workload_config workload = churn_workload();
  workload.request_count = 300;
  const generator gen(workload);
  const auto events = gen.generate();

  auto reference_table = make_table("consistent", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const auto membership : {membership_mode::snapshot,
                                membership_mode::replicated}) {
    for (const std::size_t buffer : {std::size_t{1}, std::size_t{7}}) {
      sharded_config config;
      config.shards = 2;
      config.buffer_capacity = buffer;  // every event its own batch, odd size
      config.membership = membership;
      sharded_emulator emu(factory_for("consistent"), config);
      const sharded_report report = emu.run(events);
      EXPECT_EQ(report.merged.load, expected.load) << "buffer=" << buffer;
    }
  }
}

TEST(ShardedEmulatorTest, RequestPartitionIsStable) {
  sharded_config config;
  config.shards = 8;
  sharded_emulator emu(factory_for("consistent"), config);
  for (request_id r = 1; r < 100; ++r) {
    const std::size_t shard = emu.shard_of(r);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, emu.shard_of(r));
  }
}

TEST(ShardedEmulatorTest, WorkerExceptionsPropagate) {
  // A leave for an unknown server faults inside a worker thread; the
  // error must surface on the calling thread, not crash the process.
  sharded_config config;
  config.shards = 2;
  sharded_emulator emu(factory_for("consistent"), config);
  const std::vector<event> events = {{event_kind::leave, 404}};
  EXPECT_THROW(emu.run(events), precondition_error);
}

TEST(ShardedEmulatorTest, MultiProducerMeshStaysDeterministic) {
  // The tentpole guarantee of the ingest mesh: M pinned producers
  // splitting the stream by index range, feeding lock-free SPSC lanes,
  // reproduce the single-table reference histogram bit for bit — the
  // epoch pre-scan sequences membership, so partitioning the request
  // stream cannot reorder anything observable.
  const generator gen(churn_workload());
  const auto events = gen.generate();
  auto reference_table = make_table("hd-hierarchical", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const std::size_t producers : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      sharded_config config;
      config.shards = shards;
      config.producers = producers;
      config.membership = membership_mode::snapshot;
      sharded_emulator emu(factory_for("hd-hierarchical"), config);
      const sharded_report report = emu.run(events);
      EXPECT_EQ(report.merged.load, expected.load)
          << "producers=" << producers << " shards=" << shards;
      EXPECT_EQ(report.merged.requests, expected.requests);
      EXPECT_EQ(report.merged.joins, expected.joins);
      EXPECT_EQ(report.merged.leaves, expected.leaves);
      // Worker layout: decode workers first, producer threads after.
      EXPECT_EQ(report.workers.size(), shards);
      EXPECT_EQ(report.producer_workers.size(), producers);
    }
  }
}

TEST(ShardedEmulatorTest, RouterAndEmulatorPartitionStreamsIdentically) {
  // The net server (via stream_router) and the in-process emulator must
  // send every request id to the same shard, or socket routing could
  // not be compared shard for shard with the emulator.
  runtime::worker_pool pool(8, runtime::placement_policy::none);
  for (std::size_t shards = 1; shards <= 8; ++shards) {
    sharded_config emu_config;
    emu_config.shards = shards;
    emu_config.placement = runtime::placement_policy::none;
    const sharded_emulator emu(factory_for("consistent"), emu_config);
    stream_router::config router_config;
    router_config.shards = shards;
    const stream_router router(make_table("consistent", fast_options()), pool,
                               0, router_config);
    for (request_id id = 0; id < 4000; ++id) {
      const request_id spread = id * 0x9E37'79B9'7F4A'7C15ULL;
      ASSERT_EQ(router.shard_of(spread), emu.shard_of(spread))
          << "shards=" << shards << " id=" << spread;
      ASSERT_EQ(emu.shard_of(spread), partition_shard(spread, shards));
    }
  }
}

TEST(StreamRouterTest, MeshHasOneRowPerSession) {
  runtime::worker_pool pool(1, runtime::placement_policy::none);
  stream_router::config config;
  EXPECT_EQ(config.sessions, 1u);
  stream_router router(make_table("consistent", fast_options()), pool, 0,
                       config);
  router.open_session(0);
  EXPECT_THROW(router.open_session(1), precondition_error);
  config.sessions = 0;
  EXPECT_THROW(stream_router(make_table("consistent", fast_options()), pool,
                             0, config),
               precondition_error);
}

TEST(ShardedEmulatorTest, MultiProducerSweepMatchesReference) {
  shard_sweep_config config;
  config.shard_counts = {1, 2};
  config.servers = 16;
  config.requests = 2000;
  config.churn_rate = 0.01;
  config.producers = 2;
  const auto series =
      run_shard_sweep("hd-hierarchical", config, fast_options());
  for (const shard_sweep_point& point : series) {
    EXPECT_TRUE(point.matches_reference) << "shards=" << point.shards;
    EXPECT_EQ(point.producers, 2u);
  }
}

TEST(ShardedEmulatorTest, RejectsInvalidConfiguration) {
  sharded_config zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_shards),
               precondition_error);
  sharded_config zero_buffer;
  zero_buffer.buffer_capacity = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_buffer),
               precondition_error);
  sharded_config zero_producers;
  zero_producers.producers = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_producers),
               precondition_error);
  // Replicated membership broadcasts events in stream order — that
  // needs the single-producer pipeline.
  sharded_config multi_replicated;
  multi_replicated.producers = 2;
  multi_replicated.membership = membership_mode::replicated;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), multi_replicated),
               precondition_error);
  sharded_config zero_depth;
  zero_depth.channel_depth = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_depth),
               precondition_error);
}

TEST(RunStatsMergeTest, SumsCountersAndLoadHistograms) {
  run_stats a;
  a.requests = 10;
  a.joins = 2;
  a.leaves = 1;
  a.batches = 3;
  a.mismatches = 4;
  a.invalid_assignments = 1;
  a.total_request_ns = 50.0;
  a.load[7] = 6;
  a.load[9] = 4;
  run_stats b;
  b.requests = 5;
  b.batches = 1;
  b.total_request_ns = 25.0;
  b.load[9] = 2;
  b.load[11] = 3;

  const std::vector<run_stats> parts = {a, b};
  const run_stats merged = merge(parts);
  EXPECT_EQ(merged.requests, 15u);
  EXPECT_EQ(merged.joins, 2u);
  EXPECT_EQ(merged.leaves, 1u);
  EXPECT_EQ(merged.batches, 4u);
  EXPECT_EQ(merged.mismatches, 4u);
  EXPECT_EQ(merged.invalid_assignments, 1u);
  EXPECT_DOUBLE_EQ(merged.total_request_ns, 75.0);
  EXPECT_EQ(merged.load.at(7), 6u);
  EXPECT_EQ(merged.load.at(9), 6u);
  EXPECT_EQ(merged.load.at(11), 3u);
  EXPECT_DOUBLE_EQ(merged.avg_request_ns(), 5.0);
}

TEST(ShardSweepDriverTest, SweepIsDeterministicAtEveryShardCount) {
  shard_sweep_config config;
  config.shard_counts = {1, 2, 4};
  config.servers = 16;
  config.requests = 3000;
  config.churn_rate = 0.01;
  const auto series =
      run_shard_sweep("hd-hierarchical", config, fast_options());
  ASSERT_EQ(series.size(), 3u);
  for (const shard_sweep_point& point : series) {
    EXPECT_TRUE(point.matches_reference) << "shards=" << point.shards;
    EXPECT_EQ(point.merged.requests, 3000u);
    EXPECT_GT(point.aggregate_requests_per_second, 0.0);
    EXPECT_GT(point.wall_requests_per_second, 0.0);
  }
  EXPECT_DOUBLE_EQ(series[0].aggregate_speedup, 1.0);
}

}  // namespace
}  // namespace hdhash
