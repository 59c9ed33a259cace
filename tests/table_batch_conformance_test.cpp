/// Batch-lookup conformance: for every algorithm, lookup_batch must
/// produce exactly the assignments of element-wise lookup() — including
/// on fault-injected tables, where the batch path must reproduce the
/// scalar path's (possibly corrupted) answers bit for bit.  This is the
/// contract that lets the emulator and experiment drivers feed batches
/// everywhere without changing any measured result.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hd_table.hpp"
#include "exp/factory.hpp"
#include "fault/injector.hpp"
#include "hashing/registry.hpp"
#include "hashing/splitmix_hash.hpp"
#include "support/adversarial_rows.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 2048;  // keep HD construction fast in unit tests
  options.hd.capacity = 256;
  options.maglev_table_size = 4099;  // small prime
  return options;
}

std::vector<request_id> request_block(std::size_t count,
                                      std::uint64_t seed = 0x8a7c) {
  std::vector<request_id> block;
  block.reserve(count);
  xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    block.push_back(splitmix_hash::mix(rng()));
  }
  return block;
}

class BatchConformanceTest
    : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BatchConformanceTest,
                         ::testing::Values("modular", "consistent",
                                           "consistent-rank", "rendezvous",
                                           "weighted-rendezvous", "bounded",
                                           "jump", "maglev", "hd",
                                           "hd-hierarchical"),
                         [](const auto& info) {
                           std::string name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(BatchConformanceTest, BatchMatchesScalarLookup) {
  auto table = make_table(GetParam(), fast_options());
  for (server_id s = 1; s <= 24; ++s) {
    table->join(s * 1009);
  }
  const auto requests = request_block(2000);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i])) << "request " << i;
  }
}

TEST_P(BatchConformanceTest, AllocatingOverloadAgrees) {
  auto table = make_table(GetParam(), fast_options());
  for (server_id s = 1; s <= 8; ++s) {
    table->join(s * 37);
  }
  const auto requests = request_block(300);
  const std::vector<server_id> batched = table->lookup_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST_P(BatchConformanceTest, EmptyBlockIsANoopEvenOnEmptyPool) {
  auto table = make_table(GetParam(), fast_options());
  table->lookup_batch(std::span<const request_id>{},
                      std::span<server_id>{});  // must not throw
}

TEST_P(BatchConformanceTest, MismatchedSpansThrow) {
  auto table = make_table(GetParam(), fast_options());
  table->join(5);
  const std::vector<request_id> requests{1, 2, 3};
  std::vector<server_id> out(2);
  EXPECT_THROW(table->lookup_batch(requests, out), precondition_error);
}

TEST_P(BatchConformanceTest, NonEmptyBlockOnEmptyPoolThrows) {
  auto table = make_table(GetParam(), fast_options());
  const std::vector<request_id> requests{1};
  std::vector<server_id> out(1);
  EXPECT_THROW(table->lookup_batch(requests, out), precondition_error);
}

TEST_P(BatchConformanceTest, BatchMatchesScalarUnderFaultInjection) {
  // The batch path must reproduce the scalar path's answers even when
  // the table's live memory is corrupted — the robustness experiments
  // depend on batch and scalar sweeps measuring the same thing.
  auto table = make_table(GetParam(), fast_options());
  for (server_id s = 1; s <= 16; ++s) {
    table->join(s * 271);
  }
  const auto requests = request_block(800, 0x1dea);
  bit_flip_injector injector(99);
  for (int trial = 0; trial < 3; ++trial) {
    scoped_injection injection(injector, *table, 8);
    std::vector<server_id> batched(requests.size());
    table->lookup_batch(requests, batched);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batched[i], table->lookup(requests[i]))
          << "trial " << trial << " request " << i;
    }
  }
}

TEST(BatchHdTest, SlotCacheAndBatchAgree) {
  // A cold batched table, a scalar-warmed cached table and a plain
  // scalar table must agree on every assignment.
  table_options options = fast_options();
  auto plain = make_table("hd", options);
  options.hd.slot_cache = true;
  auto cached = make_table("hd", options);
  for (server_id s = 1; s <= 12; ++s) {
    plain->join(s * 101);
    cached->join(s * 101);
  }
  const auto requests = request_block(1500, 0xcafe);
  // Warm the cache through the batch path.
  std::vector<server_id> cached_batch(requests.size());
  cached->lookup_batch(requests, cached_batch);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(cached_batch[i], plain->lookup(requests[i]));
    EXPECT_EQ(cached->lookup(requests[i]), plain->lookup(requests[i]));
  }
}

TEST(BatchHdTest, RawArgmaxDecodingAlsoConforms) {
  // lattice_decode off exercises the raw Eq. 2 scoring in the tiled
  // sweep, including floating-point tie behaviour.
  table_options options = fast_options();
  options.hd.lattice_decode = false;
  auto table = make_table("hd", options);
  for (server_id s = 1; s <= 10; ++s) {
    table->join(s * 53);
  }
  const auto requests = request_block(1200, 0xbeef);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST(BatchHdTest, CosineMetricAlsoConforms) {
  table_options options = fast_options();
  options.hd.metric = hdc::metric::cosine;
  options.hd.lattice_decode = false;
  auto table = make_table("hd", options);
  for (server_id s = 1; s <= 10; ++s) {
    table->join(s * 67);
  }
  const auto requests = request_block(800, 0xfeed);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST(BatchHdTest, WeightedPoolConforms) {
  table_options options = fast_options();
  auto table = make_table("hd", options);
  table->join(100, 1.0);
  table->join(200, 2.0);
  table->join(300, 3.0);
  const auto requests = request_block(1000, 0xf00d);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST(BatchHdTest, RepeatedSlotsOutOfSlotOrderAnswerInRequestOrder) {
  // lookup_batch decodes its misses in circle-slot order; the answers
  // must still come back in request order, for repeated slots reached
  // through distinct requests, with cache hits and misses interleaved.
  for (const bool slot_cache : {false, true}) {
    hd_table_config config;
    config.dimension = 2048;
    config.capacity = 256;
    config.slot_cache = slot_cache;
    hd_table table(default_hash(), config);
    for (server_id s = 1; s <= 20; ++s) {
      table.join(s * 131);
    }
    std::map<std::size_t, std::vector<request_id>> by_slot;
    for (const request_id r : request_block(3000, 0x0dd)) {
      by_slot[table.encoder().slot_of(r)].push_back(r);
    }
    // Descending slots, each reached by up to three distinct requests,
    // interleaved so that no slot's requests are adjacent.
    std::vector<std::vector<request_id>> groups;
    for (auto it = by_slot.rbegin(); it != by_slot.rend(); ++it) {
      if (it->second.size() >= 2) {
        groups.push_back(it->second);
      }
    }
    ASSERT_GE(groups.size(), 30u);
    std::vector<request_id> block;
    for (std::size_t round = 0; round < 3; ++round) {
      for (const auto& group : groups) {
        block.push_back(group[round % group.size()]);
      }
    }
    ASSERT_FALSE(std::is_sorted(
        block.begin(), block.end(), [&](request_id a, request_id b) {
          return table.encoder().slot_of(a) < table.encoder().slot_of(b);
        }));
    if (slot_cache) {
      for (std::size_t i = 0; i < groups.size(); i += 2) {
        table.lookup(groups[i].front());  // every other slot is a hit
      }
    }
    std::vector<server_id> batched(block.size());
    table.lookup_batch(block, batched);
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(batched[i], table.lookup(block[i]))
          << "slot_cache=" << slot_cache << " request " << i;
    }
  }
}

/// The pruned batch sweep against the exhaustive lookup() on item
/// memories rewritten to defeat partial-distance pruning (see
/// support/adversarial_rows.hpp), over pools, dimensions and rules.
class BatchHdAdversarialTest
    : public ::testing::TestWithParam<testing::adversarial_case> {};

INSTANTIATE_TEST_SUITE_P(
    PoolsDimensionsRules, BatchHdAdversarialTest,
    ::testing::ValuesIn(testing::adversarial_cases()), [](const auto& info) {
      std::string name = info.param.label();
      for (char& c : name) {
        if (c == ' ' || c == '=') c = '_';
      }
      return name;
    });

TEST_P(BatchHdAdversarialTest, PrunedSweepMatchesExhaustiveLookup) {
  const testing::adversarial_case c = GetParam();
  hd_table table = testing::make_adversarial_table(c);
  const auto requests = request_block(c.pool >= 64 ? 400 : 800, 0xad5e);
  for (std::size_t phase = 0; phase < testing::kAdversarialPhases; ++phase) {
    testing::apply_adversarial_phase(table, phase, requests, 0x5eed);
    std::vector<server_id> batched(requests.size());
    table.lookup_batch(requests, batched);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      mismatches += batched[i] != table.lookup(requests[i]);
    }
    EXPECT_EQ(mismatches, 0u) << c.label() << " phase " << phase;
  }
}

}  // namespace
}  // namespace hdhash
