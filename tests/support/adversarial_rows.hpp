/// \file adversarial_rows.hpp
/// \brief Test support: hd_table item memories rewritten into the shapes
/// that stress an early-exit associative query.
///
/// lookup_batch prunes rows by partial Hamming distance, which must stay
/// exact for any row contents.  These helpers build tables over a grid
/// of pool sizes and dimensions (rows shorter than the sweep's 16-word
/// screen, and rows that are not a multiple of it) and then overwrite
/// the stored rows through the fault surface, cumulatively:
///
///   1. about 30% of the bits flipped on every third row;
///   2. one row replaced by a request's exact circle vector
///      (distance 0, lattice level 0);
///   3. rows duplicated into their neighbours, so ties must resolve to
///      the smaller key;
///   4. one all-zero and one all-one row;
///   5. two copies of one request's circle vector: the smaller-key one
///      differs only past the screened prefix, one lattice cell farther
///      than the other, which differs only inside it.  The screen seeds
///      the far row; the near row's screened bound sits one bit below
///      the seed's band and must still be extended.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/hd_table.hpp"
#include "hashing/registry.hpp"
#include "hashing/splitmix_hash.hpp"
#include "util/rng.hpp"

namespace hdhash::testing {

/// Decoding rules the batch sweep must reproduce.
enum class decode_rule { lattice, raw_argmax, cosine };

struct adversarial_case {
  std::size_t pool;
  std::size_t dimension;
  decode_rule rule;

  std::string label() const {
    static constexpr std::array<const char*, 3> kRules = {"lattice", "raw",
                                                          "cosine"};
    return "pool=" + std::to_string(pool) + " d=" + std::to_string(dimension) +
           " " + kRules[static_cast<std::size_t>(rule)];
  }
};

/// Circle size for a case: n > k, small for small pools so short rows
/// still get a non-degenerate lattice step, and even with n <= d (a
/// circle needs at least one fresh bit per slot).
inline std::size_t adversarial_capacity(std::size_t pool, std::size_t dim) {
  return std::min(dim & ~std::size_t{1}, std::max<std::size_t>(64, 2 * pool));
}

/// Pools {1, 2, 7, 64, 512} × d ∈ {100, 1000, 1023, 10000} × every rule,
/// except where no circle fits (512 servers need d > 512).
inline std::vector<adversarial_case> adversarial_cases() {
  std::vector<adversarial_case> cases;
  for (const std::size_t pool : {1, 2, 7, 64, 512}) {
    for (const std::size_t dim : {100, 1000, 1023, 10000}) {
      if (adversarial_capacity(pool, dim) <= pool) {
        continue;
      }
      for (const decode_rule rule : {decode_rule::lattice,
                                     decode_rule::raw_argmax,
                                     decode_rule::cosine}) {
        cases.push_back({pool, dim, rule});
      }
    }
  }
  return cases;
}

/// Server ids out of key order, so storage order and the smaller-key tie
/// rule disagree.
inline server_id adversarial_server(std::size_t index) {
  return splitmix_hash::mix(index + 1) >> 8;
}

inline hd_table make_adversarial_table(const adversarial_case& c) {
  hd_table_config config;
  config.dimension = c.dimension;
  config.capacity = adversarial_capacity(c.pool, c.dimension);
  config.lattice_decode = c.rule == decode_rule::lattice;
  config.metric = c.rule == decode_rule::cosine ? hdc::metric::cosine
                                                : hdc::metric::inverse_hamming;
  hd_table table(default_hash(), config);
  for (std::size_t s = 0; s < c.pool; ++s) {
    table.join(adversarial_server(s));
  }
  return table;
}

inline constexpr std::size_t kAdversarialPhases = 5;

/// Writable word view of every stored row, in storage order.
inline std::vector<std::span<std::uint64_t>> row_words(hd_table& table) {
  std::vector<std::span<std::uint64_t>> rows;
  for (const memory_region& region : table.fault_regions()) {
    rows.emplace_back(reinterpret_cast<std::uint64_t*>(region.bytes.data()),
                      region.bytes.size() / sizeof(std::uint64_t));
  }
  return rows;
}

/// Sets bits [0, dim) of `row` to `bit` and clears the tail padding.
inline void fill_row(std::span<std::uint64_t> row, std::size_t dim, bool bit) {
  for (std::size_t w = 0; w < row.size(); ++w) {
    const std::size_t bits = std::min<std::size_t>(64, dim - 64 * w);
    const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    row[w] = bit ? mask : 0;
  }
}

/// Overwrites `row` with `probe` with `flips` bits flipped, taken from
/// the end of the row (`from_end`) or from its start.
inline void copy_with_flips(std::span<std::uint64_t> row,
                            const hdc::hypervector& probe, std::size_t flips,
                            bool from_end) {
  std::memcpy(row.data(), probe.words().data(),
              row.size() * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t bit = from_end ? probe.dim() - 1 - i : i;
    row[bit / 64] ^= 1ULL << (bit % 64);
  }
}

/// Applies adversarial phase `phase` (0-based, see the file comment) on
/// top of the earlier ones.  Phase 1 copies the circle vector of
/// probes[0] into a row, phase 4 that of probes[1].
inline void apply_adversarial_phase(hd_table& table, std::size_t phase,
                                    std::span<const request_id> probes,
                                    std::uint64_t seed) {
  const std::size_t dim = table.config().dimension;
  const auto rows = row_words(table);
  const auto circle_vector = [&table](request_id request)
      -> const hdc::hypervector& {
    return table.encoder().at(table.encoder().slot_of(request));
  };
  xoshiro256 rng(seed + phase);
  switch (phase) {
    case 0:
      for (std::size_t r = 0; r < rows.size(); r += 3) {
        for (std::size_t bit = 0; bit < dim; ++bit) {
          if (rng() % 10 < 3) {
            rows[r][bit / 64] ^= 1ULL << (bit % 64);
          }
        }
      }
      break;
    case 1:
      copy_with_flips(rows[rows.size() / 2], circle_vector(probes[0]), 0,
                      false);
      break;
    case 2:
      for (std::size_t r = 0; r + 1 < rows.size(); r += 4) {
        std::memcpy(rows[r + 1].data(), rows[r].data(),
                    rows[r].size() * sizeof(std::uint64_t));
      }
      break;
    case 3:
      fill_row(rows.front(), dim, false);
      fill_row(rows.back(), dim, true);
      break;
    case 4: {
      if (rows.size() < 2) {
        break;
      }
      // Distances lo - 1 and lo, where lo is where lattice level 2 (or,
      // without lattice decoding, distance 2) begins.
      const std::uint64_t step_bits = table.encoder().step_bits();
      const std::uint64_t step =
          table.config().lattice_decode && step_bits > 0 ? step_bits : 1;
      const std::size_t far = (3 * step + 1) / 2;
      // Rows 0 and 1 hold the first two servers joined.
      const bool first_smaller = adversarial_server(0) < adversarial_server(1);
      copy_with_flips(rows[first_smaller ? 0 : 1], circle_vector(probes[1]),
                      far, true);
      copy_with_flips(rows[first_smaller ? 1 : 0], circle_vector(probes[1]),
                      far - 1, false);
      break;
    }
    default:
      break;
  }
}

}  // namespace hdhash::testing
