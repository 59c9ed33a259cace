/// \file kernel_avx512.cpp
/// \brief AVX-512 VPOPCNTDQ kernel.
///
/// Compiled with -mavx512f -mavx512vpopcntdq (see CMakeLists.txt); none
/// of this TU's code may run before supported() passes.  VPOPCNTDQ
/// counts eight 64-bit words per instruction, so the whole XOR+popcount
/// reduction is three instructions per 512-bit block.  The tail that
/// does not fill a block is read with a masked load (`maskz_loadu`), so
/// the kernel never touches memory past `words` — the masked-tail
/// discipline the conformance suite checks under ASan with
/// partial-word dimensions.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.hpp"

namespace hdhash::simd::detail {
namespace {

bool supported_avx512() noexcept {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
}

inline __m512i xor_block(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t w) noexcept {
  return _mm512_xor_si512(_mm512_loadu_si512(a + w),
                          _mm512_loadu_si512(b + w));
}

inline __m512i xor_block_masked(__mmask8 m, const std::uint64_t* a,
                                const std::uint64_t* b,
                                std::size_t w) noexcept {
  return _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, a + w),
                          _mm512_maskz_loadu_epi64(m, b + w));
}

std::uint64_t distance_avx512(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(xor_block(a, b, w)));
  }
  if (w < words) {
    const auto m = static_cast<__mmask8>((1u << (words - w)) - 1u);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(xor_block_masked(m, a, b, w)));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
}

/// Full kMaxTile tile with one accumulator register per probe: each
/// 512-bit row block is loaded once and scored against all eight
/// probes — the adder-tree sweep shape, with the row load amortised in
/// registers rather than through L1.
void tile_full(const std::uint64_t* row, const std::uint64_t* const* probes,
               std::size_t words, std::uint64_t* dist) noexcept {
  static_assert(kMaxTile == 8, "accumulator set sized for 8-probe tiles");
  __m512i a0 = _mm512_setzero_si512(), a1 = _mm512_setzero_si512();
  __m512i a2 = _mm512_setzero_si512(), a3 = _mm512_setzero_si512();
  __m512i a4 = _mm512_setzero_si512(), a5 = _mm512_setzero_si512();
  __m512i a6 = _mm512_setzero_si512(), a7 = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i rv = _mm512_loadu_si512(row + w);
    const auto score = [&](const std::uint64_t* p) noexcept {
      return _mm512_popcnt_epi64(
          _mm512_xor_si512(rv, _mm512_loadu_si512(p + w)));
    };
    a0 = _mm512_add_epi64(a0, score(probes[0]));
    a1 = _mm512_add_epi64(a1, score(probes[1]));
    a2 = _mm512_add_epi64(a2, score(probes[2]));
    a3 = _mm512_add_epi64(a3, score(probes[3]));
    a4 = _mm512_add_epi64(a4, score(probes[4]));
    a5 = _mm512_add_epi64(a5, score(probes[5]));
    a6 = _mm512_add_epi64(a6, score(probes[6]));
    a7 = _mm512_add_epi64(a7, score(probes[7]));
  }
  if (w < words) {
    const auto m = static_cast<__mmask8>((1u << (words - w)) - 1u);
    const __m512i rv = _mm512_maskz_loadu_epi64(m, row + w);
    const auto score = [&](const std::uint64_t* p) noexcept {
      return _mm512_popcnt_epi64(
          _mm512_xor_si512(rv, _mm512_maskz_loadu_epi64(m, p + w)));
    };
    a0 = _mm512_add_epi64(a0, score(probes[0]));
    a1 = _mm512_add_epi64(a1, score(probes[1]));
    a2 = _mm512_add_epi64(a2, score(probes[2]));
    a3 = _mm512_add_epi64(a3, score(probes[3]));
    a4 = _mm512_add_epi64(a4, score(probes[4]));
    a5 = _mm512_add_epi64(a5, score(probes[5]));
    a6 = _mm512_add_epi64(a6, score(probes[6]));
    a7 = _mm512_add_epi64(a7, score(probes[7]));
  }
  // Eight horizontal sums as one transpose-and-add tree: pair sums of
  // adjacent accumulators within 128-bit lanes, then two rounds of
  // 128-bit lane shuffles, leaving dist[t] in lane t.  On short rows
  // (the batch sweep's 16-word screen) eight separate reductions would
  // cost as much as the popcounts.
  const auto pairs = [](__m512i x, __m512i y) noexcept {
    return _mm512_add_epi64(_mm512_unpacklo_epi64(x, y),
                            _mm512_unpackhi_epi64(x, y));
  };
  const auto lanes = [](__m512i x, __m512i y) noexcept {
    return _mm512_add_epi64(_mm512_shuffle_i64x2(x, y, 0x88),
                            _mm512_shuffle_i64x2(x, y, 0xDD));
  };
  _mm512_storeu_si512(dist, lanes(lanes(pairs(a0, a1), pairs(a2, a3)),
                                  lanes(pairs(a4, a5), pairs(a6, a7))));
}

void tile_distance_avx512(const std::uint64_t* row,
                          const std::uint64_t* const* probes, std::size_t tile,
                          std::size_t words, std::uint64_t* dist) noexcept {
  if (tile == kMaxTile) {
    tile_full(row, probes, words, dist);
    return;
  }
  for (std::size_t t = 0; t < tile; ++t) {
    dist[t] = distance_avx512(row, probes[t], words);
  }
}

}  // namespace

const hamming_kernel avx512_kernel = {
    "avx512", 3, supported_avx512, distance_avx512, tile_distance_avx512};

}  // namespace hdhash::simd::detail
