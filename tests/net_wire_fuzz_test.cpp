/// Differential fuzz test of the request parser: `net::wire_parser`
/// against the tokenizer-based parser it replaced, kept verbatim as the
/// oracle in tests/support/reference_wire_parser.hpp.
///
/// Valid pipelines of all five verbs are mutated with seeded byte
/// flips, splices, truncations and duplications, then fed to both
/// parsers in the same random fragment sizes.  After every next() the
/// two must agree on the result, the command (kind, id, weight), the
/// error message, the fatal latch and the buffered byte count.  The
/// budget is fixed (a few thousand streams), well under 2 s in the
/// ASan/UBSan build this file runs in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.hpp"
#include "support/reference_wire_parser.hpp"

namespace hdhash::net {
namespace {

using rng_t = std::mt19937_64;

std::size_t pick(rng_t& rng, std::size_t bound) {
  return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
}

/// Ids from every class the grammar separates: short, leading zeros,
/// 19/20/21 digits, the uint64 limit and one past it.
std::string random_id(rng_t& rng) {
  static const char* const kEdges[] = {
      "0",
      "007",
      "18446744073709551615",
      "18446744073709551616",
      "99999999999999999999",
      "1234567890123456789",
      "00000000000000000042",
      "000000000000000000001",
      "100000000000000000000",
  };
  if (pick(rng, 3) == 0) {
    return kEdges[pick(rng, std::size(kEdges))];
  }
  return std::to_string(rng() >> pick(rng, 64));
}

std::string random_weight(rng_t& rng) {
  static const char* const kWeights[] = {
      "1", "2.5", "0.25", "1e3", "0", "-1", "+1", "0.0", "inf", "nan",
      "1.5x", ".5", "5.", "1e400", "1e-400", "",
  };
  return kWeights[pick(rng, std::size(kWeights))];
}

std::string valid_pipeline(rng_t& rng) {
  std::string stream;
  const std::size_t commands = 1 + pick(rng, 40);
  for (std::size_t c = 0; c < commands; ++c) {
    switch (pick(rng, 8)) {
      case 0:
        stream += "PING";
        break;
      case 1:
        stream += "STATS";
        break;
      case 2:
        stream += "JOIN " + random_id(rng);
        if (pick(rng, 2) == 0) {
          stream += " " + random_weight(rng);
        }
        break;
      case 3:
        stream += "LEAVE " + random_id(rng);
        break;
      default:
        stream += "ROUTE " + random_id(rng);
        break;
    }
    stream += pick(rng, 4) == 0 ? "\n" : "\r\n";
  }
  return stream;
}

/// Bytes a flip draws from: separators, terminators, control bytes,
/// digit and sign characters, verb letters, high bytes.
char random_byte(rng_t& rng) {
  static constexpr char kAlphabet[] =
      " \r\n\t\0-+.e0123456789PINGROUTEJOINLEAVESTATSpx\x7f\xff";
  if (pick(rng, 8) == 0) {
    return static_cast<char>(rng());
  }
  return kAlphabet[pick(rng, sizeof kAlphabet - 1)];
}

std::string mutate(std::string stream, rng_t& rng) {
  const std::size_t mutations = pick(rng, 5);
  for (std::size_t m = 0; m < mutations && !stream.empty(); ++m) {
    const std::size_t at = pick(rng, stream.size());
    switch (pick(rng, 5)) {
      case 0:  // flip: replace a byte
        stream[at] = random_byte(rng);
        break;
      case 1:  // flip: toggle one bit
        stream[at] = static_cast<char>(stream[at] ^ (1 << pick(rng, 8)));
        break;
      case 2: {  // splice: insert part of another pipeline
        const std::string other = valid_pipeline(rng);
        const std::size_t from = pick(rng, other.size());
        stream.insert(at, other, from, 1 + pick(rng, other.size() - from));
        break;
      }
      case 3:  // truncate
        stream.resize(at);
        break;
      default: {  // duplicate a range in place
        const std::size_t length = 1 + pick(rng, stream.size() - at);
        stream.insert(at + length, stream.substr(at, length));
        break;
      }
    }
  }
  return stream;
}

std::string escaped(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", byte);
      out += hex;
    }
  }
  return out;
}

/// Feeds `stream` to both parsers in random fragments, pulling after
/// every fragment; fails on the first disagreement.
::testing::AssertionResult agree(std::string_view stream,
                                 std::size_t max_line_bytes, rng_t& rng) {
  wire_parser parser(max_line_bytes);
  hdhash::testing::reference_wire_parser oracle(max_line_bytes);
  std::size_t fed = 0;
  std::size_t pulls = 0;
  while (fed < stream.size()) {
    const std::size_t fragment =
        pick(rng, 4) == 0 ? 1 + pick(rng, 256) : 1 + pick(rng, 16);
    const std::string_view bytes = stream.substr(fed, fragment);
    fed += bytes.size();
    parser.feed(bytes);
    oracle.feed(bytes);
    for (;;) {
      wire_command got;
      wire_command want;
      const parse_result r = parser.next(got);
      const parse_result w = oracle.next(want);
      ++pulls;
      const bool same =
          r == w && parser.error_message() == oracle.error_message() &&
          parser.failed() == oracle.failed() &&
          parser.buffered() == oracle.buffered() &&
          (r != parse_result::command ||
           (got.kind == want.kind && got.id == want.id &&
            got.weight == want.weight));
      if (!same) {
        return ::testing::AssertionFailure()
               << "pull " << pulls << " after " << fed << " bytes of \""
               << escaped(stream) << "\" (max line " << max_line_bytes
               << "): result " << static_cast<int>(r) << " vs "
               << static_cast<int>(w) << ", error \""
               << parser.error_message() << "\" vs \""
               << oracle.error_message() << "\", failed "
               << parser.failed() << " vs " << oracle.failed()
               << ", buffered " << parser.buffered() << " vs "
               << oracle.buffered() << ", id " << got.id << " vs "
               << want.id << ", weight " << got.weight << " vs "
               << want.weight;
      }
      if (r == parse_result::need_more ||
          (r == parse_result::error && parser.failed())) {
        break;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(WireFuzz, OnePassParserAgreesWithReferenceOnMutatedPipelines) {
  constexpr std::size_t kStreams = 3000;
  for (std::size_t i = 0; i < kStreams; ++i) {
    rng_t rng(0x9e3779b97f4a7c15ull * (i + 1));
    const std::string stream = mutate(valid_pipeline(rng), rng);
    // Small line caps make the fatal framing path common.
    const std::size_t max_line =
        pick(rng, 3) == 0 ? 4 + pick(rng, 40) : kMaxLineBytes;
    ASSERT_TRUE(agree(stream, max_line, rng)) << "stream " << i;
  }
}

TEST(WireFuzz, ArbitraryBytesAgreeWithReference) {
  // No grammar at all: uniform bytes from the mutation alphabet.
  for (std::size_t i = 0; i < 1000; ++i) {
    rng_t rng(0xd1b54a32d192ed03ull * (i + 1));
    std::string stream(1 + pick(rng, 200), '\0');
    for (char& c : stream) {
      c = random_byte(rng);
    }
    ASSERT_TRUE(agree(stream, 8 + pick(rng, 64), rng)) << "stream " << i;
  }
}

}  // namespace
}  // namespace hdhash::net
