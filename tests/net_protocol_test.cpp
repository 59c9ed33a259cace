/// Wire-protocol parser coverage: malformed frames, truncated/partial
/// reads, oversized payloads, pipelined mixed command streams — every
/// case either rejected with a recoverable error, latched fatal, or
/// resumed cleanly, never undefined behaviour (this file runs in the
/// ASan/UBSan CI lanes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

namespace hdhash::net {
namespace {

/// Feeds the whole stream at once and pulls every result.
std::vector<parse_result> pull_all(wire_parser& parser,
                                   std::vector<wire_command>& commands) {
  std::vector<parse_result> results;
  wire_command cmd;
  for (;;) {
    const parse_result r = parser.next(cmd);
    if (r == parse_result::need_more) {
      break;
    }
    results.push_back(r);
    if (r == parse_result::command) {
      commands.push_back(cmd);
    }
    if (parser.failed()) {
      break;
    }
  }
  return results;
}

TEST(WireParser, ParsesEveryCommandForm) {
  wire_parser parser;
  parser.feed("PING\r\nROUTE 42\r\nJOIN 7\r\nJOIN 8 2.5\r\n"
              "LEAVE 7\r\nSTATS\r\n");
  std::vector<wire_command> commands;
  const auto results = pull_all(parser, commands);
  ASSERT_EQ(results.size(), 6u);
  for (const parse_result r : results) {
    EXPECT_EQ(r, parse_result::command);
  }
  ASSERT_EQ(commands.size(), 6u);
  EXPECT_EQ(commands[0].kind, command_kind::ping);
  EXPECT_EQ(commands[1].kind, command_kind::route);
  EXPECT_EQ(commands[1].id, 42u);
  EXPECT_EQ(commands[2].kind, command_kind::join);
  EXPECT_EQ(commands[2].id, 7u);
  EXPECT_DOUBLE_EQ(commands[2].weight, 1.0);
  EXPECT_EQ(commands[3].kind, command_kind::join);
  EXPECT_DOUBLE_EQ(commands[3].weight, 2.5);
  EXPECT_EQ(commands[4].kind, command_kind::leave);
  EXPECT_EQ(commands[5].kind, command_kind::stats);
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_FALSE(parser.failed());
}

TEST(WireParser, AcceptsBareLfTermination) {
  wire_parser parser;
  parser.feed("PING\nROUTE 1\n");
  std::vector<wire_command> commands;
  pull_all(parser, commands);
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_EQ(commands[1].id, 1u);
}

TEST(WireParser, ResumesAcrossArbitraryTruncation) {
  // The same stream fed one byte at a time must produce the same
  // commands — mid-token, mid-CRLF, mid-everything.
  const std::string stream = "ROUTE 123456789\r\nJOIN 5 0.25\r\nPING\r\n";
  wire_parser parser;
  std::vector<wire_command> commands;
  wire_command cmd;
  for (const char byte : stream) {
    parser.feed(std::string_view(&byte, 1));
    while (parser.next(cmd) == parse_result::command) {
      commands.push_back(cmd);
    }
  }
  ASSERT_EQ(commands.size(), 3u);
  EXPECT_EQ(commands[0].id, 123456789u);
  EXPECT_EQ(commands[1].kind, command_kind::join);
  EXPECT_DOUBLE_EQ(commands[1].weight, 0.25);
  EXPECT_EQ(commands[2].kind, command_kind::ping);
  EXPECT_FALSE(parser.failed());
}

TEST(WireParser, MalformedCommandsAreRecoverable) {
  // Each bad line answers `error` once, is consumed, and parsing
  // continues with the next line.
  const std::vector<std::string> bad = {
      "NOSUCH\r\n",          // unknown verb
      "ROUTE\r\n",           // missing id
      "ROUTE x\r\n",         // non-decimal id
      "ROUTE -1\r\n",        // signed id
      "ROUTE 1 2\r\n",       // extra argument
      "ROUTE  1\r\n",        // doubled separator (empty token)
      "JOIN 1 0\r\n",        // non-positive weight
      "JOIN 1 -2\r\n",       // negative weight
      "JOIN 1 2 3\r\n",      // arity overflow
      "PING extra\r\n",      // PING takes no arguments
      "LEAVE\r\n",           // missing id
      "\r\n",                // empty command
      " PING\r\n",           // leading separator
      "ROUTE 99999999999999999999999\r\n",  // uint64 overflow
  };
  for (const std::string& line : bad) {
    wire_parser parser;
    parser.feed(line + "PING\r\n");
    wire_command cmd;
    EXPECT_EQ(parser.next(cmd), parse_result::error) << line;
    EXPECT_FALSE(parser.error_message().empty()) << line;
    EXPECT_FALSE(parser.failed()) << line;
    // The stream resumes right after the bad line.
    EXPECT_EQ(parser.next(cmd), parse_result::command) << line;
    EXPECT_EQ(cmd.kind, command_kind::ping) << line;
  }
}

TEST(WireParser, EmbeddedControlBytesAreRejected) {
  wire_parser parser;
  parser.feed(std::string_view("ROUTE 1\0\r\nPING\r\n", 16));
  wire_command cmd;
  EXPECT_EQ(parser.next(cmd), parse_result::error);
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(parser.next(cmd), parse_result::command);
  EXPECT_EQ(cmd.kind, command_kind::ping);
}

TEST(WireParser, OversizedLineIsFatal) {
  wire_parser parser;
  const std::string flood(kMaxLineBytes, 'A');  // no terminator at all
  parser.feed(flood);
  wire_command cmd;
  EXPECT_EQ(parser.next(cmd), parse_result::error);
  EXPECT_TRUE(parser.failed());
  // Latched: more input is sunk, next() keeps answering error.
  parser.feed("PING\r\n");
  EXPECT_EQ(parser.next(cmd), parse_result::error);
  EXPECT_TRUE(parser.failed());
}

TEST(WireParser, OversizedTerminatedLineIsAlsoFatal) {
  // A terminator past the cap must not rescue the flood.
  wire_parser parser;
  std::string flood(kMaxLineBytes + 7, 'B');
  flood += "\r\n";
  parser.feed(flood);
  wire_command cmd;
  EXPECT_EQ(parser.next(cmd), parse_result::error);
  EXPECT_TRUE(parser.failed());
}

TEST(WireParser, LongestLegitimateLineFits) {
  // 20-digit ids and a weight: well inside kMaxLineBytes.
  wire_parser parser;
  parser.feed("JOIN 18446744073709551615 1.25\r\n");
  wire_command cmd;
  ASSERT_EQ(parser.next(cmd), parse_result::command);
  EXPECT_EQ(cmd.id, 18446744073709551615ull);
}

TEST(WireParser, PipelinedMixedStreamWithErrorsInTheMiddle) {
  wire_parser parser;
  parser.feed("JOIN 1\r\nROUTE 10\r\nBOGUS\r\nROUTE 11\r\n"
              "LEAVE 1\r\nSTATS\r\n");
  std::vector<wire_command> commands;
  const auto results = pull_all(parser, commands);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[2], parse_result::error);
  ASSERT_EQ(commands.size(), 5u);
  EXPECT_EQ(commands[0].kind, command_kind::join);
  EXPECT_EQ(commands[1].id, 10u);
  EXPECT_EQ(commands[2].id, 11u);
  EXPECT_EQ(commands[3].kind, command_kind::leave);
  EXPECT_EQ(commands[4].kind, command_kind::stats);
  EXPECT_FALSE(parser.failed());
}

TEST(WireParser, BufferCompactionPreservesTheStream) {
  // Enough traffic to force several internal compactions.
  wire_parser parser;
  wire_command cmd;
  std::size_t parsed = 0;
  for (int i = 0; i < 10'000; ++i) {
    parser.feed("ROUTE " + std::to_string(i) + "\r\n");
    while (parser.next(cmd) == parse_result::command) {
      EXPECT_EQ(cmd.id, parsed);
      ++parsed;
    }
  }
  EXPECT_EQ(parsed, 10'000u);
  EXPECT_EQ(parser.buffered(), 0u);
}

/// Parses one complete line on a fresh parser; returns the result and
/// leaves the command or error in `cmd` / `message`.
parse_result parse_line(std::string_view line, wire_command& cmd,
                        std::string& message) {
  wire_parser parser;
  parser.feed(line);
  const parse_result result = parser.next(cmd);
  message = parser.error_message();
  EXPECT_FALSE(parser.failed()) << line;
  EXPECT_EQ(parser.buffered(), 0u) << line;
  return result;
}

TEST(WireParserEdges, LongIdsParseUpToTheUint64Limit) {
  wire_command cmd;
  std::string message;
  ASSERT_EQ(parse_line("ROUTE 1234567890123456789\r\n", cmd, message),
            parse_result::command);  // 19 digits
  EXPECT_EQ(cmd.id, 1234567890123456789ull);
  ASSERT_EQ(parse_line("ROUTE 18446744073709551615\r\n", cmd, message),
            parse_result::command);  // 20 digits, 2^64 - 1
  EXPECT_EQ(cmd.id, 18446744073709551615ull);
  ASSERT_EQ(parse_line("ROUTE 10000000000000000000\r\n", cmd, message),
            parse_result::command);  // 20 digits, 10^19
  EXPECT_EQ(cmd.id, 10000000000000000000ull);
  for (const std::string_view line :
       {"ROUTE 18446744073709551616\r\n",     // 2^64
        "ROUTE 99999999999999999999\r\n",     // 20 digits, overflows
        "ROUTE 100000000000000000000\r\n",    // 21 digits
        "ROUTE 000000000000000000001\r\n"}) { // 21 digits, value 1
    EXPECT_EQ(parse_line(line, cmd, message), parse_result::error) << line;
    EXPECT_EQ(message, "ROUTE needs one decimal id") << line;
  }
}

TEST(WireParserEdges, LeadingZerosAreDecimal) {
  wire_command cmd;
  std::string message;
  ASSERT_EQ(parse_line("ROUTE 007\r\n", cmd, message), parse_result::command);
  EXPECT_EQ(cmd.kind, command_kind::route);
  EXPECT_EQ(cmd.id, 7u);
  ASSERT_EQ(parse_line("ROUTE 0\r\n", cmd, message), parse_result::command);
  EXPECT_EQ(cmd.id, 0u);
  ASSERT_EQ(parse_line("ROUTE 00000000000000000042\r\n", cmd, message),
            parse_result::command);  // 20 digits
  EXPECT_EQ(cmd.id, 42u);
  ASSERT_EQ(parse_line("LEAVE 0009\r\n", cmd, message),
            parse_result::command);
  EXPECT_EQ(cmd.kind, command_kind::leave);
  EXPECT_EQ(cmd.id, 9u);
}

TEST(WireParserEdges, ControlBytesAndTabs) {
  wire_command cmd;
  std::string message;
  // Only the last CR before LF is a terminator; an earlier one is data.
  EXPECT_EQ(parse_line("ROUTE 12\r\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "control byte inside command");
  EXPECT_EQ(parse_line(std::string_view("ROUTE 1\0002\r\n", 11), cmd,
                       message),
            parse_result::error);
  EXPECT_EQ(message, "control byte inside command");
  // A NUL wins over every later check: separators, verb, arity.
  EXPECT_EQ(parse_line(std::string_view("NOPE  1 2 3\0\r\n", 14), cmd,
                       message),
            parse_result::error);
  EXPECT_EQ(message, "control byte inside command");
  EXPECT_EQ(parse_line("PI\rNG\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "control byte inside command");
  // A tab is not a control byte here: it is just not a digit.
  EXPECT_EQ(parse_line("ROUTE 1\t2\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "ROUTE needs one decimal id");
  EXPECT_EQ(parse_line("ROUTE\t1\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "unknown command");
}

TEST(WireParserEdges, VerbsAreCaseSensitive) {
  wire_command cmd;
  std::string message;
  for (const std::string_view line :
       {"route 1\r\n", "Ping\r\n", "join 1\r\n", "ROUTEX 1\r\n", "PIN\r\n",
        "STATSS\r\n", "LEAV 1\r\n", "JOINS 1\r\n"}) {
    EXPECT_EQ(parse_line(line, cmd, message), parse_result::error) << line;
    EXPECT_EQ(message, "unknown command") << line;
  }
}

TEST(WireParserEdges, SeparatorsAndArity) {
  wire_command cmd;
  std::string message;
  for (const std::string_view line :
       {"ROUTE  1\r\n", "ROUTE 1 \r\n", "PING \r\n", " ROUTE 1\r\n",
        "JOIN 1  2\r\n", "JOIN 1 2 3\r\n", "BOGUS a b c\r\n", " \r\n",
        "  \n"}) {
    EXPECT_EQ(parse_line(line, cmd, message), parse_result::error) << line;
    EXPECT_EQ(message, "malformed token separators") << line;
  }
  EXPECT_EQ(parse_line("ROUTE\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "ROUTE needs one decimal id");
  EXPECT_EQ(parse_line("ROUTE 1 2\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "ROUTE needs one decimal id");
  EXPECT_EQ(parse_line("LEAVE 1 2\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "LEAVE needs one decimal id");
  EXPECT_EQ(parse_line("JOIN\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "JOIN needs a decimal id and optional weight > 0");
  EXPECT_EQ(parse_line("PING x\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "PING takes no arguments");
  EXPECT_EQ(parse_line("STATS x y\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "STATS takes no arguments");
  EXPECT_EQ(parse_line("\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "empty command");
  EXPECT_EQ(parse_line("ROUTE +1\r\n", cmd, message), parse_result::error);
  EXPECT_EQ(message, "ROUTE needs one decimal id");
}

TEST(WireParserEdges, JoinWeights) {
  wire_command cmd;
  std::string message;
  ASSERT_EQ(parse_line("JOIN 3 1.5\r\n", cmd, message),
            parse_result::command);
  EXPECT_EQ(cmd.kind, command_kind::join);
  EXPECT_EQ(cmd.id, 3u);
  EXPECT_DOUBLE_EQ(cmd.weight, 1.5);
  ASSERT_EQ(parse_line("JOIN 3 1e2\r\n", cmd, message),
            parse_result::command);
  EXPECT_DOUBLE_EQ(cmd.weight, 100.0);
  for (const std::string_view line :
       {"JOIN 3 -1\r\n", "JOIN 3 +1\r\n", "JOIN 3 0\r\n", "JOIN 3 0.0\r\n",
        "JOIN 3 1.5x\r\n", "JOIN 3 nan\r\n", "JOIN x 1\r\n"}) {
    EXPECT_EQ(parse_line(line, cmd, message), parse_result::error) << line;
    EXPECT_EQ(message, "JOIN needs a decimal id and optional weight > 0")
        << line;
  }
}

/// One pull's observable outcome, for comparing whole parses.
struct pulled {
  parse_result result;
  command_kind kind;
  std::uint64_t id;
  double weight;
  std::string error;
  bool operator==(const pulled&) const = default;
};

TEST(WireParserEdges, MixedPipelineSplitAtEveryOffset) {
  const std::string stream =
      "PING\r\nROUTE 18446744073709551615\r\nJOIN 7 2.5\r\nroute 1\r\n"
      "ROUTE 12\r\r\nLEAVE 7\nROUTE  3\r\nSTATS\r\nJOIN 8 -1\r\n"
      "ROUTE 007\r\n\r\nROUTE 18446744073709551616\r\nPING\n";
  const auto pull = [](wire_parser& parser, std::vector<pulled>& out) {
    wire_command cmd;
    for (;;) {
      const parse_result r = parser.next(cmd);
      if (r == parse_result::need_more) {
        return;
      }
      out.push_back(r == parse_result::command
                        ? pulled{r, cmd.kind, cmd.id, cmd.weight, {}}
                        : pulled{r, {}, 0, 0.0, parser.error_message()});
    }
  };
  wire_parser whole;
  whole.feed(stream);
  std::vector<pulled> expected;
  pull(whole, expected);
  ASSERT_EQ(expected.size(), 13u);
  EXPECT_EQ(std::count_if(expected.begin(), expected.end(),
                          [](const pulled& p) {
                            return p.result == parse_result::error;
                          }),
            6);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    wire_parser parser;
    std::vector<pulled> got;
    parser.feed(std::string_view(stream).substr(0, split));
    pull(parser, got);
    parser.feed(std::string_view(stream).substr(split));
    pull(parser, got);
    EXPECT_EQ(got, expected) << "split at " << split;
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_FALSE(parser.failed());
  }
}

// --- reply encoding ----------------------------------------------------

TEST(ReplyEncoding, RouteRepliesAreByteExactAndRoundTrip) {
  const std::vector<std::pair<std::uint64_t, std::string>> cases = {
      {0, ":0\r\n"},
      {9, ":9\r\n"},
      {10, ":10\r\n"},
      {4294967296ull, ":4294967296\r\n"},
      {18446744073709551615ull, ":18446744073709551615\r\n"},
  };
  for (const auto& [server, bytes] : cases) {
    std::string out = "+OK\r\n";  // appends, never overwrites
    encode_route_reply(out, server);
    EXPECT_EQ(out, "+OK\r\n" + bytes) << server;
    reply_parser parser;
    parser.feed(bytes);
    wire_reply reply;
    ASSERT_EQ(parser.next(reply), parse_result::command) << server;
    EXPECT_EQ(reply.type, wire_reply::kind::integer);
    EXPECT_EQ(reply.value, server);
    EXPECT_EQ(parser.next(reply), parse_result::need_more);
  }
}

TEST(ReplyEncoding, TicketOfAnswersMatchesOneByOneEncoding) {
  // A 128-answer ticket, every digit count from 1 to 20 represented.
  std::vector<std::uint64_t> answers;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    answers.push_back(value);
    value = value * 7 + 3 + i;  // wraps around: large and small values
  }
  answers[5] = 18446744073709551615ull;
  answers[6] = 10000000000000000000ull;
  std::string expected = "$3\r\nabc\r\n";
  std::string flushed = expected;
  for (const std::uint64_t server : answers) {
    encode_route_reply(expected, server);
  }
  encode_route_replies(flushed, answers);
  EXPECT_EQ(flushed, expected);
  std::string empty;
  encode_route_replies(empty, {});
  EXPECT_TRUE(empty.empty());
}

// --- reply side --------------------------------------------------------

TEST(ReplyParser, ParsesEveryReplyKind) {
  std::string stream;
  encode_ok(stream);
  encode_pong(stream);
  encode_route_reply(stream, 77);
  encode_error(stream, "nope");
  encode_bulk(stream, "key=value");
  reply_parser parser;
  parser.feed(stream);
  wire_reply reply;
  ASSERT_EQ(parser.next(reply), parse_result::command);
  EXPECT_EQ(reply.type, wire_reply::kind::status);
  EXPECT_EQ(reply.text, "OK");
  ASSERT_EQ(parser.next(reply), parse_result::command);
  EXPECT_EQ(reply.text, "PONG");
  ASSERT_EQ(parser.next(reply), parse_result::command);
  EXPECT_EQ(reply.type, wire_reply::kind::integer);
  EXPECT_EQ(reply.value, 77u);
  ASSERT_EQ(parser.next(reply), parse_result::command);
  EXPECT_EQ(reply.type, wire_reply::kind::error);
  EXPECT_EQ(reply.text, "ERR nope");
  ASSERT_EQ(parser.next(reply), parse_result::command);
  EXPECT_EQ(reply.type, wire_reply::kind::bulk);
  EXPECT_EQ(reply.text, "key=value");
  EXPECT_EQ(parser.next(reply), parse_result::need_more);
}

TEST(ReplyParser, ResumesSplitBulkFrames) {
  std::string stream;
  encode_bulk(stream, "0123456789");
  reply_parser parser;
  wire_reply reply;
  // Feed in three fragments that split the header and the payload.
  parser.feed(stream.substr(0, 2));
  EXPECT_EQ(parser.next(reply), parse_result::need_more);
  parser.feed(stream.substr(2, 7));
  EXPECT_EQ(parser.next(reply), parse_result::need_more);
  parser.feed(stream.substr(9));
  ASSERT_EQ(parser.next(reply), parse_result::command);
  EXPECT_EQ(reply.type, wire_reply::kind::bulk);
  EXPECT_EQ(reply.text, "0123456789");
}

TEST(ReplyParser, MalformedRepliesAreFatal) {
  const std::vector<std::string> bad = {
      "*3\r\n",       // unknown tag
      ":\r\n",        // empty integer
      ":12x\r\n",     // junk in integer
      "$abc\r\n",     // junk bulk length
      "+OK\n",        // LF without CR
      "$3\r\nabcX\n", // bulk payload not CRLF-terminated
  };
  for (const std::string& stream : bad) {
    reply_parser parser;
    parser.feed(stream);
    wire_reply reply;
    EXPECT_EQ(parser.next(reply), parse_result::error) << stream;
    EXPECT_TRUE(parser.failed()) << stream;
  }
}

TEST(ReplyParser, OversizedBulkHeaderIsFatal) {
  reply_parser parser(1024);
  parser.feed("$9999\r\n");
  wire_reply reply;
  EXPECT_EQ(parser.next(reply), parse_result::error);
  EXPECT_TRUE(parser.failed());
}

}  // namespace
}  // namespace hdhash::net
