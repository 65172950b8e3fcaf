// Protocol-layer tests: JSON parse/dump over adversarial input, frame
// reassembly split at EVERY byte boundary, oversized/zero-frame rejection,
// and request/response codec round trips — the pure-computation half of the
// network front-end (no sockets; see test_net_serve.cc for the wire).
#include "serve/net/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"
#include "reference/wire_reference.h"

namespace cqads::serve::net {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonTest, ParsesScalarsAndStructures) {
  auto v = JsonValue::Parse(
      R"({"a":1,"b":-2.5,"c":"x","d":true,"e":null,"f":[1,2,3],"g":{"h":0}})");
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue& o = v.value();
  EXPECT_EQ(o.GetNumber("a"), 1.0);
  EXPECT_EQ(o.GetNumber("b"), -2.5);
  EXPECT_EQ(o.GetString("c"), "x");
  EXPECT_TRUE(o.GetBool("d"));
  ASSERT_NE(o.Find("e"), nullptr);
  EXPECT_TRUE(o.Find("e")->is_null());
  ASSERT_NE(o.Find("f"), nullptr);
  EXPECT_EQ(o.Find("f")->array_items().size(), 3u);
  ASSERT_NE(o.Find("g"), nullptr);
  EXPECT_EQ(o.Find("g")->GetNumber("h", -1.0), 0.0);
}

TEST(JsonTest, DumpParsesBackIdentically) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(1234567890123.0));
  v.Set("text", JsonValue::Str("line\nquote\"back\\slash\ttab"));
  v.Set("neg", JsonValue::Number(-0.125));
  v.Set("flag", JsonValue::Bool(false));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Str(""));
  arr.Append(JsonValue::Null());
  v.Set("arr", std::move(arr));
  const std::string dumped = v.Dump();
  auto back = JsonValue::Parse(dumped);
  ASSERT_TRUE(back.ok()) << back.status() << " from " << dumped;
  // A second dump must be byte-identical: the writer is deterministic and
  // the parser preserves member order.
  EXPECT_EQ(back.value().Dump(), dumped);
  EXPECT_EQ(back.value().GetString("text"), "line\nquote\"back\\slash\ttab");
  EXPECT_EQ(back.value().GetNumber("id"), 1234567890123.0);
}

TEST(JsonTest, IntegralNumbersRoundTripExactly) {
  // Request ids ride JSON numbers; they must not pick up exponent forms.
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(9007199254740991.0));  // 2^53 - 1
  EXPECT_EQ(v.Dump(), "{\"id\":9007199254740991}");
  auto back = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().GetNumber("id"), 9007199254740991.0);
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  auto v = JsonValue::Parse(R"("a\u0041\n\u00e9\u20ac\ud83d\ude00")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v.value().string_value(),
            "aA\n\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(JsonTest, ControlBytesSurviveEscapedRoundTrip) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\x7f\xc3\xa9";  // DEL passes through; UTF-8 passes through
  std::string dumped;
  JsonEscape(raw, &dumped);
  auto back = JsonValue::Parse(dumped);
  ASSERT_TRUE(back.ok()) << back.status() << " from " << dumped;
  EXPECT_EQ(back.value().string_value(), raw);
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // truncated object
      "[1,2",                  // truncated array
      "\"abc",                 // unterminated string
      "{\"a\":}",              // missing value
      "{\"a\":1,}",            // trailing comma
      "{a:1}",                 // unquoted key
      "[1] garbage",           // trailing bytes
      "nul",                   // bad literal
      "01x",                   // bad number tail
      "\"\\q\"",               // bad escape
      "\"\\u12\"",             // truncated \u
      "\"\\ud800\"",           // unpaired high surrogate
      "\"\\udc00\"",           // unpaired low surrogate
      "\"raw\ncontrol\"",      // raw control byte in string
      "{\"a\" 1}",             // missing colon
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, RejectsExcessiveNestingWithoutCrashing) {
  std::string deep(2000, '[');
  deep.append(2000, ']');
  auto v = JsonValue::Parse(deep);
  EXPECT_FALSE(v.ok());
}

TEST(JsonTest, EscapeMatchesByteAtATimeReferenceForEveryByte) {
  // The escaper appends runs of safe bytes in bulk; each byte value must
  // come out as the one-byte-at-a-time reference writes it, alone, at
  // either end of a run, inside one, and repeated.
  const auto expect_same = [](const std::string& s) {
    std::string got, want;
    JsonEscape(s, &got);
    reference::JsonEscape(s, &want);
    EXPECT_EQ(got, want) << "input bytes: " << s.size();
  };
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    all_bytes.push_back(c);
    expect_same(std::string(1, c));
    expect_same(std::string(1, c) + "safe run");
    expect_same("safe run" + std::string(1, c));
    expect_same("safe" + std::string(1, c) + "run");
    expect_same(std::string(3, c));
    expect_same("a" + std::string(2, c) + "\n" + std::string(1, c) + "z");
  }
  expect_same("");
  expect_same(all_bytes);
  expect_same(std::string(all_bytes.rbegin(), all_bytes.rend()));
  // Appending keeps what the buffer held.
  std::string out = "prefix";
  JsonEscape("a\"b", &out);
  EXPECT_EQ(out, "prefix\"a\\\"b\"");
}

// ---------------------------------------------------------------- frames

TEST(FrameTest, EncodesLittleEndianLengthPrefix) {
  std::string out;
  AppendFrame("abc", &out);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], 0);
  EXPECT_EQ(out.substr(4), "abc");
}

TEST(FrameTest, ReassemblesAcrossEverySplitBoundary) {
  // Two frames, split into (first k bytes, rest) for every k: the decoder
  // must produce exactly the same two payloads regardless of where the
  // transport happened to cut the stream.
  std::string wire;
  AppendFrame("hello world", &wire);
  AppendFrame(std::string(300, 'x') + "\x01\x02\xff", &wire);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), split);
    std::vector<std::string> frames;
    std::string payload;
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
    decoder.Feed(wire.data() + split, wire.size() - split);
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(frames[0], "hello world") << "split at " << split;
    EXPECT_EQ(frames[1], std::string(300, 'x') + "\x01\x02\xff")
        << "split at " << split;
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "split at " << split;
  }
}

TEST(FrameTest, ReassemblesFedOneByteAtATime) {
  std::string wire;
  AppendFrame("q", &wire);
  AppendFrame("rs", &wire);
  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (char c : wire) {
    decoder.Feed(&c, 1);
    std::string payload;
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "q");
  EXPECT_EQ(frames[1], "rs");
}

TEST(FrameTest, RejectsZeroLengthFrame) {
  FrameDecoder decoder;
  const char zeros[4] = {0, 0, 0, 0};
  decoder.Feed(zeros, 4);
  std::string payload;
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().find("zero-length"), std::string::npos);
  // The error state is sticky: more bytes never resynchronize.
  std::string more;
  AppendFrame("ok", &more);
  decoder.Feed(more.data(), more.size());
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kError);
}

TEST(FrameTest, RejectsOversizedFrameFromHeaderAlone) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  // Header declares 1025 bytes; the decoder must reject on the header,
  // before any payload arrives (never buffering toward a hostile length).
  const char header[4] = {0x01, 0x04, 0, 0};
  decoder.Feed(header, 4);
  std::string payload;
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().find("exceeds cap"), std::string::npos);
}

TEST(FrameTest, PartialHeaderNeedsMore) {
  FrameDecoder decoder;
  const char partial[3] = {9, 0, 0};
  decoder.Feed(partial, 3);
  std::string payload;
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kNeedMore);
}

// ---------------------------------------------------------------- codec

TEST(CodecTest, RequestRoundTrips) {
  Request request;
  request.id = 42;
  request.method = "ask_in_domain";
  request.domain = "cars";
  request.question = "red honda \"accord\" under $9,000\nwith sunroof";
  request.budget_ms = 25.5;
  auto back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().id, 42u);
  EXPECT_EQ(back.value().method, "ask_in_domain");
  EXPECT_EQ(back.value().domain, "cars");
  EXPECT_EQ(back.value().question, request.question);
  EXPECT_DOUBLE_EQ(back.value().budget_ms, 25.5);
}

TEST(CodecTest, NegativeBudgetRoundTrips) {
  Request request;
  request.id = 1;
  request.method = "ask";
  request.question = "q";
  request.budget_ms = -1.0;  // the already-expired test hook
  auto back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_DOUBLE_EQ(back.value().budget_ms, -1.0);
}

TEST(CodecTest, RejectsMalformedRequests) {
  EXPECT_FALSE(DecodeRequest("not json").ok());
  EXPECT_FALSE(DecodeRequest("[1,2,3]").ok());          // not an object
  EXPECT_FALSE(DecodeRequest("{\"id\":1}").ok());       // no method
  EXPECT_FALSE(DecodeRequest("{\"method\":7}").ok());   // non-string method
  EXPECT_FALSE(DecodeRequest("{\"id\":-3,\"method\":\"ask\"}").ok());
}

// Ids arrive as JSON doubles; casting one outside [0, 2^64) or with a
// fraction to uint64 would be undefined behaviour, so both codecs reject
// them as bad input (the float-cast-overflow sanitizer leg checks that no
// such cast remains).
TEST(CodecTest, RejectsIdsOutsideTheUint64Range) {
  for (const char* id : {"1e30", "18446744073709551616", "1.5", "-0.5",
                         "-3", "1e400"}) {
    const std::string request =
        std::string("{\"id\":") + id + ",\"method\":\"ping\"}";
    const std::string response =
        std::string("{\"id\":") + id + ",\"status\":\"ok\"}";
    auto req = DecodeRequest(request);
    EXPECT_FALSE(req.ok()) << request;
    if (!req.ok()) {
      EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument) << request;
    }
    EXPECT_FALSE(DecodeResponse(response).ok()) << response;
  }
  // The largest double below 2^64, zero and an absent id are all valid.
  auto top = DecodeRequest(
      "{\"id\":18446744073709549568,\"method\":\"ping\"}");
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top.value().id, 18446744073709549568u);
  auto top_response =
      DecodeResponse("{\"id\":18446744073709549568,\"status\":\"ok\"}");
  ASSERT_TRUE(top_response.ok()) << top_response.status();
  EXPECT_EQ(top_response.value().id, 18446744073709549568u);
  auto zero = DecodeRequest("{\"id\":0,\"method\":\"ping\"}");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero.value().id, 0u);
  auto absent = DecodeRequest("{\"method\":\"ping\"}");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_EQ(absent.value().id, 0u);
}

// A budget is turned into microseconds past the arrival instant, so a
// huge one would overflow; budgets above kMaxBudgetMs are bad requests.
// The negative test hook stays valid however large.
TEST(CodecTest, RejectsBudgetsAboveTheCap) {
  auto ask = [](const std::string& budget) {
    return DecodeRequest("{\"id\":1,\"method\":\"ask\",\"question\":\"q\","
                         "\"budget_ms\":" +
                         budget + "}");
  };
  for (const char* budget : {"1e300", "86400000.5", "1e400"}) {
    auto r = ask(budget);
    EXPECT_FALSE(r.ok()) << budget;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << budget;
    }
  }
  auto at_cap = ask("86400000");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status();
  EXPECT_EQ(at_cap.value().budget_ms, kMaxBudgetMs);
  auto very_negative = ask("-1e300");
  ASSERT_TRUE(very_negative.ok()) << very_negative.status();
  EXPECT_EQ(very_negative.value().budget_ms, -1e300);
}

TEST(CodecTest, ResponseRoundTripsEveryStatus) {
  const StatusCode codes[] = {
      StatusCode::kOk,         StatusCode::kInvalidArgument,
      StatusCode::kNotFound,   StatusCode::kDeadlineExceeded,
      StatusCode::kOverloaded, StatusCode::kInternal,
      StatusCode::kDataLoss,
  };
  for (StatusCode code : codes) {
    Response response;
    response.id = 7;
    response.status = WireStatusName(code);
    if (code != StatusCode::kOk) response.error = "why";
    response.degraded = (code == StatusCode::kOk);
    response.domain = "jewellery";
    response.canonical = "domain=jewellery\nrow=3 exact=1\n";
    auto back = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back.value().id, 7u);
    EXPECT_EQ(back.value().status, WireStatusName(code));
    EXPECT_EQ(WireStatusCode(back.value().status), code);
    EXPECT_EQ(back.value().degraded, response.degraded);
    EXPECT_EQ(back.value().canonical, response.canonical);
  }
}

TEST(CodecTest, StatszStatsNestAsRealJson) {
  Response response;
  response.id = 9;
  response.stats_json = "{\"answered\":12,\"net\":{\"frames_in\":34}}";
  const std::string encoded = EncodeResponse(response);
  auto doc = JsonValue::Parse(encoded);
  ASSERT_TRUE(doc.ok());
  const JsonValue* stats = doc.value().Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->is_object()) << "stats must nest as an object, not a "
                                     "quoted blob: "
                                  << encoded;
  EXPECT_EQ(stats->GetNumber("answered"), 12.0);
  auto back = DecodeResponse(encoded);
  ASSERT_TRUE(back.ok());
  auto inner = JsonValue::Parse(back.value().stats_json);
  ASSERT_TRUE(inner.ok());
  ASSERT_NE(inner.value().Find("net"), nullptr);
  EXPECT_EQ(inner.value().Find("net")->GetNumber("frames_in"), 34.0);
}

// The responses the server writes, one per shape: an answer, a degraded
// answer, an answer without a domain, errors, statsz with valid and with
// invalid stats, and ids at the edges of the exact-double range.
std::vector<Response> ResponseCases() {
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  const std::string canonical =
      "domain=cars\nsql=SELECT * FROM cars WHERE make = 'honda'\n"
      "interpretation=make \"honda\"\ncontradiction=0\nexact_count=1\n"
      "row=3 exact=1 rank_sim=2 measure=\n"
      "row=17 exact=0 rank_sim=1.3333333333333333 measure=TI\n";
  std::vector<Response> cases;
  Response ok;
  ok.id = 7;
  ok.domain = "cars";
  ok.canonical = canonical;
  cases.push_back(ok);
  Response degraded = ok;
  degraded.id = 8;
  degraded.degraded = true;
  cases.push_back(degraded);
  Response no_domain = ok;
  no_domain.id = 9;
  no_domain.domain.clear();
  no_domain.canonical = "domain=\nsql=\n" + all_bytes;
  cases.push_back(no_domain);
  Response error;
  error.id = 10;
  error.status = WireStatusName(StatusCode::kDeadlineExceeded);
  error.error = "budget exhausted before \"rank\" stage\t\x01";
  cases.push_back(error);
  Response bad_request;  // an unparseable request is answered with id 0
  bad_request.status = WireStatusName(StatusCode::kInvalidArgument);
  bad_request.error = "json: invalid literal at byte 3";
  cases.push_back(bad_request);
  Response ping;  // id 0, status only
  cases.push_back(ping);
  Response statsz;
  statsz.id = 11;
  statsz.stats_json =
      "{ \"answered\" : 12, \"mean\": 0.125, \"net\": {\"frames_in\": 34},"
      " \"list\": [1, \"x\\n\", null, true] }";
  cases.push_back(statsz);
  Response bad_stats = statsz;
  bad_stats.id = 12;
  bad_stats.stats_json = "{\"answered\": 12,";  // truncated: kept as a string
  cases.push_back(bad_stats);
  for (std::uint64_t id :
       {std::uint64_t{9007199254740991}, std::uint64_t{9007199254740992},
        std::uint64_t{9007199254740993}, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    Response large = ok;
    large.id = id;
    cases.push_back(large);
  }
  return cases;
}

TEST(CodecTest, EncodeResponseMatchesTheJsonTreeEncodingByteForByte) {
  for (const Response& response : ResponseCases()) {
    EXPECT_EQ(EncodeResponse(response), reference::EncodeResponse(response))
        << "id " << response.id;
  }
}

TEST(CodecTest, EncodedResponsesDecodeBack) {
  for (const Response& response : ResponseCases()) {
    // Ids above 2^53 do not survive the double the codec carries them in.
    if (response.id > (std::uint64_t{1} << 53) &&
        response.id != (std::uint64_t{1} << 63)) {
      continue;
    }
    auto back = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(back.ok()) << back.status();
    const Response& got = back.value();
    EXPECT_EQ(got.id, response.id);
    EXPECT_EQ(got.status, response.status);
    EXPECT_EQ(got.error, response.error);
    EXPECT_EQ(got.degraded, response.degraded);
    EXPECT_EQ(got.domain, response.domain);
    EXPECT_EQ(got.canonical, response.canonical);
    if (response.stats_json.empty()) {
      EXPECT_TRUE(got.stats_json.empty());
      continue;
    }
    // Valid stats come back as their compact dump; invalid stats as the
    // JSON string they were quoted into.
    auto parsed = JsonValue::Parse(response.stats_json);
    std::string want;
    if (parsed.ok()) {
      want = parsed.value().Dump();
    } else {
      JsonEscape(response.stats_json, &want);
    }
    EXPECT_EQ(got.stats_json, want) << "id " << response.id;
  }
}

TEST(CodecTest, WireStatusNamesInvert) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    EXPECT_EQ(WireStatusCode(WireStatusName(code)), code);
  }
  EXPECT_EQ(WireStatusCode("no_such_status"), StatusCode::kInternal);
}

// ------------------------------------------------------------- histogram

TEST(HistogramTest, PercentilesTrackKnownDistribution) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.max_micros(), 10000.0);
  // Log-linear buckets guarantee ~3% relative error.
  EXPECT_NEAR(h.PercentileMicros(0.50), 5000.0, 5000.0 * 0.04);
  EXPECT_NEAR(h.PercentileMicros(0.99), 9900.0, 9900.0 * 0.04);
  EXPECT_NEAR(h.PercentileMicros(0.999), 9990.0, 9990.0 * 0.04);
  EXPECT_NEAR(h.mean_micros(), 5000.5, 0.01);
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const double v = 17.0 * i + 3.0;
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.max_micros(), combined.max_micros());
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.PercentileMicros(q), combined.PercentileMicros(q));
  }
}

TEST(HistogramTest, HandlesExtremes) {
  LatencyHistogram h;
  h.Record(0.0);
  h.Record(-5.0);  // clamps to zero
  h.Record(1e12);  // clamps into the top bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.PercentileMicros(1.0), 1e8);
  EXPECT_LT(h.PercentileMicros(0.01), 1.0);
}

}  // namespace
}  // namespace cqads::serve::net
