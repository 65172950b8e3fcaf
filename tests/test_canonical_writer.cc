// The canonical answer string is the byte-parity form every serving path is
// compared in, so its writer must never change a byte. These tests pin the
// production writer (std::to_chars into a reserved string) to the original
// ostringstream writer kept under tests/reference/: on the edges of every
// field it prints, on random doubles, and on every answer of an 8-domain
// world asked survey_wire-style questions.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/ask_types.h"
#include "datagen/world.h"
#include "eval/experiments.h"
#include "reference/canonical_reference.h"

namespace cqads::core {
namespace {

void ExpectSameAsReference(const AskResult& result) {
  EXPECT_EQ(CanonicalAskResultString(result),
            reference::CanonicalAskResultString(result));
}

AskResult OneAnswer(double rank_sim) {
  AskResult result;
  result.domain = "cars";
  result.sql = "SELECT * FROM cars";
  result.answers.push_back(Answer{7, false, rank_sim, "TI"});
  return result;
}

TEST(CanonicalWriterTest, ScoresPrintAsPrecision17General) {
  const double values[] = {
      0.0,
      -0.0,
      1.0,
      3.0,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1e-7,
      5e-324,  // smallest subnormal
      DBL_MAX,
      -DBL_MAX,
      DBL_MIN,
      0.1 + 0.2,  // 0.30000000000000004: needs all 17 digits
      2.5,
      123456789012345678.0,
      1e16,
      1e17,
      -1.5e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (double v : values) {
    SCOPED_TRACE(testing::Message() << "rank_sim " << v);
    ExpectSameAsReference(OneAnswer(v));
  }
  // Spot-check the format itself, not just agreement.
  EXPECT_NE(CanonicalAskResultString(OneAnswer(0.1 + 0.2))
                .find(" rank_sim=0.30000000000000004 "),
            std::string::npos);
  EXPECT_NE(CanonicalAskResultString(OneAnswer(-0.0)).find(" rank_sim=-0 "),
            std::string::npos);
}

TEST(CanonicalWriterTest, RandomBitPatternsMatchReference) {
  std::mt19937_64 rng(20111130);
  AskResult result;
  result.domain = "cars";
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isnan(v)) continue;  // never a score; sign spelling aside
    // Doubles uniform over the bit patterns (every exponent), and doubles
    // uniform in [0, 4], where Eq. 5 scores live.
    result.answers.push_back(
        Answer{static_cast<db::RowId>(bits >> 32), (bits & 1) != 0, v, ""});
    const double score =
        std::ldexp(static_cast<double>(bits >> 11), -53) * 4.0;
    result.answers.push_back(Answer{static_cast<db::RowId>(i), false, score,
                                    "WS"});
  }
  ASSERT_GT(result.answers.size(), 39000u);
  ExpectSameAsReference(result);
}

TEST(CanonicalWriterTest, IntegerFieldsAtTheirLimits) {
  AskResult result;
  result.domain = "cars";
  result.exact_count = std::numeric_limits<std::size_t>::max();
  result.answers.push_back(
      Answer{std::numeric_limits<db::RowId>::max(), true, 4.0, ""});
  result.answers.push_back(Answer{0, true, 0.0, ""});
  ExpectSameAsReference(result);
  const std::string s = CanonicalAskResultString(result);
  EXPECT_NE(s.find("exact_count=18446744073709551615\n"), std::string::npos);
  EXPECT_NE(s.find("row=4294967295 exact=1 rank_sim=4 measure=\n"),
            std::string::npos);
}

TEST(CanonicalWriterTest, EmptyResultAndEmptyMeasure) {
  AskResult empty;
  ExpectSameAsReference(empty);
  EXPECT_EQ(CanonicalAskResultString(empty),
            "domain=\nsql=\ninterpretation=\ncontradiction=0\n"
            "exact_count=0\n");

  AskResult contradiction;
  contradiction.domain = "cars";
  contradiction.contradiction = true;
  ExpectSameAsReference(contradiction);

  AskResult no_measure = OneAnswer(2.0);
  no_measure.answers.back().measure.clear();
  ExpectSameAsReference(no_measure);
}

TEST(CanonicalWriterTest, StringFieldsPassThroughEveryByte) {
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes.push_back(static_cast<char>(c));
  AskResult result;
  result.domain = "ca\"rs\\";
  result.sql = "SELECT *\nFROM cars WHERE make = 'a\\\"b'\t";
  result.interpretation = all_bytes;
  result.answers.push_back(Answer{1, false, 1.5, all_bytes});
  result.answers.push_back(
      Answer{2, false, 0.25, "\n\"\\\x01\x1f\x7f\x80\xc3\xa9\xff"});
  result.answers.push_back(Answer{3, true, 3.0, std::string("\0x", 2)});
  ExpectSameAsReference(result);
}

// Every answer the engine gives on the 8-domain paper world, asked the
// survey question mix survey_wire serves (80 car questions and 40 per other
// domain in each of ten generation rounds, seed 3): exact and partial
// answers, contradictions and every measure the ranker reports.
TEST(CanonicalWriterTest, EveryAnswerOfAnEightDomainWorldMatches) {
  auto built = datagen::World::Build(datagen::WorldOptions());
  ASSERT_TRUE(built.ok()) << built.status();
  const datagen::World& world = *built.value();
  ASSERT_EQ(world.domains().size(), 8u);

  std::size_t asked = 0, answers = 0, partials = 0;
  for (std::uint64_t round = 0; round < 10; ++round) {
    const auto by_domain =
        eval::GenerateSurveyQuestions(world, 80, 40, 3 * 1000003ULL + round);
    for (const auto& [domain, questions] : by_domain) {
      for (const auto& q : questions) {
        auto r = world.engine().Ask(q.text);
        if (!r.ok()) continue;
        ++asked;
        answers += r.value().answers.size();
        for (const Answer& a : r.value().answers) partials += a.exact ? 0 : 1;
        ASSERT_EQ(CanonicalAskResultString(r.value()),
                  reference::CanonicalAskResultString(r.value()))
            << "question: " << q.text;
      }
    }
  }
  // 3,600 answered questions, ~89k answers, ~53k of them partial.
  EXPECT_GT(asked, 3000u);
  EXPECT_GT(answers, 50000u);
  EXPECT_GT(partials, 20000u);
}

}  // namespace
}  // namespace cqads::core
