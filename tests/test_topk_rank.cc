// The bounded top-k rank path (EngineOptions::use_topk_rank): TopK heap
// semantics (exact (score desc, row asc) order, tie-safe threshold, k = 0
// degenerate, schedule-independent merge), RankBounds block metadata,
// randomized engine-level byte-parity of pruned/parallel ranking against
// the frozen serial full-sort oracle across all eight datagen domains,
// score-tie boundaries at answer_cap, delta rows + tombstones across a
// compaction, best-first visit order on price-sorted and shuffled fleets
// (byte parity, and fewer blocks visited than a row-order replay),
// deadline-degraded sweeps, rank counters through ExecStats and
// ConcurrentServer::StatsJson, and the TSan leg racing morsel-parallel rank
// against ingest/retire/compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "db/exec/rank_bounds.h"
#include "db/exec/topk.h"
#include "db/executor.h"
#include "serve/concurrent_server.h"
#include "serve/worker_pool.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

using db::RowId;
using db::exec::TopK;
using db::exec::TopKEntry;

// ------------------------------------------------------------- TopK unit

TEST(TopKTest, KeepsExactlyTheFullSortPrefix) {
  // Random scores with deliberate duplicates: the heap's survivors must be
  // byte-for-byte the first k entries of the full (score desc, row asc)
  // sort.
  Rng rng(42);
  for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{30}}) {
    std::vector<TopKEntry> all;
    TopK topk(k);
    for (RowId row = 0; row < 500; ++row) {
      const double score =
          static_cast<double>(rng.UniformInt(0, 24)) / 10.0;
      all.push_back(TopKEntry{score, row, 0});
      topk.Push(score, row, 0);
    }
    std::sort(all.begin(), all.end(), db::exec::TopKBetter);
    all.resize(std::min(k, all.size()));
    const std::vector<TopKEntry> got = topk.Take();
    ASSERT_EQ(got.size(), all.size()) << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, all[i].score) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].row, all[i].row) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKTest, TieAtThresholdAdmitsSmallerRowOnly) {
  TopK topk(2);
  EXPECT_FALSE(topk.full());
  topk.Push(1.0, 10, 0);
  topk.Push(1.0, 20, 0);
  ASSERT_TRUE(topk.full());
  EXPECT_EQ(topk.threshold(), 1.0);
  // Equal score: admitted iff the row id is smaller than the current k-th's
  // — the reason block pruning must use bound < threshold STRICTLY.
  EXPECT_TRUE(topk.WouldAccept(1.0, 5));
  EXPECT_FALSE(topk.WouldAccept(1.0, 20));
  EXPECT_FALSE(topk.WouldAccept(1.0, 25));
  EXPECT_FALSE(topk.WouldAccept(0.999, 0));
  ASSERT_TRUE(topk.Push(1.0, 5, 0));
  const auto got = topk.Take();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].row, 5u);
  EXPECT_EQ(got[1].row, 10u);
}

TEST(TopKTest, ZeroCapacityAcceptsNothingAndPrunesEverything) {
  TopK topk(0);
  EXPECT_FALSE(topk.WouldAccept(100.0, 0));
  EXPECT_FALSE(topk.Push(100.0, 0, 0));
  EXPECT_EQ(topk.threshold(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(topk.Take().empty());
}

TEST(TopKTest, MergeIsScheduleIndependent) {
  // Split one candidate stream across W "workers" in many different ways;
  // the merged top-k must always equal the single-accumulator result.
  Rng rng(7);
  std::vector<TopKEntry> all;
  for (RowId row = 0; row < 300; ++row) {
    all.push_back(
        TopKEntry{static_cast<double>(rng.UniformInt(0, 11)) / 4.0, row, 0});
  }
  constexpr std::size_t kK = 10;
  TopK reference(kK);
  for (const auto& e : all) reference.Push(e.score, e.row, e.tag);
  const auto want = reference.Take();

  for (std::size_t workers : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      Rng assign(1000 + salt);
      std::vector<TopK> locals(workers, TopK(kK));
      for (const auto& e : all) {
        locals[static_cast<std::size_t>(
                   assign.UniformInt(0, static_cast<std::int64_t>(workers) - 1))]
            .Push(e.score, e.row, e.tag);
      }
      TopK merged(kK);
      for (auto& l : locals) merged.Merge(std::move(l));
      const auto got = merged.Take();
      ASSERT_EQ(got.size(), want.size()) << workers << " " << salt;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].score, want[i].score) << workers << " " << salt;
        EXPECT_EQ(got[i].row, want[i].row) << workers << " " << salt;
      }
    }
  }
}

// Block-local selection: offering candidates a block at a time through
// PushBatch keeps exactly what pushing them one by one keeps, including
// when a batch's scores tie with the heap's k-th entry and only the
// smaller row id may displace it.
TEST(TopKTest, PushBatchMatchesOneAtATimePushes) {
  Rng rng(11);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{30}}) {
    TopK batched(k);
    TopK single(k);
    std::vector<TopKEntry> batch;
    for (std::size_t block = 0; block < 12; ++block) {
      batch.clear();
      const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 90));
      for (std::size_t i = 0; i < n; ++i) {
        // Row ids fall and rise across blocks, and few distinct scores
        // make ties at the threshold the common case.
        const auto row = static_cast<RowId>(
            block % 2 == 0 ? 5000 - block * 100 - i : block * 100 + i);
        const double score = static_cast<double>(rng.UniformInt(0, 3)) / 2.0;
        const auto tag = static_cast<std::uint32_t>(block);
        batch.push_back(TopKEntry{score, row, tag});
        single.Push(score, row, tag);
      }
      batched.PushBatch(batch.data(), batch.size());
      ASSERT_EQ(batched.threshold(), single.threshold())
          << "k=" << k << " block=" << block;
    }
    const auto want = single.Take();
    const auto got = batched.Take();
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, want[i].score) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].row, want[i].row) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].tag, want[i].tag) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKTest, PushBatchTieAtThresholdAdmitsSmallerRowsOnly) {
  TopK topk(3);
  std::vector<TopKEntry> first = {
      {1.0, 40, 0}, {1.0, 50, 0}, {2.0, 60, 0}, {1.0, 45, 0}, {1.0, 70, 0}};
  EXPECT_TRUE(topk.PushBatch(first.data(), first.size()));
  EXPECT_EQ(topk.threshold(), 1.0);
  // All tie with the k-th entry (1.0, row 45): only rows below 45 enter.
  std::vector<TopKEntry> second = {
      {1.0, 46, 1}, {1.0, 44, 1}, {1.0, 90, 1}, {1.0, 3, 1}};
  EXPECT_TRUE(topk.PushBatch(second.data(), second.size()));
  const auto got = topk.Take();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].row, 60u);
  EXPECT_EQ(got[1].row, 3u);
  EXPECT_EQ(got[2].row, 40u);
  EXPECT_EQ(got[1].tag, 1u);
}

// ------------------------------------------------------- RankBounds unit

TEST(RankBoundsTest, MiniCarBlockMetadata) {
  db::Table table = testing::MiniCarTable();  // 13 rows => one block
  auto bounds = db::exec::RankBounds::Build(table);
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(bounds->num_rows(), 13u);
  EXPECT_EQ(bounds->num_blocks(), 1u);
  EXPECT_EQ(bounds->block_end(0), 13u);

  // Attribute 0 ("make", text): one block whose code range covers every
  // row's code, with a representative row per dictionary code.
  const auto& make = bounds->attr(0);
  ASSERT_EQ(make.code_min.size(), 1u);
  ASSERT_LE(make.code_min[0], make.code_max[0]);
  const auto& codes = table.store().code_column(0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ASSERT_GE(codes[r], make.code_min[0]);
    ASSERT_LE(codes[r], make.code_max[0]);
  }
  for (std::uint32_t c = 0; c < make.first_row_of_code.size(); ++c) {
    const RowId rep = make.first_row_of_code[c];
    if (rep == db::exec::kNoRankRow) continue;
    EXPECT_EQ(codes[rep], c);
  }

  // Attribute 2 ("year", numeric): the block's value envelope is the
  // column's true min/max.
  const auto& year = bounds->attr(2);
  ASSERT_EQ(year.val_min.size(), 1u);
  const auto& vals = table.store().numeric_column(2);
  double lo = vals[0], hi = vals[0];
  for (RowId r = 1; r < table.num_rows(); ++r) {
    lo = std::min(lo, vals[r]);
    hi = std::max(hi, vals[r]);
  }
  EXPECT_EQ(year.val_min[0], lo);
  EXPECT_EQ(year.val_max[0], hi);
}

// --------------------------------------- world-backed differential suite

class TopKRankParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 200;
    options.corpus_docs_per_domain = 40;
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* TopKRankParityTest::world_ = nullptr;

/// Asks every question under `on` then under `off` and requires canonical
/// byte-identity pair by pair.
void ExpectAskParity(core::CqadsEngine& engine, const std::string& domain,
                     const std::vector<datagen::GeneratedQuestion>& questions,
                     const core::EngineOptions& on,
                     const core::EngineOptions& off, const char* label) {
  auto canon = [&](const std::string& text) {
    auto r = engine.AskInDomain(domain, text);
    return r.ok() ? core::CanonicalAskResultString(r.value())
                  : "ERROR: " + r.status().ToString();
  };
  std::vector<std::string> on_answers;
  engine.SetOptions(on);
  for (const auto& q : questions) on_answers.push_back(canon(q.text));
  engine.SetOptions(off);
  for (std::size_t i = 0; i < questions.size(); ++i) {
    EXPECT_EQ(on_answers[i], canon(questions[i].text))
        << label << " " << domain << " q" << i << ": " << questions[i].text;
  }
  engine.SetOptions(core::EngineOptions());
}

// The pruned top-k path answers byte-identically to the frozen serial
// full-sort oracle — vectorized and scalar.
TEST_P(TopKRankParityTest, AskByteIdenticalTopKOnAndOff) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);
  Rng rng(555);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 60, datagen::QuestionGenOptions(), &rng);

  core::EngineOptions on;  // defaults: use_topk_rank = true
  core::EngineOptions off;
  off.use_topk_rank = false;
  ExpectAskParity(world_->mutable_engine(), domain, questions, on, off,
                  "vectorized");

  core::EngineOptions on_scalar = on;
  on_scalar.use_vector_kernels = false;
  core::EngineOptions off_scalar = off;
  off_scalar.use_vector_kernels = false;
  ExpectAskParity(world_->mutable_engine(), domain, questions, on_scalar,
                  off_scalar, "scalar");
}

// Partial ranking does real work on this stream, and the new ExecStats
// counters see it (blocks visited whenever the top-k sweep ran).
TEST_P(TopKRankParityTest, RankCountersAccumulate) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);
  Rng rng(901);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 40, datagen::QuestionGenOptions(), &rng);

  auto& engine = world_->mutable_engine();
  engine.SetOptions(core::EngineOptions());
  std::size_t blocks_visited = 0;
  std::size_t ranked_questions = 0;
  for (const auto& q : questions) {
    auto r = engine.AskInDomain(domain, q.text);
    if (!r.ok()) continue;
    blocks_visited += r.value().stats.rank_blocks_visited;
    const auto& answers = r.value().answers;
    const bool has_partial =
        std::any_of(answers.begin(), answers.end(),
                    [](const core::Answer& a) { return !a.exact; });
    if (has_partial) {
      ++ranked_questions;
      EXPECT_LE(answers.size(),
                static_cast<std::size_t>(core::EngineOptions().answer_cap));
    }
  }
  if (ranked_questions > 0) {
    EXPECT_GT(blocks_visited, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, TopKRankParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

// ----------------------------------- tie boundaries + delta / tombstones

db::Record CarRecord(const char* make, const char* model, double year,
                     double price, double mileage, const char* color,
                     const char* transmission, const char* doors,
                     const char* drivetrain, const char* features) {
  db::Record r;
  r.push_back(db::Value::Text(make));
  r.push_back(db::Value::Text(model));
  r.push_back(db::Value::Real(year));
  r.push_back(db::Value::Real(price));
  r.push_back(db::Value::Real(mileage));
  r.push_back(db::Value::Text(color));
  r.push_back(db::Value::Text(transmission));
  r.push_back(db::Value::Text(doors));
  r.push_back(db::Value::Text(drivetrain));
  r.push_back(db::Value::Text(features));
  return r;
}

/// Engine over many duplicated MiniCar rows: scores tie in large groups, so
/// the answer_cap boundary lands inside a tie run — the adversarial case
/// for threshold pruning (an equal-score smaller-row candidate must still
/// displace the k-th entry).
class TieBoundaryTest : public ::testing::Test {
 protected:
  TieBoundaryTest() : table_(testing::MiniCarSchema()) {
    const db::Table proto = testing::MiniCarTable();
    for (int copy = 0; copy < 20; ++copy) {  // 260 rows, ties everywhere
      for (RowId r = 0; r < proto.num_rows(); ++r) {
        EXPECT_TRUE(table_.Insert(proto.row(r)).ok());
      }
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(engine_.TrainClassifier().ok());
  }

  std::string CanonicalAsk(const std::string& q) {
    auto r = engine_.AskInDomain("cars", q);
    return r.ok() ? core::CanonicalAskResultString(r.value())
                  : "ERROR: " + r.status().ToString();
  }

  void ExpectParity(const std::vector<std::string>& questions) {
    core::EngineOptions off;
    off.use_topk_rank = false;
    std::vector<std::string> want;
    engine_.SetOptions(off);
    for (const auto& q : questions) want.push_back(CanonicalAsk(q));
    engine_.SetOptions(core::EngineOptions());
    for (std::size_t i = 0; i < questions.size(); ++i) {
      EXPECT_EQ(CanonicalAsk(questions[i]), want[i]) << questions[i];
    }
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(TieBoundaryTest, CapFallsInsideTieRuns) {
  // Single-condition questions sweep the whole table; multi-unit questions
  // relax N-1. With 20 copies of every row, either way the 30-answer cap
  // cuts through a run of identical scores where only row ids decide.
  ExpectParity({
      "blue car",
      "honda",
      "manual transmission",
      "blue honda with cd player",
      "cheap toyota under 9000 dollars",
      "red car with leather seats",
      "4 door automatic with gps",
  });
}

TEST_F(TieBoundaryTest, DeltaRowsAndTombstonesStayByteIdentical) {
  // Grow a delta (new best-scoring candidates above base_rows), tombstone
  // base rows mid-tie-run, and re-check parity before AND after compaction:
  // the pruned path must handle live deltas, retired masks, and the
  // post-compaction rebuilt table identically to the oracle.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine_
                    .IngestAd("cars", CarRecord("honda", "fit", 2011, 9500,
                                                40000, "blue", "automatic",
                                                "4 door", "2 wheel drive",
                                                "cd player;bluetooth"))
                    .ok());
  }
  ASSERT_TRUE(engine_.RetireAd("cars", 0).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 13).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 26).ok());
  const std::vector<std::string> questions = {
      "blue car", "honda", "blue honda with cd player", "manual red car"};
  ExpectParity(questions);

  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  ExpectParity(questions);
}

// ------------------------------------------------ best-first visit order

enum class PriceOrder { kAscending, kDescending, kShuffled };

/// 18000 MiniCar-schema ads with distinct prices, inserted in `order` of
/// price: every order holds the same records, so only the row ids (and so
/// the blocks) a price lands in differ. Two make-model pairs of 9000 rows
/// each let one N-1 pass clear kMinRowsForParallelExec.
db::Table PriceOrderedFleet(PriceOrder order) {
  static constexpr const char* kColors[] = {"blue", "red",   "white",
                                            "black", "silver", "green"};
  std::vector<db::Record> records;
  Rng rng(4242);
  for (std::size_t i = 0; i < 18000; ++i) {
    const bool honda = i % 2 == 0;
    records.push_back(CarRecord(
        honda ? "honda" : "toyota", honda ? "civic" : "camry",
        2000 + static_cast<double>(i % 11),
        2000.0 + 2.5 * static_cast<double>(i) + rng.UniformReal(0.0, 0.99),
        static_cast<double>(10 + i % 170) * 1000.0, kColors[i % 6],
        i % 3 == 0 ? "manual" : "automatic", i % 4 == 0 ? "2 door" : "4 door",
        "2 wheel drive", i % 5 == 0 ? "gps;leather seats" : "cd player"));
  }
  if (order == PriceOrder::kDescending) {
    std::reverse(records.begin(), records.end());
  } else if (order == PriceOrder::kShuffled) {
    std::mt19937 shuffle(99);
    std::shuffle(records.begin(), records.end(), shuffle);
  }
  db::Table table(testing::MiniCarSchema());
  for (auto& r : records) EXPECT_TRUE(table.Insert(std::move(r)).ok());
  table.BuildIndexes();
  return table;
}

/// Blocks a single-condition sweep visits when it walks the blocks in row
/// order instead of best bound first: a serial replay over the same block
/// bounds, scorer and top-k rule as RankStage.
std::size_t RowOrderBlocksVisited(const core::CqadsEngine& engine,
                                  const std::string& question,
                                  const core::AskResult& asked) {
  const auto snapshot = engine.snapshot();
  const core::DomainRuntime* rt = snapshot->runtime("cars");
  auto parsed = engine.Parse("cars", question);
  if (!parsed.ok()) {
    ADD_FAILURE() << question << ": " << parsed.status();
    return 0;
  }
  const auto& units = parsed.value().assembled.units;
  EXPECT_EQ(units.size(), 1u) << question;
  const core::SimilarityContext sim = snapshot->MakeSimilarityContext(*rt);
  core::SimScorer scorer(rt->table->schema(), units, sim);
  std::vector<double> ub;
  EXPECT_TRUE(scorer.ComputeBlockBounds(*rt->table, *rt->rank_bounds, 0, &ub));

  const std::size_t rows = rt->table->num_rows();
  std::vector<bool> exact(rows, false);
  for (const auto& a : asked.answers) {
    if (a.exact) exact[a.row] = true;
  }
  TopK topk(core::EngineOptions().answer_cap - asked.exact_count);
  std::size_t visited = 0;
  for (std::size_t b = 0; b < ub.size(); ++b) {
    if (ub[b] <= 0.0 || ub[b] < topk.threshold()) continue;
    ++visited;
    const std::size_t end =
        std::min((b + 1) * db::exec::kRankBlockRows, rows);
    for (std::size_t r = b * db::exec::kRankBlockRows; r < end; ++r) {
      if (exact[r]) continue;
      const auto row = static_cast<RowId>(r);
      const core::PartialScore p = scorer.Score(*rt->table, row, 0);
      if (p.unit_sim > 0.0) topk.Push(p.rank_sim, row, 0);
    }
  }
  return visited;
}

// Best-first visits answer byte-identically to the full-sort oracle however
// prices are laid out over row ids — serially and on a 4-worker runner, for
// the single-condition sweep and for N-1 passes.
TEST(BestFirstVisitTest, ByteParityOnPriceSortedAndShuffledFleets) {
  std::vector<std::string> questions;
  for (const char* target : {"150", "9000", "23456", "46000"}) {
    const std::string price = std::string(target) + " dollars";
    questions.push_back(price);
    questions.push_back("honda civic " + price);
    questions.push_back("blue honda civic " + price);
  }
  serve::WorkerPool pool(4);
  core::EngineOptions serial_on;
  core::EngineOptions parallel_on;
  parallel_on.exec_runner = &pool;
  parallel_on.exec_parallelism = 4;
  core::EngineOptions off;
  off.use_topk_rank = false;

  for (PriceOrder order : {PriceOrder::kAscending, PriceOrder::kDescending,
                           PriceOrder::kShuffled}) {
    const db::Table table = PriceOrderedFleet(order);
    core::CqadsEngine engine;
    ASSERT_TRUE(engine.AddDomain(&table, qlog::TiMatrix()).ok());
    const std::string label =
        "price order " + std::to_string(static_cast<int>(order));
    std::vector<datagen::GeneratedQuestion> generated;
    std::size_t skipped = 0;
    for (const auto& q : questions) {
      auto r = engine.AskInDomain("cars", q);
      ASSERT_TRUE(r.ok()) << q;
      // Every question must reach the top-k sweep, or parity is vacuous.
      EXPECT_GT(r.value().stats.rank_blocks_visited, 0u) << label << " " << q;
      skipped += r.value().stats.rank_blocks_skipped;
      datagen::GeneratedQuestion g;
      g.text = q;
      generated.push_back(std::move(g));
    }
    EXPECT_GT(skipped, 0u) << label;
    ExpectAskParity(engine, "cars", generated, serial_on, off,
                    (label + " serial").c_str());
    ExpectAskParity(engine, "cars", generated, parallel_on, off,
                    (label + " parallel").c_str());
  }
}

// On a fleet whose prices rise with row id, a row-order sweep still visits
// every block up to the target's (each beats the running threshold);
// best-first visits the target's block first, and its 30 nearest prices
// then bound every other block out. Counts are exact: single-threaded
// sweeps are deterministic.
TEST(BestFirstVisitTest, AscendingFleetVisitsFewerBlocksThanRowOrder) {
  const db::Table table = PriceOrderedFleet(PriceOrder::kAscending);
  core::CqadsEngine engine;
  ASSERT_TRUE(engine.AddDomain(&table, qlog::TiMatrix()).ok());
  struct Want {
    const char* question;
    std::size_t best_first, row_order;
  };
  for (const Want& want : {Want{"23456 dollars", 1, 9},
                           Want{"46000 dollars", 1, 18}}) {
    auto r = engine.AskInDomain("cars", want.question);
    ASSERT_TRUE(r.ok()) << want.question;
    const std::size_t best_first = r.value().stats.rank_blocks_visited;
    const std::size_t row_order =
        RowOrderBlocksVisited(engine, want.question, r.value());
    RecordProperty(std::string("best_first_") + want.question,
                   std::to_string(best_first));
    RecordProperty(std::string("row_order_") + want.question,
                   std::to_string(row_order));
    EXPECT_EQ(best_first, want.best_first) << want.question;
    EXPECT_EQ(row_order, want.row_order) << want.question;
  }
}

// ------------------------------------- N-1 candidate dedup over bitmaps

constexpr std::size_t kMixedFleetRows = 18000;  // 17 full blocks + 592 rows

/// The 18000-ad fleet of BitmapDedupTest, one record per row id: honda
/// civic on even ids, toyota camry on odd ones, prices rising with the id
/// (so Num_Sim block bounds prune), five colors, one manual in three, one
/// 2-door in 32. 18000 is not a multiple of 1024, so block 17 holds
/// base rows 17408..17999 and the first delta rows.
std::vector<db::Record> MixedBlockFleetRecords() {
  static constexpr const char* kColors[] = {"blue", "red", "white", "black",
                                            "silver"};
  std::vector<db::Record> records;
  for (std::size_t i = 0; i < kMixedFleetRows; ++i) {
    const bool honda = i % 2 == 0;
    records.push_back(CarRecord(
        honda ? "honda" : "toyota", honda ? "civic" : "camry",
        2000 + static_cast<double>(i % 11), 2000.0 + 2.5 * static_cast<double>(i),
        static_cast<double>(10 + i % 170) * 1000.0, kColors[i % 5],
        i % 3 == 0 ? "manual" : "automatic", i % 32 == 0 ? "2 door" : "4 door",
        "2 wheel drive", i % 7 == 0 ? "gps;leather seats" : "cd player"));
  }
  return records;
}

/// Ingested after the base fleet, in this order: global ids 18000.. . Each
/// lands in a different N-1 pass of the questions below; 18005 is retired.
std::vector<db::Record> MixedBlockDeltaRecords() {
  return {
      CarRecord("honda", "civic", 2008, 2450, 50000, "blue", "automatic",
                "4 door", "2 wheel drive", "cd player"),
      CarRecord("honda", "civic", 2008, 2300, 50000, "red", "automatic",
                "4 door", "2 wheel drive", "cd player"),
      CarRecord("honda", "civic", 2008, 30000, 50000, "blue", "automatic",
                "4 door", "2 wheel drive", "cd player"),
      CarRecord("toyota", "camry", 2008, 2100, 50000, "blue", "automatic",
                "4 door", "2 wheel drive", "cd player"),
      CarRecord("honda", "civic", 2008, 2200, 50000, "blue", "manual",
                "4 door", "2 wheel drive", "cd player"),
      CarRecord("honda", "civic", 2008, 2400, 50000, "blue", "automatic",
                "4 door", "2 wheel drive", "cd player"),
      CarRecord("honda", "civic", 2008, 2000, 50000, "red", "automatic",
                "2 door", "2 wheel drive", "cd player"),
  };
}

/// N-1 candidates reach the rank sweep as per-pass row bitmaps, deduped
/// against the rows already answered block by block. These questions make
/// every pass overlap (each holds the exact answers), give passes large
/// enough for block bounds (4-unit question: ~1200 rows when price drops)
/// and for the 4-worker fan-out (3-unit question: ~8400 rows), and put
/// candidates on both sides of the base/delta boundary inside block 17.
class BitmapDedupTest : public ::testing::Test {
 protected:
  static constexpr const char* kQuestions[] = {
      "blue honda civic automatic under 2500 dollars",
      "honda civic 4 door under 2100 dollars",
      "2250 dollars",
  };

  BitmapDedupTest() : table_(testing::MiniCarSchema()) {
    for (auto& r : MixedBlockFleetRecords()) {
      EXPECT_TRUE(table_.Insert(std::move(r)).ok());
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }

  /// Ingests MixedBlockDeltaRecords and retires delta row 18005 plus base
  /// rows 4 (a drop-color candidate), 10 (an exact answer) and 17990 (a
  /// drop-price candidate in the mixed block).
  void GrowDelta() {
    for (auto& r : MixedBlockDeltaRecords()) {
      auto id = engine_.IngestAd("cars", std::move(r));
      ASSERT_TRUE(id.ok()) << id.status();
    }
    for (RowId row : {RowId{18005}, RowId{4}, RowId{10}, RowId{17990}}) {
      ASSERT_TRUE(engine_.RetireAd("cars", row).ok()) << row;
    }
  }

  std::vector<datagen::GeneratedQuestion> Questions() const {
    std::vector<datagen::GeneratedQuestion> out;
    for (const char* q : kQuestions) {
      datagen::GeneratedQuestion g;
      g.text = q;
      out.push_back(std::move(g));
    }
    return out;
  }

  /// Byte parity against the serial full-sort oracle, serially and on a
  /// 4-worker runner.
  void ExpectParity(const char* label) {
    serve::WorkerPool pool(4);
    core::EngineOptions parallel_on;
    parallel_on.exec_runner = &pool;
    parallel_on.exec_parallelism = 4;
    core::EngineOptions off;
    off.use_topk_rank = false;
    ExpectAskParity(engine_, "cars", Questions(), core::EngineOptions(), off,
                    (std::string(label) + " serial").c_str());
    ExpectAskParity(engine_, "cars", Questions(), parallel_on, off,
                    (std::string(label) + " parallel").c_str());
  }

  /// Every partial answer carries the measure of the FIRST N-1 pass (in
  /// unit order) whose relaxed conjunction holds on its record; rows in
  /// more than one pass (the exact answers here) never rank as partials.
  /// `records` holds every row by global id, retired ones included.
  void ExpectFirstPassLabels(const std::string& question,
                             const std::vector<db::Record>& records) {
    db::Table all(testing::MiniCarSchema());
    for (const auto& r : records) ASSERT_TRUE(all.Insert(r).ok());
    const db::Executor check(&all);
    auto parsed = engine_.Parse("cars", question);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto& assembled = parsed.value().assembled;
    const auto& units = assembled.units;
    ASSERT_GE(units.size(), 2u) << question;
    std::vector<db::ExprPtr> relaxed;
    for (std::size_t u = 0; u < units.size(); ++u) {
      std::vector<db::ExprPtr> parts;
      for (std::size_t v = 0; v < units.size(); ++v) {
        if (v != u) parts.push_back(units[v].expr);
      }
      for (const auto& f : assembled.fixed) parts.push_back(f);
      relaxed.push_back(db::Expr::MakeAnd(parts));
    }
    const auto snapshot = engine_.snapshot();
    const core::DomainRuntime* rt = snapshot->runtime("cars");
    const core::SimScorer labels(rt->table->schema(), units,
                                 snapshot->MakeSimilarityContext(*rt));

    auto r = engine_.AskInDomain("cars", question);
    ASSERT_TRUE(r.ok()) << question;
    std::size_t partials = 0, overlapping = 0;
    for (const auto& a : r.value().answers) {
      std::size_t passes = 0;
      std::size_t first = units.size();
      for (std::size_t u = 0; u < units.size(); ++u) {
        if (check.MatchesExpr(a.row, *relaxed[u])) {
          ++passes;
          if (first == units.size()) first = u;
        }
      }
      if (passes > 1) ++overlapping;
      if (a.exact) continue;
      ++partials;
      EXPECT_EQ(passes, 1u) << question << " row " << a.row;
      ASSERT_LT(first, units.size()) << question << " row " << a.row;
      EXPECT_EQ(a.measure, labels.unit_measure(first))
          << question << " row " << a.row;
    }
    EXPECT_GT(partials, 0u) << question;
    EXPECT_GT(overlapping, 0u) << question;
  }

  struct Counters {
    std::size_t blocks_visited, blocks_skipped, rows_pruned, rows_visited;
  };

  /// Serial counters are deterministic; pinned per question (values of
  /// the row-at-a-time dedup this path replaced).
  void ExpectCounters(const std::vector<Counters>& want, const char* label) {
    engine_.SetOptions(core::EngineOptions());
    for (std::size_t i = 0; i < std::size(kQuestions); ++i) {
      auto r = engine_.AskInDomain("cars", kQuestions[i]);
      ASSERT_TRUE(r.ok()) << kQuestions[i];
      const db::ExecStats& st = r.value().stats;
      EXPECT_EQ(st.rank_blocks_visited, want[i].blocks_visited)
          << label << " " << kQuestions[i];
      EXPECT_EQ(st.rank_blocks_skipped, want[i].blocks_skipped)
          << label << " " << kQuestions[i];
      EXPECT_EQ(st.rank_rows_pruned, want[i].rows_pruned)
          << label << " " << kQuestions[i];
      EXPECT_EQ(st.rows_visited, want[i].rows_visited)
          << label << " " << kQuestions[i];
    }
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(BitmapDedupTest, BaseOnlyParityLabelsAndCounters) {
  ExpectParity("base");
  const std::vector<db::Record> records = MixedBlockFleetRecords();
  ExpectFirstPassLabels(kQuestions[0], records);
  ExpectFirstPassLabels(kQuestions[1], records);
  ExpectCounters({{4, 17, 1132, 36200}, {3, 17, 7957, 27040},
                  {1, 17, 16976, 0}},
                 "base");
}

TEST_F(BitmapDedupTest, LiveDeltaAndRetiredRowsShareTheMixedBlock) {
  GrowDelta();
  ExpectParity("delta");
  std::vector<db::Record> records = MixedBlockFleetRecords();
  for (auto& r : MixedBlockDeltaRecords()) records.push_back(std::move(r));
  ExpectFirstPassLabels(kQuestions[0], records);
  ExpectFirstPassLabels(kQuestions[1], records);
  ExpectCounters({{4, 17, 1131, 36200}, {3, 17, 7956, 27040},
                  {1, 17, 16976, 0}},
                 "delta");
  // Retired rows never answer.
  for (const char* q : kQuestions) {
    auto r = engine_.AskInDomain("cars", q);
    ASSERT_TRUE(r.ok()) << q;
    for (const auto& a : r.value().answers) {
      EXPECT_NE(a.row, 18005u) << q;
      EXPECT_NE(a.row, 4u) << q;
      EXPECT_NE(a.row, 10u) << q;
      EXPECT_NE(a.row, 17990u) << q;
    }
  }
}

// ------------------------------- candidate-proportional sweep edge cases

/// An engine over `records` (MiniCar schema, one record per row id).
class FleetEngine {
 public:
  explicit FleetEngine(std::vector<db::Record> records)
      : table_(testing::MiniCarSchema()) {
    for (auto& r : records) EXPECT_TRUE(table_.Insert(std::move(r)).ok());
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }
  core::CqadsEngine& engine() { return engine_; }

  core::AskResult Ask(const std::string& question) {
    auto r = engine_.AskInDomain("cars", question);
    EXPECT_TRUE(r.ok()) << question << ": " << r.status();
    return r.ok() ? std::move(r).value() : core::AskResult();
  }

  /// Byte parity of `on` (serially, and on a 4-worker runner) against the
  /// full-sort oracle under the same answer_cap / partial_trigger.
  void ExpectParity(const std::vector<std::string>& questions,
                    core::EngineOptions on, const char* label) {
    std::vector<datagen::GeneratedQuestion> generated;
    for (const auto& q : questions) {
      datagen::GeneratedQuestion g;
      g.text = q;
      generated.push_back(std::move(g));
    }
    core::EngineOptions off = on;
    off.use_topk_rank = false;
    ExpectAskParity(engine_, "cars", generated, on, off,
                    (std::string(label) + " serial").c_str());
    serve::WorkerPool pool(4);
    core::EngineOptions parallel_on = on;
    parallel_on.exec_runner = &pool;
    parallel_on.exec_parallelism = 4;
    ExpectAskParity(engine_, "cars", generated, parallel_on, off,
                    (std::string(label) + " parallel").c_str());
  }

 private:
  db::Table table_;
  core::CqadsEngine engine_;
};

/// 3072 rows, three rank blocks, for "9000 dollars" (no exact answers,
/// k = 30). Block 1 holds the single best price (9050, row 1024) and
/// otherwise 9100 everywhere, so it has the best bound and is visited
/// first: its 1024 candidates reach the heap as one batch. Block 0 holds
/// 9100 on even rows; its bound equals the threshold that block 1 leaves
/// (the score of 9100), so it is visited too, and its smaller row ids
/// must displace block 1's tied rows. Block 2 is far off and skipped.
std::vector<db::Record> ThresholdTieFleet() {
  std::vector<db::Record> records;
  for (std::size_t i = 0; i < 3072; ++i) {
    double price = 60000.0 + static_cast<double>(i);
    if (i < 1024 && i % 2 == 0) price = 9100;
    if (i >= 1024 && i < 2048) price = i == 1024 ? 9050 : 9100;
    records.push_back(CarRecord(i % 2 == 0 ? "honda" : "toyota",
                                i % 2 == 0 ? "civic" : "camry", 2005, price,
                                50000, "blue", "automatic", "4 door",
                                "2 wheel drive", "cd player"));
  }
  return records;
}

TEST(CandidateSweepTest, TiesAtTheThresholdAcrossOneBlockKeepSmallerRows) {
  FleetEngine fleet(ThresholdTieFleet());
  const core::AskResult r = fleet.Ask("9000 dollars");
  ASSERT_EQ(r.exact_count, 0u);
  ASSERT_EQ(r.answers.size(), 30u);
  // The best score first, then the 29 smallest rows among the 9100 ties:
  // all from block 0, although block 1 filled the heap before it.
  EXPECT_EQ(r.answers[0].row, 1024u);
  for (std::size_t i = 1; i < r.answers.size(); ++i) {
    EXPECT_EQ(r.answers[i].row, static_cast<RowId>(2 * (i - 1))) << i;
    EXPECT_EQ(r.answers[i].rank_sim, r.answers[1].rank_sim) << i;
  }
  EXPECT_EQ(r.stats.rank_blocks_visited, 2u);
  EXPECT_EQ(r.stats.rank_blocks_skipped, 1u);
  EXPECT_EQ(r.stats.rank_rows_pruned, 1024u);
  fleet.ExpectParity({"9000 dollars", "9100 dollars", "honda 9000 dollars"},
                     core::EngineOptions(), "tie");
}

/// 4000 rows: honda civic only on rows 1500..2599, so the drop-price pass
/// of "honda civic ..." spans a word-unaligned sub-range across the block
/// 1/2 boundary; prices rise with the row id, colors cycle over five.
std::vector<db::Record> SubRangeFleet() {
  static constexpr const char* kColors[] = {"blue", "red", "white", "black",
                                            "silver"};
  std::vector<db::Record> records;
  for (std::size_t i = 0; i < 4000; ++i) {
    const bool civic = i >= 1500 && i < 2600;
    records.push_back(CarRecord(
        civic ? "honda" : "toyota", civic ? "civic" : "camry",
        2000 + static_cast<double>(i % 11),
        2000.0 + 2.5 * static_cast<double>(i),
        static_cast<double>(10 + i % 170) * 1000.0, kColors[i % 5],
        i % 3 == 0 ? "manual" : "automatic", "4 door", "2 wheel drive",
        "cd player"));
  }
  return records;
}

// A pass covering only part of the table is deduped and cut into runs over
// its own words. Here the honda civic pass spans rows 1500..2599 while the
// blue / cheap pass reaches rows on both sides of it, and the exact answers
// are the few rows every pass shares; later, delta rows past base_rows join
// the passes and some base rows in the span are retired.
TEST(CandidateSweepTest, SubRangePassesAndDeltaRowsPastBaseRows) {
  FleetEngine fleet(SubRangeFleet());
  const std::vector<std::string> questions = {
      "blue honda civic under 6000 dollars",
      "honda civic 5000 dollars",
      "honda civic manual under 5800 dollars",
  };
  for (const auto& q : questions) {
    const core::AskResult r = fleet.Ask(q);
    EXPECT_GT(r.answers.size(), r.exact_count) << q;  // partials ranked
  }
  EXPECT_GT(fleet.Ask(questions[0]).exact_count, 0u);
  fleet.ExpectParity(questions, core::EngineOptions(), "sub-range base");

  auto& engine = fleet.engine();
  for (double price : {3000.0, 5100.0, 5900.0}) {
    ASSERT_TRUE(engine
                    .IngestAd("cars", CarRecord("honda", "civic", 2008, price,
                                                50000, "blue", "manual",
                                                "4 door", "2 wheel drive",
                                                "cd player"))
                    .ok());
  }
  ASSERT_TRUE(engine
                  .IngestAd("cars", CarRecord("toyota", "camry", 2008, 4000,
                                              50000, "blue", "automatic",
                                              "4 door", "2 wheel drive",
                                              "cd player"))
                  .ok());
  for (RowId row : {RowId{1500}, RowId{1505}, RowId{2599}}) {
    ASSERT_TRUE(engine.RetireAd("cars", row).ok()) << row;
  }
  fleet.ExpectParity(questions, core::EngineOptions(), "sub-range delta");
  bool delta_ranked = false;
  for (const auto& q : questions) {
    for (const auto& a : fleet.Ask(q).answers) {
      EXPECT_NE(a.row, 1500u) << q;
      EXPECT_NE(a.row, 1505u) << q;
      EXPECT_NE(a.row, 2599u) << q;
      delta_ranked = delta_ranked || (!a.exact && a.row >= 4000);
    }
  }
  EXPECT_TRUE(delta_ranked);
}

// answer_cap below partial_trigger: a question whose exact answers fill the
// cap still reaches the rank stage, with k = 0. Every prunable run is
// skipped (the threshold is +inf) and nothing ranks, as in the oracle.
TEST(CandidateSweepTest, ZeroPartialSlotsRankNothing) {
  FleetEngine fleet(SubRangeFleet());
  core::EngineOptions options;
  options.answer_cap = 3;
  options.partial_trigger = 10;
  const std::vector<std::string> questions = {
      "blue honda civic under 6000 dollars",
      "honda civic 5000 dollars",
      "blue honda civic",
      "2250 dollars",
  };
  fleet.engine().SetOptions(options);
  std::size_t zero_k = 0;
  for (const auto& q : questions) {
    const core::AskResult r = fleet.Ask(q);
    EXPECT_LE(r.answers.size(), 3u) << q;
    if (r.exact_count == 3) {
      ++zero_k;
      EXPECT_EQ(r.answers.size(), 3u) << q;
      EXPECT_EQ(r.stats.rank_threshold_updates, 0u) << q;
    }
  }
  EXPECT_GT(zero_k, 0u);
  fleet.ExpectParity(questions, options, "k = 0");
}

// A composite identity unit (make + model read together) has no block
// bounds, so the serial loop walks every run in block order and skips
// none — for the single-condition sweep and for the N-1 pass that drops
// that unit alike.
TEST(CandidateSweepTest, UnprunableUnitVisitsEveryRunOnTheSerialLoop) {
  FleetEngine fleet(SubRangeFleet());
  // Single condition: the whole-table sweep, four runs.
  const core::AskResult single = fleet.Ask("toyota civic");
  EXPECT_EQ(single.exact_count, 0u);
  EXPECT_EQ(single.stats.rank_blocks_visited, 4u);  // ceil(4000 / 1024)
  EXPECT_EQ(single.stats.rank_blocks_skipped, 0u);
  // N-1: dropping make + model leaves "under 9000 dollars", rows 0..2799
  // in three runs, well past the size where bounds would be computed; the
  // drop-price pass (toyota civic) is empty.
  const core::AskResult relaxed = fleet.Ask("toyota civic under 9000 dollars");
  EXPECT_EQ(relaxed.exact_count, 0u);
  EXPECT_EQ(relaxed.answers.size(), 30u);
  EXPECT_EQ(relaxed.stats.rank_blocks_visited, 3u);
  EXPECT_EQ(relaxed.stats.rank_blocks_skipped, 0u);
  EXPECT_EQ(relaxed.stats.rank_rows_pruned, 0u);
  fleet.ExpectParity({"toyota civic", "toyota civic under 9000 dollars",
                      "honda camry under 9000 dollars",
                      "honda camry 3000 dollars"},
                     core::EngineOptions(), "unprunable");
}

// ------------------------------------------- parallel sweeps (big domain)

class BigDomainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One domain, enough rows that the rank sweeps clear
    // kMinRowsForParallelExec and actually fan out on the runner.
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 9000;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars"};
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* BigDomainTest::world_ = nullptr;

TEST_F(BigDomainTest, MorselParallelRankMatchesSerialOracle) {
  const auto* spec = world_->spec("cars");
  ASSERT_NE(spec, nullptr);
  Rng rng(321);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 25, datagen::QuestionGenOptions(), &rng);

  serve::WorkerPool pool(4);
  core::EngineOptions parallel_on;
  parallel_on.exec_runner = &pool;
  parallel_on.exec_parallelism = 4;
  core::EngineOptions serial_off;
  serial_off.use_topk_rank = false;
  ExpectAskParity(world_->mutable_engine(), "cars", questions, parallel_on,
                  serial_off, "parallel");
}

// The CI TSan leg: morsel-parallel pruned ranking racing ingest, retire,
// compaction, and snapshot swaps. Each request pins its snapshot, per-worker
// scorer slots keep SimScorer single-threaded, and the shared threshold is
// the only cross-worker rank state — nothing may race.
TEST_F(BigDomainTest, ParallelRankSurvivesConcurrentMutation) {
  auto& engine = world_->mutable_engine();
  serve::WorkerPool exec_pool(3);
  core::EngineOptions options;
  options.exec_runner = &exec_pool;
  options.exec_parallelism = 3;
  engine.SetOptions(options);

  const auto* spec = world_->spec("cars");
  Rng rng(654);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 12, datagen::QuestionGenOptions(), &rng);

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    const db::Record seed_record = world_->table("cars")->row(0);
    int iteration = 0;
    while (!stop_writer.load()) {
      auto id = engine.IngestAd("cars", seed_record);
      if (id.ok() && iteration % 2 == 0) {
        (void)engine.RetireAd("cars", id.value());
      }
      if (++iteration % 4 == 0) (void)engine.CompactDomain("cars");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  serve::ConcurrentServer::Options server_options;
  server_options.num_workers = 3;
  serve::ConcurrentServer server(&engine, server_options);
  std::atomic<int> done{0};
  std::atomic<int> errors{0};
  constexpr int kAsks = 60;
  for (int i = 0; i < kAsks; ++i) {
    server.AskAsyncInDomain("cars", questions[i % questions.size()].text,
                            Deadline::Infinite(),
                            [&](Result<core::AskResult> r) {
                              if (!r.ok()) errors.fetch_add(1);
                              done.fetch_add(1);
                            });
  }
  const auto timeout =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (done.load() < kAsks &&
         std::chrono::steady_clock::now() < timeout) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_writer.store(true);
  writer.join();
  ASSERT_EQ(done.load(), kAsks);
  EXPECT_EQ(errors.load(), 0);
  engine.SetOptions(core::EngineOptions());
}

// -------------------------------------- degraded sweeps + server counters

TEST_F(BigDomainTest, DeadlinedSweepsDegradeOrExpireNeverError) {
  auto& engine = world_->mutable_engine();
  engine.SetOptions(core::EngineOptions());
  const auto* spec = world_->spec("cars");
  Rng rng(987);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 20, datagen::QuestionGenOptions(), &rng);

  serve::ConcurrentServer server(&engine);
  std::size_t issued = 0;
  for (const auto budget :
       {std::chrono::microseconds(0), std::chrono::microseconds(80),
        std::chrono::microseconds(400), std::chrono::microseconds(5000)}) {
    for (const auto& q : questions) {
      auto r = server.AskInDomain("cars", q.text, Deadline::After(budget));
      ++issued;
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << q.text;
      } else if (!r.value().degraded) {
        // Fully answered despite the budget: the answer must obey the cap.
        EXPECT_LE(r.value().answers.size(),
                  static_cast<std::size_t>(core::EngineOptions().answer_cap));
      }
    }
  }
  const auto s = server.stats();
  EXPECT_EQ(s.answered + s.degraded + s.deadline_exceeded + s.errors, issued);
  EXPECT_EQ(s.errors, 0u);

  // Rank work surfaced through StatsJson (the fleet-scrape satellite):
  // the keys exist and the visited counter reflects the ranking above.
  const std::string json = server.StatsJson();
  EXPECT_NE(json.find("\"rank_blocks_visited\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_blocks_skipped\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_rows_pruned\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_threshold_updates\""), std::string::npos)
      << json;
  EXPECT_EQ(s.rank_blocks_visited > 0,
            json.find("\"rank_blocks_visited\":0") == std::string::npos);
}

}  // namespace
}  // namespace cqads
