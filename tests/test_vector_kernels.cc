// The vectorized execution path: every SIMD selection kernel differentially
// tested against the scalar oracle on adversarial inputs (all-null columns,
// kNullCode runs, non-multiple-of-64 tails, empty selections, single-row
// tables), BlockPredicate's per-row code-table test vs
// CompiledPredicate::Matches, FilterNode's row-list path on both sides of
// its table threshold, LazyRowSet algebra vs sorted-vector set semantics,
// plan-level vectorize-on/off row-set identity on the 120-ad worlds and on
// a 3000-row table, SimScorer::ScoreBlock vs per-row
// Score, and engine-level byte-parity of the whole ask path with
// use_vector_kernels on vs off across all eight datagen domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "db/exec/plan.h"
#include "db/exec/planner.h"
#include "db/exec/rowset_ops.h"
#include "db/exec/vector_kernels.h"
#include "db/executor.h"
#include "db/storage/column_store.h"
#include "db/table.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

using db::CompareOp;
using db::ColumnStore;
using db::RowId;
using db::RowSet;
using db::exec::CodeEqMask;
using db::exec::CodeTableMask;
using db::exec::EmitRows;
using db::exec::kBlockRows;
using db::exec::LazyRowSet;
using db::exec::NumericCompareMask;
using db::exec::RowBitmap;
using db::exec::SelMask;
using db::exec::SimdLevel;

// Every dispatch tier this build + CPU can actually run (SetSimdOverride
// clamps requests above the CPU's capability, so asking for each tier and
// reading back what stuck enumerates them). Always contains kScalar.
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel want :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    db::exec::SetSimdOverride(want);
    if (db::exec::ActiveSimdLevel() == want) levels.push_back(want);
  }
  db::exec::ClearSimdOverride();
  return levels;
}

const char* LevelName(SimdLevel l) {
  switch (l) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "?";
}

bool MaskBit(const SelMask& mask, std::size_t i) {
  return (mask.words[i / 64] >> (i % 64)) & 1u;
}

// The row-wise contract each kernel must implement, restated independently
// of the kernel code (db/compare.h's null rule: only kNe matches NULL).
bool OracleNumeric(double v, bool is_null, CompareOp op, double lo,
                   double hi) {
  if (is_null) return op == CompareOp::kNe;
  switch (op) {
    case CompareOp::kEq:
      return v == lo;
    case CompareOp::kNe:
      return v != lo;
    case CompareOp::kLt:
      return v < lo;
    case CompareOp::kLe:
      return v <= lo;
    case CompareOp::kGt:
      return v > lo;
    case CompareOp::kGe:
      return v >= lo;
    case CompareOp::kBetween:
      return v >= lo && v <= hi;
    case CompareOp::kContains:
      return false;
  }
  return false;
}

TEST(SimdDispatchTest, OverrideClampsAndRestores) {
  const SimdLevel detected = db::exec::ActiveSimdLevel();
  db::exec::SetSimdOverride(SimdLevel::kScalar);
  EXPECT_EQ(db::exec::ActiveSimdLevel(), SimdLevel::kScalar);
  // Requests above the CPU's capability clamp to what it can run.
  db::exec::SetSimdOverride(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(detected),
            static_cast<int>(db::exec::ActiveSimdLevel()));
  db::exec::ClearSimdOverride();
  EXPECT_EQ(db::exec::ActiveSimdLevel(), detected);
}

// Block sizes that exercise empty selections, single rows, word
// boundaries, sub-word tails, and full blocks.
const std::size_t kAdversarialSizes[] = {0, 1, 2, 63, 64, 65, 127,
                                         128, 500, 1000, 1023, 1024};

TEST(NumericCompareMaskTest, AllTiersMatchOracle) {
  std::mt19937_64 rng(20260808);
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  // Small value pool so equality boundaries actually fire.
  const double pool[] = {-kInf, -7.5, -0.0, 0.0,  1.0,
                         2.5,   7.5,  42.0, kInf, 5e-324};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                           CompareOp::kBetween, CompareOp::kContains};

  for (SimdLevel level : TestableLevels()) {
    db::exec::SetSimdOverride(level);
    for (std::size_t n : kAdversarialSizes) {
      // Three null shapes: no-null (bitmap pointer omitted), mixed,
      // all-null.
      for (int shape = 0; shape < 3; ++shape) {
        std::vector<double> packed(n, 0.0);
        std::vector<std::uint64_t> nulls((n + 63) / 64, 0);
        std::vector<bool> is_null(n, false);
        for (std::size_t i = 0; i < n; ++i) {
          const bool null_row =
              shape == 2 || (shape == 1 && rng() % 4 == 0);
          if (null_row) {
            is_null[i] = true;
            nulls[i / 64] |= std::uint64_t{1} << (i % 64);
            packed[i] = kNan;
          } else {
            packed[i] = pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
          }
        }
        for (CompareOp op : ops) {
          const double lo = pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
          const double hi = lo + 5.0;
          SelMask mask;
          NumericCompareMask(packed.data(),
                             shape == 0 ? nullptr : nulls.data(), op, lo, hi,
                             /*base=*/0, n, &mask);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(MaskBit(mask, i),
                      OracleNumeric(packed[i], is_null[i], op, lo, hi))
                << LevelName(level) << " n=" << n << " shape=" << shape
                << " op=" << static_cast<int>(op) << " row=" << i
                << " v=" << packed[i];
          }
          for (std::size_t i = n; i < kBlockRows; ++i) {
            ASSERT_FALSE(MaskBit(mask, i)) << "tail bit " << i << " set";
          }
        }
      }
    }
  }
  db::exec::ClearSimdOverride();
}

TEST(CodeEqMaskTest, AllTiersMatchOracle) {
  std::mt19937_64 rng(424243);
  for (SimdLevel level : TestableLevels()) {
    db::exec::SetSimdOverride(level);
    for (std::size_t n : kAdversarialSizes) {
      for (int shape = 0; shape < 3; ++shape) {
        std::vector<std::uint32_t> codes(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          if (shape == 2 || (shape == 1 && rng() % 3 == 0)) {
            codes[i] = ColumnStore::kNullCode;  // runs of NULL under shape 2
          } else {
            codes[i] = static_cast<std::uint32_t>(rng() % 5);
          }
        }
        const std::uint32_t target = static_cast<std::uint32_t>(rng() % 5);
        for (bool negate : {false, true}) {
          for (bool null_matches : {false, true}) {
            SelMask mask;
            CodeEqMask(codes.data(), target, negate, null_matches,
                       /*base=*/0, n, &mask);
            for (std::size_t i = 0; i < n; ++i) {
              const bool expect =
                  codes[i] == ColumnStore::kNullCode
                      ? null_matches
                      : (codes[i] == target) != negate;
              ASSERT_EQ(MaskBit(mask, i), expect)
                  << LevelName(level) << " n=" << n << " row=" << i;
            }
            for (std::size_t i = n; i < kBlockRows; ++i) {
              ASSERT_FALSE(MaskBit(mask, i));
            }
          }
        }
      }
    }
  }
  db::exec::ClearSimdOverride();
}

TEST(CodeTableMaskTest, MatchesOracleIncludingOutOfTableCodes) {
  std::mt19937_64 rng(7);
  for (SimdLevel level : TestableLevels()) {
    db::exec::SetSimdOverride(level);
    for (std::size_t n : kAdversarialSizes) {
      const std::uint32_t table_size = 6;
      std::vector<std::uint8_t> table(table_size);
      for (auto& b : table) b = rng() % 2;
      std::vector<std::uint32_t> codes(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = rng() % 10;
        // Codes beyond table_size (a fresher dictionary than the table)
        // must test as no-match before negation.
        codes[i] = r < 2 ? ColumnStore::kNullCode
                         : static_cast<std::uint32_t>(rng() % (table_size + 3));
      }
      for (bool negate : {false, true}) {
        for (bool null_matches : {false, true}) {
          SelMask mask;
          CodeTableMask(codes.data(), table.data(), table_size, negate,
                        null_matches, /*base=*/0, n, &mask);
          for (std::size_t i = 0; i < n; ++i) {
            const bool hit =
                codes[i] < table_size && table[codes[i]] != 0;
            const bool expect = codes[i] == ColumnStore::kNullCode
                                    ? null_matches
                                    : hit != negate;
            ASSERT_EQ(MaskBit(mask, i), expect)
                << LevelName(level) << " n=" << n << " row=" << i;
            // The single-row rule BlockPredicate::Test uses is the
            // kernel's own, out-of-table codes included.
            ASSERT_EQ(db::exec::CodeTableRowMatch(codes[i], table.data(),
                                                  table_size, negate,
                                                  null_matches),
                      expect)
                << "row rule, code " << codes[i];
          }
        }
      }
    }
  }
  db::exec::ClearSimdOverride();
}

// ---- BlockPredicate::Test and FilterNode's row-list path -------------------

using db::Predicate;
using db::Value;
using db::exec::BlockPredicate;
using db::exec::CompiledPredicate;

/// MiniCar-schema rows with every cell shape the residual filters meet:
/// NULL text and numeric cells, multi-element TextList features, doors and
/// transmissions stored in full form (shorthand needles "4dr", "auto"),
/// and prices with cents ("8900.5" renders as one canonical text).
db::Table CellShapesTable(std::size_t rows, std::uint64_t seed) {
  static constexpr const char* kMakes[] = {"honda", "toyota", "ford",
                                           "chevy", "bmw"};
  static constexpr const char* kColors[] = {"blue", "red", "white", "black",
                                            "light blue"};
  static constexpr const char* kFeatures[] = {
      "cd player", "gps;leather seats", "cd player;gps;sunroof",
      "power steering;cd player", "sunroof"};
  static constexpr double kPrices[] = {8900.5, 8900.0, 12000.0, 500.25,
                                       18900.5, 7000.0};
  std::mt19937_64 rng(seed);
  db::Table table(testing::MiniCarSchema());
  auto maybe_null = [&](Value v, int one_in) {
    return rng() % one_in == 0 ? Value::Null() : std::move(v);
  };
  for (std::size_t i = 0; i < rows; ++i) {
    db::Record r;
    r.push_back(Value::Text(kMakes[rng() % 5]));
    r.push_back(Value::Text(rng() % 2 == 0 ? "civic" : "camry"));
    r.push_back(Value::Real(2000.0 + static_cast<double>(rng() % 12)));
    r.push_back(maybe_null(Value::Real(kPrices[rng() % 6]), 7));
    r.push_back(Value::Real(static_cast<double>(rng() % 200) * 1000.0));
    r.push_back(maybe_null(Value::Text(kColors[rng() % 5]), 6));
    r.push_back(maybe_null(
        Value::Text(rng() % 3 == 0 ? "manual" : "automatic"), 9));
    r.push_back(maybe_null(
        Value::Text(rng() % 4 == 0 ? "2 door" : "4 door"), 8));
    r.push_back(Value::Text(rng() % 5 == 0 ? "4 wheel drive"
                                           : "2 wheel drive"));
    r.push_back(maybe_null(Value::Text(kFeatures[rng() % 5]), 10));
    EXPECT_TRUE(table.Insert(std::move(r)).ok());
  }
  table.BuildIndexes();
  return table;
}

Predicate Pred(std::size_t attr, CompareOp op, Value v,
               Value hi = Value::Null(), bool shorthand = true) {
  Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = std::move(v);
  p.value_hi = std::move(hi);
  p.allow_shorthand = shorthand;
  return p;
}

/// Residuals over every column shape and every op the filters compile.
/// Attributes: 3 price, 5 color, 6 transmission, 7 doors, 9 features.
std::vector<Predicate> ResidualPredicates() {
  using V = Value;
  return {
      Pred(5, CompareOp::kEq, V::Text("blue")),
      Pred(5, CompareOp::kNe, V::Text("blue")),
      Pred(5, CompareOp::kContains, V::Text("blue")),
      Pred(5, CompareOp::kEq, V::Text("purple")),  // no dictionary hit
      Pred(5, CompareOp::kNe, V::Text("purple")),
      Pred(5, CompareOp::kLt, V::Text("blue")),    // range op on text
      Pred(9, CompareOp::kEq, V::Text("gps")),     // TextList element
      Pred(9, CompareOp::kNe, V::Text("cd player")),
      Pred(9, CompareOp::kContains, V::Text("roof")),
      Pred(7, CompareOp::kEq, V::Text("4dr")),     // shorthand key
      Pred(7, CompareOp::kNe, V::Text("4dr")),
      Pred(7, CompareOp::kEq, V::Text("4dr"), V::Null(), false),
      Pred(6, CompareOp::kEq, V::Text("auto")),
      Pred(3, CompareOp::kEq, V::Real(8900.5)),
      Pred(3, CompareOp::kNe, V::Real(8900.5)),
      Pred(3, CompareOp::kLt, V::Real(9000.0)),
      Pred(3, CompareOp::kBetween, V::Real(8000.0), V::Real(13000.0)),
      Pred(3, CompareOp::kContains, V::Text("8900.5")),  // numeric contains
      Pred(3, CompareOp::kContains, V::Text("00")),
  };
}

TEST(BlockPredicateTest, RowTestAgreesWithMatchesRowForRow) {
  const db::Table table = CellShapesTable(700, 31);
  const ColumnStore& store = table.store();
  const std::vector<Predicate> preds = ResidualPredicates();
  std::size_t mixed = 0;  // predicates keeping some rows but not all
  for (const Predicate& p : preds) {
    const CompiledPredicate cp = db::exec::CompilePredicate(table, p);
    const BlockPredicate bp(store, cp);
    const std::string label = "attr " + std::to_string(p.attr) + " op " +
                              std::to_string(static_cast<int>(p.op)) + " '" +
                              p.value.ToSqlLiteral() + "'";
    std::size_t hits = 0, null_rows = 0;
    SelMask mask;
    for (std::size_t base = 0; base < table.num_rows(); base += kBlockRows) {
      const std::size_t n = std::min(kBlockRows, table.num_rows() - base);
      bp.EvalBlock(base, n, &mask);
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = static_cast<RowId>(base + i);
        const bool want = cp.Matches(store, row);
        ASSERT_EQ(bp.Test(row), want) << label << " row " << row;
        ASSERT_EQ(MaskBit(mask, i), want) << label << " row " << row;
        hits += want ? 1 : 0;
        null_rows += store.is_null(row, p.attr) ? 1 : 0;
      }
    }
    // Each column carries NULLs, so the NULL rule is exercised every time.
    EXPECT_GT(null_rows, 0u) << label;
    if (hits > 0 && hits < table.num_rows()) ++mixed;
  }
  // All but four keep some rows and drop others: "= 'purple'", the text
  // range op and "4dr" without shorthand match nothing, and "!= 'purple'"
  // matches every row, NULLs included.
  EXPECT_EQ(mixed, preds.size() - 4);
}

/// A plan leaf returning a fixed row list: feeds FilterNode's row-list
/// path a child of an exact size.
class FixedRowsNode : public db::exec::PlanNode {
 public:
  explicit FixedRowsNode(RowSet rows) : rows_(std::move(rows)) {}
  RowSet Execute(db::ExecStats* /*stats*/) const override { return rows_; }
  void Explain(std::string* out, int /*depth*/) const override {
    *out += "FixedRows\n";
  }

 private:
  RowSet rows_;
};

// The row-list path switches from Matches to the code table at a child of
// as many rows as the residual column has distinct cells. One below, at
// and one above that count (and for two-residual conjunctions, whose
// second residual sees only the first one's survivors) the filter returns
// exactly the rows Matches keeps.
TEST(FilterNodeRowListTest, TableThresholdKeepsTheMatchesRows) {
  const db::Table table = CellShapesTable(700, 32);
  const ColumnStore& store = table.store();
  const std::vector<Predicate> preds = ResidualPredicates();
  std::mt19937_64 rng(77);
  auto sample = [&](std::size_t k) {
    RowSet all(table.num_rows());
    for (RowId r = 0; r < all.size(); ++r) all[r] = r;
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(k);
    std::sort(all.begin(), all.end());
    return all;
  };
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const Predicate& p = preds[i];
    const Predicate& second = preds[(i + 7) % preds.size()];
    const std::size_t distinct = store.dictionary(p.attr).size();
    ASSERT_LT(distinct + 1, table.num_rows());
    for (std::size_t k : {distinct - 1, distinct, distinct + 1}) {
      for (bool conjunction : {false, true}) {
        const RowSet child = sample(k);
        std::vector<CompiledPredicate> residual = {
            db::exec::CompilePredicate(table, p)};
        if (conjunction) {
          residual.push_back(db::exec::CompilePredicate(table, second));
        }
        RowSet want;
        for (RowId r : child) {
          bool keep = true;
          for (const auto& cp : residual) keep = keep && cp.Matches(store, r);
          if (keep) want.push_back(r);
        }
        const db::exec::FilterNode node(
            &table, std::make_unique<FixedRowsNode>(child), residual);
        db::ExecStats lazy_stats, scalar_stats;
        EXPECT_EQ(node.ExecuteLazy(&lazy_stats).ToRows(), want)
            << "attr " << p.attr << " op " << static_cast<int>(p.op)
            << " k=" << k << " conjunction=" << conjunction;
        EXPECT_EQ(node.Execute(&scalar_stats), want);
        EXPECT_EQ(lazy_stats.rows_visited, k);
        EXPECT_EQ(lazy_stats.rows_verified, scalar_stats.rows_verified);
      }
    }
  }
}

// Plans over a 3000-row table (past two 1024-row blocks, so index-seeded
// filters hand FilterNode row lists far longer than any residual column's
// distinct cells) return the scalar path's rows and the seed executor's.
TEST(FilterNodeRowListTest, PlansOnA3000RowTableMatchScalarAndSeed) {
  const db::Table table = CellShapesTable(3000, 33);
  const db::exec::Planner planner(&table);
  const db::Executor seed(&table);
  const std::vector<Predicate> residuals = ResidualPredicates();
  const Predicate seeds[] = {
      Pred(0, CompareOp::kEq, Value::Text("honda")),
      Pred(1, CompareOp::kEq, Value::Text("civic")),
      Pred(7, CompareOp::kEq, Value::Text("2dr")),
  };
  std::size_t filters = 0;
  for (const Predicate& s : seeds) {
    for (std::size_t i = 0; i < residuals.size(); ++i) {
      db::Query q;
      q.limit = table.num_rows();
      q.where = db::Expr::MakeAnd(
          {db::Expr::MakePredicate(s), db::Expr::MakePredicate(residuals[i]),
           db::Expr::MakePredicate(
               residuals[(i + 5) % residuals.size()])});
      auto plan = planner.Compile(q);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const std::string explain = plan.value()->Explain();
      if (explain.find("Filter(") != std::string::npos) ++filters;
      db::ExecStats vs, ss;
      auto vec = plan.value()->ExecuteRowSet(&vs, /*vectorize=*/true);
      auto scalar = plan.value()->ExecuteRowSet(&ss, /*vectorize=*/false);
      auto want = seed.Execute(q);
      ASSERT_TRUE(vec.ok() && scalar.ok() && want.ok()) << explain;
      EXPECT_EQ(vec.value(), scalar.value()) << explain;
      EXPECT_EQ(vec.value(), want.value().rows) << explain;
    }
  }
  EXPECT_GT(filters, 0u);
}

TEST(EmitRowsTest, AscendingAndComplete) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    SelMask mask;
    mask.Clear();
    RowSet expect;
    const RowId base = static_cast<RowId>((rng() % 4) * kBlockRows);
    for (std::size_t i = 0; i < kBlockRows; ++i) {
      if (rng() % 5 == 0) {
        mask.words[i / 64] |= std::uint64_t{1} << (i % 64);
        expect.push_back(base + static_cast<RowId>(i));
      }
    }
    RowSet out;
    EXPECT_EQ(EmitRows(mask, base, &out), expect.size());
    EXPECT_EQ(out, expect);
    EXPECT_EQ(mask.Count(), expect.size());
    EXPECT_EQ(mask.AnySet(), !expect.empty());
  }
  SelMask empty;
  empty.Clear();
  RowSet out;
  EXPECT_EQ(EmitRows(empty, 0, &out), 0u);
  EXPECT_TRUE(out.empty());
}

// ---- LazyRowSet: bitmap/vector algebra == sorted-set semantics ------------

// FromSet stores whole words for aligned runs of 64 rows: runs one short,
// exact, one long, unaligned and split across words must all set exactly
// their own bits.
TEST(RowBitmapTest, FromSetRunsSetExactlyTheirRows) {
  std::mt19937_64 rng(640);
  const std::size_t universe = 64 * 40 + 17;
  for (int iter = 0; iter < 200; ++iter) {
    RowSet set;
    RowId r = static_cast<RowId>(rng() % 70);
    while (r < universe) {
      const std::size_t len =
          rng() % 3 == 0 ? 62 + rng() % 5 : rng() % 4;  // 62..66 or 0..3
      for (std::size_t k = 0; k < len && r < universe; ++k) set.push_back(r++);
      r += static_cast<RowId>(rng() % 3 == 0 ? 0 : 1 + rng() % 70);
    }
    set.erase(std::unique(set.begin(), set.end()), set.end());
    const RowBitmap bm = RowBitmap::FromSet(set, universe);
    EXPECT_EQ(bm.ToSet(), set) << "iter " << iter;
    EXPECT_EQ(bm.Count(), set.size());
  }
}

RowSet RandomSubset(std::mt19937_64& rng, std::size_t universe,
                    std::size_t density_divisor) {
  RowSet out;
  if (density_divisor == 0) return out;
  for (RowId r = 0; r < universe; ++r) {
    if (rng() % density_divisor == 0) out.push_back(r);
  }
  return out;
}

LazyRowSet MakeLazy(const RowSet& rows, std::size_t universe, bool dense) {
  if (dense) {
    return LazyRowSet::FromBitmap(RowBitmap::FromSet(rows, universe));
  }
  return LazyRowSet::FromRows(rows);
}

TEST(LazyRowSetTest, AlgebraMatchesSetSemanticsInEveryRepresentation) {
  std::mt19937_64 rng(4242);
  for (std::size_t universe : {std::size_t{1}, std::size_t{64},
                               std::size_t{100}, std::size_t{3000}}) {
    // Densities from near-empty to near-full so both the sparse merge and
    // the word-parallel path run, whatever representation came in.
    for (std::size_t div_a : {std::size_t{1}, std::size_t{2}, std::size_t{50},
                              std::size_t{0}}) {
      for (std::size_t div_b :
           {std::size_t{1}, std::size_t{3}, std::size_t{80}}) {
        const RowSet a = RandomSubset(rng, universe, div_a);
        const RowSet b = RandomSubset(rng, universe, div_b);
        const RowSet want_and = db::exec::IntersectSets(a, b, universe);
        const RowSet want_or = db::exec::UnionSets(a, b, universe);
        RowSet all(universe);
        for (RowId r = 0; r < universe; ++r) all[r] = r;
        const RowSet want_not = db::exec::DifferenceSets(all, a, universe);

        for (bool dense_a : {false, true}) {
          for (bool dense_b : {false, true}) {
            LazyRowSet x = MakeLazy(a, universe, dense_a);
            x.IntersectWith(MakeLazy(b, universe, dense_b), universe);
            EXPECT_EQ(x.Count(), want_and.size());
            EXPECT_EQ(std::move(x).ToRows(), want_and)
                << universe << " " << dense_a << dense_b;

            LazyRowSet y = MakeLazy(a, universe, dense_a);
            y.UnionWith(MakeLazy(b, universe, dense_b), universe);
            EXPECT_EQ(std::move(y).ToRows(), want_or)
                << universe << " " << dense_a << dense_b;
          }
          LazyRowSet z = MakeLazy(a, universe, dense_a);
          z.ComplementWithin(universe);
          EXPECT_EQ(std::move(z).ToRows(), want_not)
              << universe << " " << dense_a;
        }
      }
    }
  }
}

// ---- world-backed differentials -------------------------------------------

class VectorParityTest : public ::testing::TestWithParam<std::string> {
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

datagen::World* VectorParityTest::world_ = nullptr;

// Plan-level: the lazy block-at-a-time evaluation of every compiled plan
// (main + each N-1 relaxation) returns the exact row set of the scalar
// reference execution.
TEST_P(VectorParityTest, PlansReturnIdenticalRowSetsVectorizedOrNot) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);
  Rng rng(555);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 60, datagen::QuestionGenOptions(), &rng);

  std::size_t plans_checked = 0;
  for (const auto& q : questions) {
    auto parsed = world_->engine().Parse(domain, q.text);
    if (!parsed.ok()) continue;
    std::vector<db::exec::PlanPtr> plans;
    plans.push_back(parsed.value().plan);
    for (const auto& rp : parsed.value().relaxed_plans) plans.push_back(rp);
    for (const auto& plan : plans) {
      if (plan == nullptr) continue;
      db::ExecStats vec_stats, scalar_stats;
      auto vec = plan->ExecuteRowSet(&vec_stats, /*vectorize=*/true);
      auto scalar = plan->ExecuteRowSet(&scalar_stats, /*vectorize=*/false);
      ASSERT_EQ(vec.ok(), scalar.ok()) << domain << " '" << q.text << "'";
      if (!vec.ok()) continue;
      ASSERT_EQ(vec.value(), scalar.value()) << domain << " '" << q.text << "'";
      ++plans_checked;
    }
  }
  EXPECT_GT(plans_checked, 0u) << domain;
}

// Scoring-level: ScoreBlock's code-tuple memo path equals per-row Score.
TEST_P(VectorParityTest, ScoreBlockMatchesPerRowScore) {
  const std::string& domain = GetParam();
  const auto snapshot = world_->engine().snapshot();
  const auto* rt = snapshot->runtime(domain);
  ASSERT_NE(rt, nullptr);
  const auto* spec = world_->spec(domain);

  Rng rng(777);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 30, datagen::QuestionGenOptions(), &rng);

  const core::SimilarityContext sim = snapshot->MakeSimilarityContext(*rt);
  for (const auto& q : questions) {
    auto parsed = world_->engine().Parse(domain, q.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto& units = parsed.value().assembled.units;
    if (units.empty()) continue;

    core::SimScorer scorer(rt->table->schema(), units, sim);
    std::vector<RowId> rows;
    for (RowId row = 0; row < rt->table->num_rows(); row += 3) {
      rows.push_back(row);
    }
    std::vector<double> rank(rows.size()), unit(rows.size());
    for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
      scorer.ScoreBlock(*rt->table, rows.data(), rows.size(), dropped,
                        rank.data(), unit.data());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::PartialScore one =
            scorer.Score(*rt->table, rows[i], dropped);
        ASSERT_DOUBLE_EQ(rank[i], one.rank_sim)
            << domain << " '" << q.text << "' row " << rows[i];
        ASSERT_DOUBLE_EQ(unit[i], one.unit_sim)
            << domain << " '" << q.text << "' row " << rows[i];
        ASSERT_EQ(scorer.unit_measure(dropped), one.measure);
      }
    }
  }
}

// Engine-level: the whole ask path answers byte-identically with the
// vectorized path on vs off (the fig6 gate's in-tree twin).
TEST_P(VectorParityTest, AskByteIdenticalVectorOnAndOff) {
  const std::string& domain = GetParam();
  auto& engine = world_->mutable_engine();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);

  Rng rng(555);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 60, datagen::QuestionGenOptions(), &rng);

  core::EngineOptions on;  // defaults: use_vector_kernels = true
  core::EngineOptions off;
  off.use_vector_kernels = false;

  std::vector<std::string> on_answers, off_answers;
  engine.SetOptions(on);
  for (const auto& q : questions) {
    auto r = engine.AskInDomain(domain, q.text);
    on_answers.push_back(r.ok() ? core::CanonicalAskResultString(r.value())
                                : "ERROR: " + r.status().ToString());
  }
  engine.SetOptions(off);
  for (const auto& q : questions) {
    auto r = engine.AskInDomain(domain, q.text);
    off_answers.push_back(r.ok() ? core::CanonicalAskResultString(r.value())
                                 : "ERROR: " + r.status().ToString());
  }
  engine.SetOptions(on);

  ASSERT_EQ(on_answers.size(), off_answers.size());
  for (std::size_t i = 0; i < on_answers.size(); ++i) {
    EXPECT_EQ(on_answers[i], off_answers[i])
        << domain << " q" << i << ": " << questions[i].text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, VectorParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

}  // namespace
}  // namespace cqads
