#include "db/exec/vector_kernels.h"

#include <atomic>

#include "db/compare.h"
#include "db/exec/plan.h"

// SIMD tiers are compiled only where they can run: x86-64 guarantees SSE2,
// and the AVX2 bodies carry function-level target attributes so no special
// build flag is needed (dispatch checks the CPU at startup). The
// CQADS_FORCE_SCALAR_KERNELS build (CI's no-SIMD leg) compiles the portable
// path alone, proving the engine never silently depends on a vector tier.
#if (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(CQADS_FORCE_SCALAR_KERNELS)
#define CQADS_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace cqads::db::exec {

namespace {

// ----------------------------------------------------------- SIMD dispatch

SimdLevel DetectSimdLevel() {
#if defined(CQADS_X86_KERNELS)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
}

// -1 = no override; otherwise the int value of the forced SimdLevel,
// already clamped to what the CPU supports.
std::atomic<int> g_simd_override{-1};

// ---------------------------------------------------------- scalar kernels
// The portable tier doubles as the differential oracle: every SIMD word
// below must produce these exact bits.

void ScalarNumericWords(const double* p, CompareOp op, double lo, double hi,
                        std::size_t words, std::uint64_t* out) {
  for (std::size_t j = 0; j < words; ++j) {
    std::uint64_t w = 0;
    const double* q = p + 64 * j;
    for (std::size_t b = 0; b < 64; ++b) {
      w |= static_cast<std::uint64_t>(NumericTest(q[b], op, lo, hi)) << b;
    }
    out[j] = w;
  }
}

void ScalarCodeEqWords(const std::uint32_t* c, std::uint32_t target,
                       std::size_t words, std::uint64_t* eq_out,
                       std::uint64_t* null_out) {
  for (std::size_t j = 0; j < words; ++j) {
    std::uint64_t eq = 0, nul = 0;
    const std::uint32_t* q = c + 64 * j;
    for (std::size_t b = 0; b < 64; ++b) {
      eq |= static_cast<std::uint64_t>(q[b] == target) << b;
      nul |= static_cast<std::uint64_t>(q[b] == ColumnStore::kNullCode) << b;
    }
    eq_out[j] = eq;
    null_out[j] = nul;
  }
}

#if defined(CQADS_X86_KERNELS)

// ------------------------------------------------------------ SSE2 kernels
// x86-64 baseline; no target attributes needed. 64 rows per mask word =
// 32 two-double compares (movemask_pd yields 2 bits) or 16 four-code
// compares (movemask_ps yields 4 bits).

// The packed _mm_cmp*_pd intrinsics match C's quiet-NaN semantics: the
// ordered forms (eq/lt/le/gt/ge) are false on NaN, cmpneq is unordered and
// true on NaN — exactly NumericTest. NaN lanes (NULL rows) get masked by
// the null-rule fold regardless.
#define CQADS_SSE2_CMP_WORD(NAME, CMP)                                   \
  inline std::uint64_t NAME(const double* p, double t) {                 \
    const __m128d tv = _mm_set1_pd(t);                                   \
    std::uint64_t w = 0;                                                 \
    for (int k = 0; k < 32; ++k) {                                       \
      const __m128d v = _mm_loadu_pd(p + 2 * k);                         \
      w |= static_cast<std::uint64_t>(_mm_movemask_pd(CMP(v, tv)))       \
           << (2 * k);                                                   \
    }                                                                    \
    return w;                                                            \
  }

CQADS_SSE2_CMP_WORD(Sse2EqWord, _mm_cmpeq_pd)
CQADS_SSE2_CMP_WORD(Sse2NeWord, _mm_cmpneq_pd)
CQADS_SSE2_CMP_WORD(Sse2LtWord, _mm_cmplt_pd)
CQADS_SSE2_CMP_WORD(Sse2LeWord, _mm_cmple_pd)
CQADS_SSE2_CMP_WORD(Sse2GtWord, _mm_cmpgt_pd)
CQADS_SSE2_CMP_WORD(Sse2GeWord, _mm_cmpge_pd)
#undef CQADS_SSE2_CMP_WORD

inline std::uint64_t Sse2BetweenWord(const double* p, double lo, double hi) {
  const __m128d lv = _mm_set1_pd(lo), hv = _mm_set1_pd(hi);
  std::uint64_t w = 0;
  for (int k = 0; k < 32; ++k) {
    const __m128d v = _mm_loadu_pd(p + 2 * k);
    const __m128d m = _mm_and_pd(_mm_cmpge_pd(v, lv), _mm_cmple_pd(v, hv));
    w |= static_cast<std::uint64_t>(_mm_movemask_pd(m)) << (2 * k);
  }
  return w;
}

void Sse2NumericWords(const double* p, CompareOp op, double lo, double hi,
                      std::size_t words, std::uint64_t* out) {
  for (std::size_t j = 0; j < words; ++j) {
    const double* q = p + 64 * j;
    switch (op) {
      case CompareOp::kEq:
        out[j] = Sse2EqWord(q, lo);
        break;
      case CompareOp::kNe:
        out[j] = Sse2NeWord(q, lo);
        break;
      case CompareOp::kLt:
        out[j] = Sse2LtWord(q, lo);
        break;
      case CompareOp::kLe:
        out[j] = Sse2LeWord(q, lo);
        break;
      case CompareOp::kGt:
        out[j] = Sse2GtWord(q, lo);
        break;
      case CompareOp::kGe:
        out[j] = Sse2GeWord(q, lo);
        break;
      case CompareOp::kBetween:
        out[j] = Sse2BetweenWord(q, lo, hi);
        break;
      case CompareOp::kContains:
        out[j] = 0;
        break;
    }
  }
}

void Sse2CodeEqWords(const std::uint32_t* c, std::uint32_t target,
                     std::size_t words, std::uint64_t* eq_out,
                     std::uint64_t* null_out) {
  const __m128i tv = _mm_set1_epi32(static_cast<int>(target));
  const __m128i nv = _mm_set1_epi32(static_cast<int>(ColumnStore::kNullCode));
  for (std::size_t j = 0; j < words; ++j) {
    const std::uint32_t* q = c + 64 * j;
    std::uint64_t eq = 0, nul = 0;
    for (int k = 0; k < 16; ++k) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 4 * k));
      eq |= static_cast<std::uint64_t>(
                _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, tv))))
            << (4 * k);
      nul |= static_cast<std::uint64_t>(
                 _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, nv))))
             << (4 * k);
    }
    eq_out[j] = eq;
    null_out[j] = nul;
  }
}

// ------------------------------------------------------------ AVX2 kernels
// Compiled via target attributes so the TU builds without -mavx2; only
// dispatched when __builtin_cpu_supports("avx2") said yes at startup.

#define CQADS_AVX2_CMP_WORD(NAME, PRED)                                  \
  __attribute__((target("avx2"))) inline std::uint64_t NAME(             \
      const double* p, double t) {                                       \
    const __m256d tv = _mm256_set1_pd(t);                                \
    std::uint64_t w = 0;                                                 \
    for (int k = 0; k < 16; ++k) {                                       \
      const __m256d v = _mm256_loadu_pd(p + 4 * k);                      \
      w |= static_cast<std::uint64_t>(                                   \
               _mm256_movemask_pd(_mm256_cmp_pd(v, tv, PRED)))           \
           << (4 * k);                                                   \
    }                                                                    \
    return w;                                                            \
  }

// _CMP_NEQ_UQ is true on NaN like C's !=; the ordered-quiet forms are
// false on NaN like C's relational operators.
CQADS_AVX2_CMP_WORD(Avx2EqWord, _CMP_EQ_OQ)
CQADS_AVX2_CMP_WORD(Avx2NeWord, _CMP_NEQ_UQ)
CQADS_AVX2_CMP_WORD(Avx2LtWord, _CMP_LT_OQ)
CQADS_AVX2_CMP_WORD(Avx2LeWord, _CMP_LE_OQ)
CQADS_AVX2_CMP_WORD(Avx2GtWord, _CMP_GT_OQ)
CQADS_AVX2_CMP_WORD(Avx2GeWord, _CMP_GE_OQ)
#undef CQADS_AVX2_CMP_WORD

__attribute__((target("avx2"))) inline std::uint64_t Avx2BetweenWord(
    const double* p, double lo, double hi) {
  const __m256d lv = _mm256_set1_pd(lo), hv = _mm256_set1_pd(hi);
  std::uint64_t w = 0;
  for (int k = 0; k < 16; ++k) {
    const __m256d v = _mm256_loadu_pd(p + 4 * k);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, lv, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, hv, _CMP_LE_OQ));
    w |= static_cast<std::uint64_t>(_mm256_movemask_pd(m)) << (4 * k);
  }
  return w;
}

void Avx2NumericWords(const double* p, CompareOp op, double lo, double hi,
                      std::size_t words, std::uint64_t* out) {
  for (std::size_t j = 0; j < words; ++j) {
    const double* q = p + 64 * j;
    switch (op) {
      case CompareOp::kEq:
        out[j] = Avx2EqWord(q, lo);
        break;
      case CompareOp::kNe:
        out[j] = Avx2NeWord(q, lo);
        break;
      case CompareOp::kLt:
        out[j] = Avx2LtWord(q, lo);
        break;
      case CompareOp::kLe:
        out[j] = Avx2LeWord(q, lo);
        break;
      case CompareOp::kGt:
        out[j] = Avx2GtWord(q, lo);
        break;
      case CompareOp::kGe:
        out[j] = Avx2GeWord(q, lo);
        break;
      case CompareOp::kBetween:
        out[j] = Avx2BetweenWord(q, lo, hi);
        break;
      case CompareOp::kContains:
        out[j] = 0;
        break;
    }
  }
}

__attribute__((target("avx2"))) void Avx2CodeEqWords(const std::uint32_t* c,
                                                     std::uint32_t target,
                                                     std::size_t words,
                                                     std::uint64_t* eq_out,
                                                     std::uint64_t* null_out) {
  const __m256i tv = _mm256_set1_epi32(static_cast<int>(target));
  const __m256i nv =
      _mm256_set1_epi32(static_cast<int>(ColumnStore::kNullCode));
  for (std::size_t j = 0; j < words; ++j) {
    const std::uint32_t* q = c + 64 * j;
    std::uint64_t eq = 0, nul = 0;
    for (int k = 0; k < 8; ++k) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + 8 * k));
      eq |= static_cast<std::uint64_t>(_mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, tv))))
            << (8 * k);
      nul |= static_cast<std::uint64_t>(_mm256_movemask_ps(
                 _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, nv))))
             << (8 * k);
    }
    eq_out[j] = eq;
    null_out[j] = nul;
  }
}

#endif  // CQADS_X86_KERNELS

/// Clears bits at and beyond row n (kernels fill whole words).
inline void ClearTailBits(std::size_t n, SelMask* out) {
  if (n % 64 != 0) {
    out->words[n / 64] &= (std::uint64_t{1} << (n % 64)) - 1;
  }
}

}  // namespace

SimdLevel ActiveSimdLevel() {
  static const SimdLevel detected = DetectSimdLevel();
  const int forced = g_simd_override.load(std::memory_order_relaxed);
  if (forced < 0) return detected;
  // Never dispatch above the CPU's capability (enum is best-first).
  return static_cast<SimdLevel>(
      forced > static_cast<int>(detected) ? forced
                                          : static_cast<int>(detected));
}

void SetSimdOverride(SimdLevel level) {
  g_simd_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ClearSimdOverride() {
  g_simd_override.store(-1, std::memory_order_relaxed);
}

void NumericCompareMask(const double* packed, const std::uint64_t* null_words,
                        CompareOp op, double lo, double hi, std::size_t base,
                        std::size_t n, SelMask* out) {
  out->Clear();
  if (n == 0) return;
  const double* p = packed + base;
  const std::size_t full_words = n / 64;

  switch (ActiveSimdLevel()) {
#if defined(CQADS_X86_KERNELS)
    case SimdLevel::kAvx2:
      Avx2NumericWords(p, op, lo, hi, full_words, out->words);
      break;
    case SimdLevel::kSse2:
      Sse2NumericWords(p, op, lo, hi, full_words, out->words);
      break;
#else
    case SimdLevel::kAvx2:
    case SimdLevel::kSse2:
#endif
    case SimdLevel::kScalar:
      ScalarNumericWords(p, op, lo, hi, full_words, out->words);
      break;
  }
  for (std::size_t i = full_words * 64; i < n; ++i) {
    out->words[i / 64] |= static_cast<std::uint64_t>(
                              NumericTest(p[i], op, lo, hi))
                          << (i % 64);
  }

  // Null-rule fold: NULL rows carry NaN in the packed column, so the
  // compare words above already treat them as no-match for the ordered ops
  // and as match for kNe — but the rule is defined by the null BITMAP, not
  // by NaN propagation, so mask explicitly and OR the rule back in.
  const bool null_matches = NullComparisonMatches(op);
  const std::uint64_t* nw =
      null_words == nullptr ? nullptr : null_words + base / 64;
  const std::size_t mask_words = (n + 63) / 64;
  for (std::size_t j = 0; j < mask_words; ++j) {
    const std::uint64_t nulls = nw == nullptr ? 0 : nw[j];
    out->words[j] = (out->words[j] & ~nulls) | (null_matches ? nulls : 0);
  }
  ClearTailBits(n, out);
}

void CodeEqMask(const std::uint32_t* codes, std::uint32_t target, bool negate,
                bool null_matches, std::size_t base, std::size_t n,
                SelMask* out) {
  out->Clear();
  if (n == 0) return;
  const std::uint32_t* c = codes + base;
  const std::size_t full_words = n / 64;
  std::uint64_t null_bits[kMaskWords];

  switch (ActiveSimdLevel()) {
#if defined(CQADS_X86_KERNELS)
    case SimdLevel::kAvx2:
      Avx2CodeEqWords(c, target, full_words, out->words, null_bits);
      break;
    case SimdLevel::kSse2:
      Sse2CodeEqWords(c, target, full_words, out->words, null_bits);
      break;
#else
    case SimdLevel::kAvx2:
    case SimdLevel::kSse2:
#endif
    case SimdLevel::kScalar:
      ScalarCodeEqWords(c, target, full_words, out->words, null_bits);
      break;
  }
  if (n % 64 != 0) {
    std::uint64_t eq = 0, nul = 0;
    for (std::size_t i = full_words * 64; i < n; ++i) {
      eq |= static_cast<std::uint64_t>(c[i] == target) << (i % 64);
      nul |= static_cast<std::uint64_t>(c[i] == ColumnStore::kNullCode)
             << (i % 64);
    }
    out->words[full_words] = eq;
    null_bits[full_words] = nul;
  }

  const std::uint64_t neg = negate ? ~std::uint64_t{0} : 0;
  const std::size_t mask_words = (n + 63) / 64;
  for (std::size_t j = 0; j < mask_words; ++j) {
    const std::uint64_t nulls = null_bits[j];
    out->words[j] =
        ((out->words[j] ^ neg) & ~nulls) | (null_matches ? nulls : 0);
  }
  ClearTailBits(n, out);
}

void CodeTableMask(const std::uint32_t* codes, const std::uint8_t* table,
                   std::uint32_t table_size, bool negate, bool null_matches,
                   std::size_t base, std::size_t n, SelMask* out) {
  out->Clear();
  const std::uint32_t* c = codes + base;
  // One gather per row, branch-free select between the NULL rule and the
  // (possibly negated) table bit. The match table is the SIMD substitute
  // here: it collapses the per-row element-span walk to one byte load, and
  // is identical at every dispatch tier.
  for (std::size_t j = 0; j * 64 < n; ++j) {
    std::uint64_t w = 0;
    const std::size_t limit = n - j * 64 < 64 ? n - j * 64 : 64;
    const std::uint32_t* q = c + 64 * j;
    for (std::size_t b = 0; b < limit; ++b) {
      w |= static_cast<std::uint64_t>(CodeTableRowMatch(
               q[b], table, table_size, negate, null_matches))
           << b;
    }
    out->words[j] = w;
  }
}

std::size_t EmitRows(const SelMask& mask, RowId base, RowSet* out) {
  std::size_t added = 0;
  for (std::size_t j = 0; j < kMaskWords; ++j) {
    std::uint64_t w = mask.words[j];
    while (w != 0) {
      const int bit = __builtin_ctzll(w);
      out->push_back(base + static_cast<RowId>(64 * j + bit));
      w &= w - 1;
      ++added;
    }
  }
  return added;
}

// ---------------------------------------------------------- BlockPredicate

BlockPredicate::BlockPredicate(const ColumnStore& store,
                               const CompiledPredicate& cp) {
  const std::size_t attr = cp.pred.attr;
  null_matches_ = NullComparisonMatches(cp.pred.op);
  switch (cp.mode) {
    case CompiledPredicate::Mode::kNumeric:
      if (cp.pred.op == CompareOp::kContains) {
        kind_ = Kind::kNever;  // scalar path also matches nothing
        return;
      }
      kind_ = Kind::kNumeric;
      op_ = cp.pred.op;
      lo_ = cp.lo;
      hi_ = cp.hi;
      packed_ = store.numeric_column(attr).data();
      null_words_ = store.null_bitmap(attr).data();
      return;
    case CompiledPredicate::Mode::kNumericContains: {
      const auto& rendered = store.rendered_dictionary(attr);
      cell_match_.resize(rendered.size());
      for (std::size_t code = 0; code < rendered.size(); ++code) {
        cell_match_[code] =
            rendered[code].find(cp.needle) != std::string::npos ? 1 : 0;
      }
      negate_ = false;
      break;
    }
    case CompiledPredicate::Mode::kTextCodes: {
      // Rows sharing a dictionary code share the exact element sequence, so
      // the any-element test runs once per DISTINCT cell here instead of
      // once per row in the block loop.
      const std::size_t dict_size = store.dictionary(attr).size();
      cell_match_.resize(dict_size);
      for (std::size_t code = 0; code < dict_size; ++code) {
        auto [begin, end] =
            store.DictElementSpan(attr, static_cast<std::uint32_t>(code));
        bool any = false;
        for (const std::uint32_t* it = begin; it != end && !any; ++it) {
          any = cp.element_match[*it] != 0;
        }
        cell_match_[code] = any ? 1 : 0;
      }
      negate_ = cp.pred.op == CompareOp::kNe;
      break;
    }
    case CompiledPredicate::Mode::kNever:
      kind_ = Kind::kNever;
      return;
  }

  // Shared tail of the two table modes: pick the direct-compare fast path
  // when exactly one distinct cell matches, drop to all-zero when none can.
  codes_ = store.code_column(cp.pred.attr).data();
  std::size_t hits = 0;
  std::uint32_t only = 0;
  for (std::size_t code = 0; code < cell_match_.size(); ++code) {
    if (cell_match_[code] != 0) {
      ++hits;
      only = static_cast<std::uint32_t>(code);
    }
  }
  if (hits == 1) {
    kind_ = Kind::kCodeEq;
    target_code_ = only;
  } else if (hits == 0 && !negate_ && !null_matches_) {
    kind_ = Kind::kNever;
  } else {
    kind_ = Kind::kCodeTable;
  }
}

void BlockPredicate::EvalBlock(std::size_t base, std::size_t n,
                               SelMask* out) const {
  switch (kind_) {
    case Kind::kNumeric:
      NumericCompareMask(packed_, null_words_, op_, lo_, hi_, base, n, out);
      return;
    case Kind::kCodeEq:
      CodeEqMask(codes_, target_code_, negate_, null_matches_, base, n, out);
      return;
    case Kind::kCodeTable:
      CodeTableMask(codes_, cell_match_.data(),
                    static_cast<std::uint32_t>(cell_match_.size()), negate_,
                    null_matches_, base, n, out);
      return;
    case Kind::kNever:
      out->Clear();
      return;
  }
}

void BlockPredicate::AndBlock(std::size_t base, std::size_t n,
                              SelMask* inout) const {
  SelMask mine;
  EvalBlock(base, n, &mine);
  inout->AndWith(mine);
}

}  // namespace cqads::db::exec
