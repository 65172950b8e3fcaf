// Columnar storage for one ads relation — the physical layer under
// db::Table. Replaces the seed's row-major std::vector<Record>:
//
//   * every column is dictionary-encoded: a pool of distinct Values plus a
//     per-row u32 code (kNullCode for NULL), so categorical probes compare
//     integers instead of strings and repeated values are stored once;
//   * numeric columns additionally keep a packed double vector (NaN at NULL
//     positions) and a null bitmap, the layout range scans and histogram
//     collection stream over;
//   * text columns keep pre-tokenized element postings: a per-column element
//     dictionary (trimmed ';'-list members; a categorical cell is its own
//     single element) and a per-row span of element codes, so
//     CellElements/equality probes never re-split strings;
//   * a canonical rendered text per dictionary entry (the
//     db::CanonicalContainsText single formatting path) serves substring
//     matching without per-row re-formatting.
//
// The row-oriented view the classifier corpus and the TF-IDF baselines need
// (cell / MaterializeRow / CellElements / RowText) is materialized on demand
// from the columns; cell() hands out references into the dictionary pool, so
// it stays cheap and allocation-free.
//
// Thread-safety: append-only while loading; immutable afterwards. All const
// methods are safe to call concurrently once writes stop (the engine
// snapshot layer guarantees tables are frozen before queries run).
#ifndef CQADS_DB_STORAGE_COLUMN_STORE_H_
#define CQADS_DB_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pod_vec.h"
#include "db/indexes.h"
#include "db/schema.h"
#include "db/value.h"

namespace cqads::snapshot {
struct SerdeAccess;
}

namespace cqads::db {

/// One ad: a tuple of attribute values in schema order (the thin row view).
using Record = std::vector<Value>;

class ColumnStore {
 public:
  /// Per-row dictionary code of a NULL cell.
  static constexpr std::uint32_t kNullCode = 0xFFFFFFFFu;

  /// Captures the per-column physical kinds; the schema itself need not
  /// outlive the store (Table stays freely movable).
  explicit ColumnStore(const Schema& schema);

  std::size_t num_rows() const { return num_rows_; }

  /// Appends a record (already validated against the schema by the caller).
  /// Returns the new RowId.
  RowId Append(const Record& record);

  // --- row view (materialized on demand) --------------------------------

  /// The cell value; a reference into the column's dictionary pool (or a
  /// shared NULL). Valid until the next Append that interns a new distinct
  /// value for the column (the pool may reallocate); stores are frozen
  /// before queries run, so query-time references never move.
  const Value& cell(RowId row, std::size_t attr) const;

  /// Materializes one full record in schema order.
  Record MaterializeRow(RowId row) const;

  /// Elements of a text cell from the pre-tokenized postings: a TextList
  /// cell yields its trimmed non-empty ';'-members, a categorical cell its
  /// single value. Numeric/NULL cells yield an empty list.
  std::vector<std::string> CellElements(RowId row, std::size_t attr) const;

  /// All text of a row joined with spaces, lower-cased (classifier corpus
  /// and TF-IDF baselines).
  std::string RowText(RowId row) const;

  // --- columnar access (the exec layer's surface) -----------------------

  /// Dictionary code of a cell (kNullCode for NULL).
  std::uint32_t dict_code(RowId row, std::size_t attr) const {
    return cols_[attr].codes[row];
  }

  /// The whole per-row code vector of a column (kNullCode at NULL rows) —
  /// the block kernels stream this directly instead of per-row dict_code
  /// calls.
  const common::PodVec<std::uint32_t>& code_column(std::size_t attr) const {
    return cols_[attr].codes;
  }

  /// Element-code span of one DISTINCT cell value: rows sharing a
  /// dictionary code share the exact element sequence (elements derive
  /// only from the cell's text), recorded once when the value is first
  /// interned. Lets predicate evaluation build per-distinct-cell match
  /// tables in O(dictionary) instead of walking per-row spans. Only text
  /// columns have spans; `code` must be a real code (not kNullCode).
  std::pair<const std::uint32_t*, const std::uint32_t*> DictElementSpan(
      std::size_t attr, std::uint32_t code) const {
    const Column& col = cols_[attr];
    const auto& span = col.dict_spans[code];
    const std::uint32_t* base = col.elem_codes.data();
    return {base + span.begin, base + span.end};
  }

  /// Distinct cell values of a column, in first-appearance order.
  const std::vector<Value>& dictionary(std::size_t attr) const {
    return cols_[attr].dict;
  }

  /// Canonical rendered text per dictionary entry of a NUMERIC column
  /// (single formatting path; what kContains matches against). Empty for
  /// text columns — their text is already exposed by the element
  /// dictionary.
  const std::vector<std::string>& rendered_dictionary(std::size_t attr) const {
    return cols_[attr].rendered;
  }

  /// Distinct text elements of a text column, in first-appearance order.
  /// Empty for numeric columns.
  const std::vector<std::string>& element_dictionary(std::size_t attr) const {
    return cols_[attr].elem_dict;
  }

  /// NormalizeForShorthand of each element, parallel to
  /// element_dictionary(): shorthand probes normalize the needle once and
  /// compare against these cached forms (§4.2.3 without per-probe
  /// re-normalization).
  const std::vector<std::string>& element_shorthand_norms(
      std::size_t attr) const {
    return cols_[attr].elem_norms;
  }

  /// The element-code span of a text cell: [begin, end) into the column's
  /// element pool. Empty for NULL cells and numeric columns.
  std::pair<const std::uint32_t*, const std::uint32_t*> ElementSpan(
      RowId row, std::size_t attr) const;

  /// Packed values of a numeric column (NaN at NULL rows). Empty for text
  /// columns.
  const common::PodVec<double>& numeric_column(std::size_t attr) const {
    return cols_[attr].packed;
  }

  bool is_null(RowId row, std::size_t attr) const {
    return cols_[attr].codes[row] == kNullCode;
  }

  /// Word of the column's null bitmap (bit r%64 of word r/64 set = NULL).
  const common::PodVec<std::uint64_t>& null_bitmap(std::size_t attr) const {
    return cols_[attr].null_bits;
  }

  /// True once the store has been restored from a mapped snapshot or made
  /// by FrozenCopy: the per-column intern tables are absent, so Append is
  /// forbidden. Ingest goes through DeltaStore heap generations.
  bool frozen() const { return frozen_; }

  /// A read-only copy: every column, without the intern tables (the bulk
  /// of a store copy that readers never touch). How an ingest delta is
  /// published to queries.
  ColumnStore FrozenCopy() const;

  /// Element-code span of one distinct dictionary entry, as a POD struct
  /// (std::pair is not trivially copyable, so spans could not be written
  /// verbatim into snapshots).
  struct DictSpan {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

 private:
  friend struct cqads::snapshot::SerdeAccess;

  struct Column {
    std::vector<Value> dict;              ///< distinct values, stable order
    std::vector<std::string> rendered;    ///< canonical text (numeric cols)
    // PodVec members: heap-owned while appending, zero-copy views into a
    // mapped snapshot after a load.
    common::PodVec<std::uint32_t> codes;     ///< per row; kNullCode = NULL
    common::PodVec<std::uint64_t> null_bits; ///< 1 bit per row, 1 = NULL

    // Text columns: pre-tokenized elements.
    std::vector<std::string> elem_dict;
    std::vector<std::string> elem_norms;  ///< NormalizeForShorthand per entry
    common::PodVec<std::uint32_t> elem_codes;    ///< pooled spans
    common::PodVec<std::uint32_t> elem_offsets;  ///< size num_rows+1
    /// Per DICTIONARY code: [begin, end) into elem_codes of the element
    /// sequence every row with that code shares (captured at first intern).
    common::PodVec<DictSpan> dict_spans;

    // Numeric columns: packed scan layout.
    common::PodVec<double> packed;  ///< NaN at NULL rows
  };

  /// Append-side lookup tables of one column; empty on a frozen store.
  struct Interns {
    std::unordered_map<std::string, std::uint32_t> dict;  ///< by DictKey
    std::unordered_map<std::string, std::uint32_t> elem;
  };

  ColumnStore() = default;  // FrozenCopy

  std::uint32_t InternValue(std::size_t attr, const Value& v, bool numeric);
  std::uint32_t InternElement(std::size_t attr, std::string element);

  std::vector<DataKind> kinds_;  ///< per-column physical kind
  std::vector<Column> cols_;
  std::vector<Interns> interns_;  ///< parallel to cols_ until frozen
  std::size_t num_rows_ = 0;
  bool frozen_ = false;
};

}  // namespace cqads::db

#endif  // CQADS_DB_STORAGE_COLUMN_STORE_H_
