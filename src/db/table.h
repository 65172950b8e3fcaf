// In-memory ads relation: a columnar store (db/storage/column_store.h)
// under the paper's index complement — hash indexes on Type I (primary) and
// Type II (secondary) attributes, sorted indexes on Type III attributes, and
// a length-3 n-gram substring index on every attribute (§4.5). BuildIndexes
// additionally collects per-column statistics (db/exec/table_stats.h) that
// the cost-aware planner orders predicates by.
#ifndef CQADS_DB_TABLE_H_
#define CQADS_DB_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/exec/table_stats.h"
#include "db/indexes.h"
#include "db/schema.h"
#include "db/storage/column_store.h"
#include "db/value.h"

namespace cqads::snapshot {
struct SerdeAccess;
}

namespace cqads::db {

class Table {
 public:
  explicit Table(Schema schema)
      : schema_(std::move(schema)), store_(schema_) {}

  // Movable, not copyable (indexes can be large).
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return store_.num_rows(); }

  /// The columnar storage layer (the exec layer scans it directly).
  const ColumnStore& store() const { return store_; }

  /// Appends a record; fails on arity or kind mismatch. Returns the RowId.
  Result<RowId> Insert(Record record);

  /// A read-only copy of the rows (ColumnStore::FrozenCopy), without
  /// indexes or statistics. How an ingest delta is published to queries.
  Table FrozenCopy() const;

  /// Builds all indexes and collects column statistics. Must be called
  /// after the last Insert and before queries; repeated calls rebuild from
  /// scratch.
  void BuildIndexes();
  bool indexes_built() const { return indexes_built_; }

  /// Materialized row view (classifier corpus, dedup, TF-IDF baselines).
  Record row(RowId id) const { return store_.MaterializeRow(id); }
  /// Cell value: a reference into the column dictionary, valid until the
  /// next Insert (interning a new distinct value may grow the pool). Tables
  /// are frozen before queries run, so query-time references never move.
  const Value& cell(RowId id, std::size_t attr) const {
    return store_.cell(id, attr);
  }

  /// Elements of a TextList cell (pre-tokenized ';'-members); a categorical
  /// cell yields its single value. Numeric/null cells yield an empty list.
  std::vector<std::string> CellElements(RowId id, std::size_t attr) const {
    return store_.CellElements(id, attr);
  }

  /// All text of a row joined with spaces (for TF-IDF baselines and the
  /// domain classifier's training corpus).
  std::string RowText(RowId id) const { return store_.RowText(id); }

  /// Every RowId in the table, ascending.
  RowSet AllRows() const;

  // --- access paths (valid after BuildIndexes) ---
  /// Equality index for a categorical/text-list attribute, or nullptr.
  const HashIndex* hash_index(std::size_t attr) const;
  /// Order index for a numeric attribute, or nullptr.
  const SortedIndex* sorted_index(std::size_t attr) const;
  /// Substring index for a text attribute, or nullptr.
  const NGramIndex* ngram_index(std::size_t attr) const;

  /// Per-column statistics, or nullptr before BuildIndexes. The shared_ptr
  /// form lets engine snapshots freeze the stats a planner was built
  /// against.
  const exec::TableStats* stats() const { return stats_.get(); }
  std::shared_ptr<const exec::TableStats> stats_ptr() const { return stats_; }

  /// Observed [min, max] of a numeric attribute, used by the incomplete-
  /// question best guess (§4.2.2: "the valid range ... determined by the
  /// smallest (largest) value under the pretended column"). Fails when the
  /// attribute is not numeric or the table is empty.
  Result<std::pair<double, double>> NumericRange(std::size_t attr) const;

 private:
  friend struct cqads::snapshot::SerdeAccess;

  Schema schema_;
  ColumnStore store_;
  std::vector<HashIndex> hash_indexes_;      // per attribute (may be unused)
  std::vector<SortedIndex> sorted_indexes_;  // per attribute (may be unused)
  std::vector<NGramIndex> ngram_indexes_;    // per attribute (may be unused)
  std::shared_ptr<const exec::TableStats> stats_;
  bool indexes_built_ = false;
};

}  // namespace cqads::db

#endif  // CQADS_DB_TABLE_H_
