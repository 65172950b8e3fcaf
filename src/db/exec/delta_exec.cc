#include "db/exec/delta_exec.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "db/exec/rowset_ops.h"

namespace cqads::db::exec {

namespace {

/// query.where resolved against the delta's dictionaries: the Expr's
/// AND/OR/NOT shape with a CompiledPredicate at every leaf, so each needle
/// is resolved (and shorthand-normalized) once per call, not once per row.
struct DeltaFilter {
  Expr::Kind kind = Expr::Kind::kPredicate;
  CompiledPredicate leaf;             ///< kPredicate
  std::vector<DeltaFilter> children;  ///< kAnd / kOr / kNot
};

DeltaFilter CompileFilter(const Table& rows, const Expr& expr) {
  DeltaFilter f;
  f.kind = expr.kind();
  if (f.kind == Expr::Kind::kPredicate) {
    f.leaf = CompilePredicate(rows, expr.predicate());
    return f;
  }
  f.children.reserve(expr.children().size());
  for (const auto& child : expr.children()) {
    f.children.push_back(CompileFilter(rows, *child));
  }
  return f;
}

bool FilterMatches(const DeltaFilter& f, const ColumnStore& store, RowId row) {
  switch (f.kind) {
    case Expr::Kind::kPredicate:
      return f.leaf.Matches(store, row);
    case Expr::Kind::kAnd:
      for (const auto& child : f.children) {
        if (!FilterMatches(child, store, row)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const auto& child : f.children) {
        if (FilterMatches(child, store, row)) return true;
      }
      return false;
    case Expr::Kind::kNot:
      return !FilterMatches(f.children[0], store, row);
  }
  return false;
}

}  // namespace

const Value& HybridCell(const Table& base, const DeltaStore* delta, RowId row,
                        std::size_t attr) {
  if (row < base.num_rows()) return base.cell(row, attr);
  return delta->cell(row, attr);
}

Result<QueryResult> ExecuteHybrid(const Table& base, const DeltaStore& delta,
                                  const Query& query,
                                  const BaseRowSource& source) {
  QueryResult result;
  const std::size_t base_rows = base.num_rows();

  // 1. Base rows through the fastest available path, uncapped and unsorted
  //    (plain ascending RowIds).
  RowSet rows;
  if (source.part_plan != nullptr) {
    auto r = source.part_plan->ExecuteRowSet(source.runner, source.parallelism,
                                             &result.stats, source.control,
                                             source.vectorize);
    if (!r.ok()) return r.status();
    rows = std::move(r).value();
  } else if (source.plan != nullptr) {
    auto r = source.plan->ExecuteRowSet(&result.stats, source.vectorize);
    if (!r.ok()) return r.status();
    rows = std::move(r).value();
  } else {
    // Seed Type-rank executor. Execute() with the superlative and cap
    // stripped returns exactly the raw constraint row set (ascending).
    Query raw = query;
    raw.superlative = std::nullopt;
    raw.limit = base_rows;
    auto r = Executor(&base).Execute(raw);
    if (!r.ok()) return r.status();
    result.stats += r.value().stats;
    rows = std::move(r).value().rows;
  }

  // 2. Mask tombstoned base rows.
  if (!delta.retired_base().empty()) {
    rows = DifferenceSets(rows, delta.retired_base(), base_rows);
  }

  // 3. Scan the live delta rows: the where tree compiled once against the
  //    delta's dictionaries, then integer tests per row over its columns.
  //    The deadline is re-checked every chunk so an expired request abandons
  //    a large delta within a few hundred row probes.
  constexpr std::size_t kCancelCheckRows = 256;
  std::optional<DeltaFilter> filter;
  if (query.where != nullptr && delta.live_delta_rows() > 0) {
    filter = CompileFilter(delta.table(), *query.where);
  }
  const ColumnStore& store = delta.table().store();
  std::size_t scanned = 0;
  for (RowId i = 0; i < delta.num_rows(); ++i) {
    if (i % kCancelCheckRows == 0 && ExecControl::Expired(source.control)) {
      return Status::DeadlineExceeded("delta scan cancelled");
    }
    if (delta.delta_retired(i)) continue;
    ++scanned;
    if (!filter || FilterMatches(*filter, store, i)) {
      rows.push_back(static_cast<RowId>(base_rows + i));
    }
  }
  result.stats.rows_verified += scanned;
  if (delta.live_delta_rows() > 0) ++result.stats.full_scans;

  // 4. Global §4.3 step 4: superlative over the combined id space, stable
  //    ties by global id, then the cap.
  ApplySuperlativeAndCap(&rows, query.superlative,
                         [&](RowId r, std::size_t a) -> const Value& {
                           return HybridCell(base, &delta, r, a);
                         },
                         query.limit);
  result.rows = std::move(rows);
  return result;
}

}  // namespace cqads::db::exec
