// Row-at-a-time predicate matching over a materialized cell: the seed
// Executor's value semantics — NULL rule, shorthand equality, canonical
// kContains rendering, text-list membership. The compiled plan path
// (db/exec/plan.h CompiledPredicate, which base tables and ingest deltas
// share) must agree with it on every (row, predicate).
#ifndef CQADS_DB_ROW_MATCH_H_
#define CQADS_DB_ROW_MATCH_H_

#include <string>
#include <vector>

#include "db/query.h"
#include "db/schema.h"
#include "db/storage/column_store.h"
#include "db/value.h"

namespace cqads::db {

/// One cell vs one predicate: the single semantic definition behind
/// Executor::Matches. `elements` are the cell's ColumnStore::CellElements
/// for text attributes (ignored for numeric attributes).
bool MatchesCell(const Schema& schema, const Predicate& pred,
                 const Value& cell, const std::vector<std::string>& elements);

/// Schema validation behind Table::Insert (ingest deltas append through a
/// Table too).
Status ValidateRecord(const Schema& schema, const Record& record);

}  // namespace cqads::db

#endif  // CQADS_DB_ROW_MATCH_H_
