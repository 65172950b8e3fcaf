// Delta-union query execution: one query answered over a base table (via
// whichever compiled path is available — partitioned plan, monolithic plan,
// or the seed Type-rank executor) PLUS a columnar DeltaStore riding on it.
//
//   base rows   index/plan-driven, then tombstoned base rows masked out
//   delta rows  the where tree compiled once per call against the delta's
//               own dictionaries (a CompilePredicate leaf per predicate,
//               under the query's AND/OR/NOT shape), live rows tested with
//               CompiledPredicate::Matches — the base plans' value
//               semantics; tombstoned slots skipped, ids offset to
//               base_rows + slot
//   finally     global superlative sort + answer cap, once, with the seed
//               §4.3 step-4 semantics over the combined id space
//
// The invariant: for any query, the answer equals what the same query would
// return against a single table holding exactly the live rows (the
// compaction differential tests pin this at the record level, and byte-
// identically after compaction).
#ifndef CQADS_DB_EXEC_DELTA_EXEC_H_
#define CQADS_DB_EXEC_DELTA_EXEC_H_

#include <cstddef>

#include "common/status.h"
#include "db/exec/morsel.h"
#include "db/exec/parallel_plan.h"
#include "db/exec/plan.h"
#include "db/executor.h"
#include "db/storage/delta_store.h"
#include "db/table.h"

namespace cqads::db::exec {

/// How the base table's raw (uncapped, pre-superlative) row set is
/// produced. Preference order: part_plan, then plan, then the seed
/// executor. The runner/parallelism only matter for part_plan.
struct BaseRowSource {
  const PartitionedPlan* part_plan = nullptr;
  const PhysicalPlan* plan = nullptr;
  TaskRunner* runner = nullptr;
  std::size_t parallelism = 1;
  /// Cooperative cancellation (common/deadline.h): checked per partition
  /// morsel and per delta-scan chunk. Null = run to completion.
  const ExecControl* control = nullptr;
  /// Block-at-a-time kernels for the base plan paths
  /// (EngineOptions::use_vector_kernels); false runs the scalar loops.
  /// Delta rows (a few hundred at most between compactions) are always
  /// tested row by row with the compiled predicates.
  bool vectorize = true;
};

/// Cell of a global row id: a base-table cell or a delta-store cell.
/// `delta` may be null (global ids then never exceed the base).
const Value& HybridCell(const Table& base, const DeltaStore* delta, RowId row,
                        std::size_t attr);

/// Executes `query` over base ∪ delta as described above. `query.limit`
/// caps the COMBINED result; any limit baked into the source plans is
/// ignored (raw row sets are fetched). Works with an empty delta too, but
/// callers should prefer the direct plan paths then — this function always
/// pays the merge.
Result<QueryResult> ExecuteHybrid(const Table& base, const DeltaStore& delta,
                                  const Query& query,
                                  const BaseRowSource& source);

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_DELTA_EXEC_H_
