// Answer presentation (§4.5: "The answers are displayed on an HTML
// interface in a tabular manner"). Formats an AskResult as a fixed-width
// text table or a minimal HTML table, with the exact/partial flag and the
// similarity measure used for partial answers (Table 2's last column).
#ifndef CQADS_CORE_ANSWER_TABLE_H_
#define CQADS_CORE_ANSWER_TABLE_H_

#include <string>

#include "core/cqads_engine.h"
#include "db/storage/delta_store.h"
#include "db/table.h"

namespace cqads::core {

struct AnswerTableOptions {
  std::size_t max_rows = 10;
  /// Columns beyond this many attributes are elided (feature lists tend to
  /// dominate otherwise). 0 = all.
  std::size_t max_attributes = 6;
  bool show_rank_sim = true;
  /// Append the physical-plan dump (AskResult::explain) as a footer when
  /// the engine recorded one (EngineOptions::explain_plans).
  bool show_explain = false;
};

/// Fixed-width text rendering (monospace-aligned, one header row).
/// `delta` renders answers whose global RowId lies past the base table
/// (ads ingested since the last compaction) from the delta's cells; pass
/// the asked snapshot's DomainRuntime::delta. With delta omitted such rows
/// render a placeholder.
std::string FormatAnswersText(const db::Table& table,
                              const CqadsEngine::AskResult& result,
                              const AnswerTableOptions& options =
                                  AnswerTableOptions(),
                              const db::DeltaStore* delta = nullptr);

/// Minimal, well-formed HTML <table> rendering with escaped cell text.
std::string FormatAnswersHtml(const db::Table& table,
                              const CqadsEngine::AskResult& result,
                              const AnswerTableOptions& options =
                                  AnswerTableOptions(),
                              const db::DeltaStore* delta = nullptr);

/// Escapes &, <, >, and double quotes for HTML output.
std::string HtmlEscape(std::string_view text);

}  // namespace cqads::core

#endif  // CQADS_CORE_ANSWER_TABLE_H_
