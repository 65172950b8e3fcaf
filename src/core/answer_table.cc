#include "core/answer_table.h"

#include <algorithm>
#include <vector>

#include "common/string_util.h"

namespace cqads::core {

namespace {

struct Grid {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

Grid BuildGrid(const db::Table& table, const CqadsEngine::AskResult& result,
               const AnswerTableOptions& options,
               const db::DeltaStore* delta) {
  Grid grid;
  const db::Schema& schema = table.schema();
  const std::size_t n_attrs =
      options.max_attributes == 0
          ? schema.num_attributes()
          : std::min(options.max_attributes, schema.num_attributes());

  grid.header.push_back("#");
  grid.header.push_back("match");
  for (std::size_t a = 0; a < n_attrs; ++a) {
    grid.header.push_back(schema.attribute(a).name);
  }
  if (options.show_rank_sim) {
    grid.header.push_back("rank_sim");
    grid.header.push_back("measure");
  }

  std::size_t shown = 0;
  for (const auto& answer : result.answers) {
    if (shown >= options.max_rows) break;
    ++shown;
    std::vector<std::string> row;
    row.push_back(std::to_string(shown));
    row.push_back(answer.exact ? "exact" : "partial");
    for (std::size_t a = 0; a < n_attrs; ++a) {
      // Delta-store answers (global ids past the base table) read the
      // delta's cells when the caller passed the snapshot's delta; a
      // placeholder otherwise (never an out-of-range table read).
      if (answer.row < table.num_rows()) {
        row.push_back(table.cell(answer.row, a).AsText());
      } else if (delta != nullptr &&
                 answer.row < delta->total_rows()) {
        row.push_back(delta->cell(answer.row, a).AsText());
      } else {
        row.push_back("(delta row)");
      }
    }
    if (options.show_rank_sim) {
      row.push_back(answer.exact ? "-" : FormatDouble(answer.rank_sim, 2));
      row.push_back(answer.exact ? "-" : answer.measure);
    }
    grid.rows.push_back(std::move(row));
  }
  return grid;
}

}  // namespace

std::string FormatAnswersText(const db::Table& table,
                              const CqadsEngine::AskResult& result,
                              const AnswerTableOptions& options,
                              const db::DeltaStore* delta) {
  if (result.contradiction) return "search retrieved no results\n";
  Grid grid = BuildGrid(table, result, options, delta);

  std::vector<std::size_t> widths(grid.header.size());
  for (std::size_t c = 0; c < grid.header.size(); ++c) {
    widths[c] = grid.header[c].size();
  }
  for (const auto& row : grid.rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line += "  ";
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };

  std::string out = emit_row(grid.header);
  std::size_t total_width = 0;
  for (std::size_t w : widths) total_width += w + 2;
  out.append(total_width > 2 ? total_width - 2 : 0, '-');
  out += "\n";
  for (const auto& row : grid.rows) out += emit_row(row);
  if (result.answers.size() > grid.rows.size()) {
    out += "... " +
           std::to_string(result.answers.size() - grid.rows.size()) +
           " more\n";
  }
  if (options.show_explain && !result.explain.empty()) {
    out += "\n" + result.explain;
  }
  return out;
}

std::string HtmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string FormatAnswersHtml(const db::Table& table,
                              const CqadsEngine::AskResult& result,
                              const AnswerTableOptions& options,
                              const db::DeltaStore* delta) {
  if (result.contradiction) {
    return "<p>search retrieved no results</p>\n";
  }
  Grid grid = BuildGrid(table, result, options, delta);
  std::string out = "<table>\n  <tr>";
  for (const auto& h : grid.header) {
    out += "<th>" + HtmlEscape(h) + "</th>";
  }
  out += "</tr>\n";
  for (const auto& row : grid.rows) {
    out += "  <tr>";
    for (const auto& cell : row) {
      out += "<td>" + HtmlEscape(cell) + "</td>";
    }
    out += "</tr>\n";
  }
  out += "</table>\n";
  if (options.show_explain && !result.explain.empty()) {
    out += "<pre>" + HtmlEscape(result.explain) + "</pre>\n";
  }
  return out;
}

}  // namespace cqads::core
