#include "core/ask_types.h"

#include <charconv>

namespace cqads::core {

namespace {

// 24 bytes hold any 64-bit integer.
template <typename Int>
void AppendInt(Int value, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// std::chars_format::general at precision 17 is defined as printf "%.17g",
// which is what an ostream at precision(17) printed for these scores. The
// longest is 24 bytes ("-1.7976931348623157e+308").
void AppendScore(double value, std::string* out) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17)
                       .ptr);
}

}  // namespace

std::string CanonicalAskResultString(const AskResult& result) {
  // Per answer line: "row=" + 10 digits + " exact=" + 1 + " rank_sim=" +
  // up to 24 + " measure=" + measure + '\n' is at most 62 + measure bytes.
  std::size_t size = 96 + result.domain.size() + result.sql.size() +
                     result.interpretation.size();
  for (const Answer& a : result.answers) size += 62 + a.measure.size();
  std::string out;
  out.reserve(size);
  out.append("domain=").append(result.domain);
  out.append("\nsql=").append(result.sql);
  out.append("\ninterpretation=").append(result.interpretation);
  out.append(result.contradiction ? "\ncontradiction=1\nexact_count="
                                  : "\ncontradiction=0\nexact_count=");
  AppendInt(result.exact_count, &out);
  out.push_back('\n');
  for (const Answer& a : result.answers) {
    out.append("row=");
    AppendInt(a.row, &out);
    out.append(a.exact ? " exact=1 rank_sim=" : " exact=0 rank_sim=");
    AppendScore(a.rank_sim, &out);
    out.append(" measure=").append(a.measure);
    out.push_back('\n');
  }
  return out;
}

}  // namespace cqads::core
