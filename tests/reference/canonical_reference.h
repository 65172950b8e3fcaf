// Test-only reference for core::CanonicalAskResultString: the original
// ostringstream writer at precision 17, kept so the production writer
// (std::to_chars into a reserved string) can be checked against it byte for
// byte. Nothing outside tests/ may include this.
#ifndef CQADS_TESTS_REFERENCE_CANONICAL_REFERENCE_H_
#define CQADS_TESTS_REFERENCE_CANONICAL_REFERENCE_H_

#include <sstream>
#include <string>

#include "core/ask_types.h"

namespace cqads::reference {

inline std::string CanonicalAskResultString(const core::AskResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "domain=" << result.domain << '\n'
     << "sql=" << result.sql << '\n'
     << "interpretation=" << result.interpretation << '\n'
     << "contradiction=" << (result.contradiction ? 1 : 0) << '\n'
     << "exact_count=" << result.exact_count << '\n';
  for (const core::Answer& a : result.answers) {
    os << "row=" << a.row << " exact=" << (a.exact ? 1 : 0)
       << " rank_sim=" << a.rank_sim << " measure=" << a.measure << '\n';
  }
  return os.str();
}

}  // namespace cqads::reference

#endif  // CQADS_TESTS_REFERENCE_CANONICAL_REFERENCE_H_
