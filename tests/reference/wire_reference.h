// Test-only references for the response side of the wire codec: the
// original one-byte-at-a-time JSON string escaper and the original
// EncodeResponse, which built a JsonValue tree and dumped it. The
// production encoder (serve/net/protocol.cc) appends into one buffer and
// the production escaper appends runs of safe bytes; tests check both
// against these byte for byte. Nothing outside tests/ may include this.
#ifndef CQADS_TESTS_REFERENCE_WIRE_REFERENCE_H_
#define CQADS_TESTS_REFERENCE_WIRE_REFERENCE_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "serve/net/protocol.h"

namespace cqads::reference {

inline void JsonEscape(std::string_view s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

inline std::string EncodeResponse(const serve::net::Response& response) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(static_cast<double>(response.id)));
  v.Set("status", JsonValue::Str(response.status));
  if (!response.error.empty()) {
    v.Set("error", JsonValue::Str(response.error));
  }
  if (response.degraded) v.Set("degraded", JsonValue::Bool(true));
  if (!response.domain.empty()) {
    v.Set("domain", JsonValue::Str(response.domain));
  }
  if (!response.canonical.empty()) {
    v.Set("canonical", JsonValue::Str(response.canonical));
  }
  if (!response.stats_json.empty()) {
    auto stats = JsonValue::Parse(response.stats_json);
    v.Set("stats", stats.ok() ? std::move(stats).value()
                              : JsonValue::Str(response.stats_json));
  }
  return v.Dump();
}

}  // namespace cqads::reference

#endif  // CQADS_TESTS_REFERENCE_WIRE_REFERENCE_H_
