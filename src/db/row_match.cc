#include "db/row_match.h"

#include "db/compare.h"
#include "text/shorthand.h"

namespace cqads::db {

namespace {

bool TextMatches(const std::vector<std::string>& elements,
                 const std::string& needle, bool allow_shorthand) {
  for (const auto& e : elements) {
    if (e == needle) return true;
    if (allow_shorthand && text::IsShorthandMatch(e, needle)) return true;
  }
  return false;
}

bool TextContains(const std::vector<std::string>& elements,
                  const std::string& needle) {
  for (const auto& e : elements) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

bool MatchesCell(const Schema& schema, const Predicate& pred,
                 const Value& cell, const std::vector<std::string>& elements) {
  const bool numeric_attr =
      schema.attribute(pred.attr).data_kind == DataKind::kNumeric;

  // Shared NULL rule (db/compare.h): only negations match a NULL cell.
  if (cell.is_null()) return NullComparisonMatches(pred.op);

  if (numeric_attr) {
    double v = cell.AsDouble();
    switch (pred.op) {
      case CompareOp::kEq:
        return v == pred.value.AsDouble();
      case CompareOp::kNe:
        return v != pred.value.AsDouble();
      case CompareOp::kLt:
        return v < pred.value.AsDouble();
      case CompareOp::kLe:
        return v <= pred.value.AsDouble();
      case CompareOp::kGt:
        return v > pred.value.AsDouble();
      case CompareOp::kGe:
        return v >= pred.value.AsDouble();
      case CompareOp::kBetween:
        return v >= pred.value.AsDouble() && v <= pred.value_hi.AsDouble();
      case CompareOp::kContains:
        // Both sides render through the canonical formatting path, so a
        // probe can never disagree with a stored cell about how the same
        // quantity is written.
        return CanonicalContainsText(cell).find(
                   CanonicalContainsText(pred.value)) != std::string::npos;
    }
    return false;
  }

  const std::string needle = pred.value.AsText();
  switch (pred.op) {
    case CompareOp::kEq:
      return TextMatches(elements, needle, pred.allow_shorthand);
    case CompareOp::kNe:
      return !TextMatches(elements, needle, pred.allow_shorthand);
    case CompareOp::kContains:
      return TextContains(elements, needle);
    default:
      return false;  // range operators are undefined on text
  }
}

Status ValidateRecord(const Schema& schema, const Record& record) {
  if (record.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "record arity " + std::to_string(record.size()) + " != schema arity " +
        std::to_string(schema.num_attributes()));
  }
  for (std::size_t i = 0; i < record.size(); ++i) {
    const Attribute& attr = schema.attribute(i);
    const Value& v = record[i];
    if (v.is_null()) continue;
    if (attr.data_kind == DataKind::kNumeric && !v.is_numeric()) {
      return Status::InvalidArgument("non-numeric value for numeric attribute " +
                                     attr.name);
    }
    if (attr.data_kind != DataKind::kNumeric && !v.is_text()) {
      return Status::InvalidArgument("non-text value for text attribute " +
                                     attr.name);
    }
  }
  return Status::OK();
}

}  // namespace cqads::db
