#include "db/storage/column_store.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/string_util.h"
#include "db/compare.h"
#include "text/shorthand.h"

namespace cqads::db {

namespace {

/// Exact interning key: payload kind tag + exact payload, so Int(5),
/// Real(5.0), and Text("5") intern as distinct dictionary entries, two
/// reals that round to the same display text do not collapse, and int64s
/// beyond double precision (>= 2^53) stay distinct.
std::string DictKey(const Value& v) {
  if (v.is_text()) return 't' + v.text();
  if (v.is_int()) return 'i' + v.AsText();  // exact decimal rendering
  double d = v.AsDouble();
  char bits[sizeof(double)];
  std::memcpy(bits, &d, sizeof(double));
  std::string key;
  key.reserve(1 + sizeof(double));
  key.push_back('r');
  key.append(bits, sizeof(double));
  return key;
}

}  // namespace

ColumnStore::ColumnStore(const Schema& schema)
    : cols_(schema.num_attributes()), interns_(schema.num_attributes()) {
  kinds_.reserve(schema.num_attributes());
  for (std::size_t a = 0; a < cols_.size(); ++a) {
    kinds_.push_back(schema.attribute(a).data_kind);
    cols_[a].elem_offsets.push_back(0);
  }
}

std::uint32_t ColumnStore::InternValue(std::size_t attr, const Value& v,
                                       bool numeric) {
  Column* col = &cols_[attr];
  auto& lookup = interns_[attr].dict;
  std::string key = DictKey(v);
  auto it = lookup.find(key);
  if (it != lookup.end()) return it->second;
  const auto code = static_cast<std::uint32_t>(col->dict.size());
  col->dict.push_back(v);
  // Only numeric columns are probed through the canonical rendering
  // (kContains); text columns already expose their text via the element
  // dictionary, so caching a second copy would just double string memory.
  if (numeric) col->rendered.push_back(CanonicalContainsText(v));
  lookup.emplace(std::move(key), code);
  return code;
}

std::uint32_t ColumnStore::InternElement(std::size_t attr,
                                         std::string element) {
  Column* col = &cols_[attr];
  auto& lookup = interns_[attr].elem;
  auto it = lookup.find(element);
  if (it != lookup.end()) return it->second;
  const auto code = static_cast<std::uint32_t>(col->elem_dict.size());
  col->elem_dict.push_back(element);
  col->elem_norms.push_back(text::NormalizeForShorthand(element));
  lookup.emplace(std::move(element), code);
  return code;
}

RowId ColumnStore::Append(const Record& record) {
  // A store restored from a mapped snapshot (or a FrozenCopy) has no intern
  // tables; Table::Insert guards this with a FailedPrecondition before ever
  // reaching here.
  assert(!frozen_ && "Append on a frozen ColumnStore");
  const RowId row = static_cast<RowId>(num_rows_);
  for (std::size_t a = 0; a < cols_.size(); ++a) {
    Column& col = cols_[a];
    const Value& v = record[a];
    const bool numeric = kinds_[a] == DataKind::kNumeric;

    auto& null_bits = col.null_bits.vec();
    if (null_bits.size() * 64 <= row) null_bits.push_back(0);
    if (v.is_null()) {
      col.codes.push_back(kNullCode);
      null_bits[row / 64] |= std::uint64_t{1} << (row % 64);
      if (numeric) {
        col.packed.push_back(std::numeric_limits<double>::quiet_NaN());
      }
    } else {
      col.codes.push_back(InternValue(a, v, numeric));
      if (numeric) col.packed.push_back(v.AsDouble());
    }

    if (!numeric) {
      const auto span_begin = static_cast<std::uint32_t>(col.elem_codes.size());
      // Pre-tokenize: a TextList cell contributes its trimmed non-empty
      // ';'-members, a categorical cell its single verbatim value. This is
      // the one place list splitting happens; probes read code spans.
      if (!v.is_null() && v.is_text()) {
        if (kinds_[a] == DataKind::kTextList) {
          for (auto& part : Split(v.text(), ';')) {
            std::string trimmed = Trim(part);
            if (!trimmed.empty()) {
              col.elem_codes.push_back(InternElement(a, std::move(trimmed)));
            }
          }
        } else {
          col.elem_codes.push_back(InternElement(a, v.text()));
        }
      }
      col.elem_offsets.push_back(
          static_cast<std::uint32_t>(col.elem_codes.size()));
      // First intern of a distinct value (dict just grew): remember its
      // element span — every later row with this code repeats it exactly.
      if (col.dict_spans.size() < col.dict.size()) {
        col.dict_spans.push_back(DictSpan{
            span_begin, static_cast<std::uint32_t>(col.elem_codes.size())});
      }
    }
  }
  ++num_rows_;
  return row;
}

ColumnStore ColumnStore::FrozenCopy() const {
  ColumnStore out;
  out.kinds_ = kinds_;
  out.cols_ = cols_;
  out.num_rows_ = num_rows_;
  out.frozen_ = true;
  return out;
}

const Value& ColumnStore::cell(RowId row, std::size_t attr) const {
  static const Value kNull;
  const Column& col = cols_[attr];
  const std::uint32_t code = col.codes[row];
  return code == kNullCode ? kNull : col.dict[code];
}

Record ColumnStore::MaterializeRow(RowId row) const {
  Record out;
  out.reserve(cols_.size());
  for (std::size_t a = 0; a < cols_.size(); ++a) out.push_back(cell(row, a));
  return out;
}

std::pair<const std::uint32_t*, const std::uint32_t*> ColumnStore::ElementSpan(
    RowId row, std::size_t attr) const {
  const Column& col = cols_[attr];
  if (col.elem_offsets.size() <= row + 1) {  // numeric column: no elements
    return {nullptr, nullptr};
  }
  const std::uint32_t* base = col.elem_codes.data();
  return {base + col.elem_offsets[row], base + col.elem_offsets[row + 1]};
}

std::vector<std::string> ColumnStore::CellElements(RowId row,
                                                   std::size_t attr) const {
  auto [begin, end] = ElementSpan(row, attr);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  const Column& col = cols_[attr];
  for (const std::uint32_t* it = begin; it != end; ++it) {
    out.push_back(col.elem_dict[*it]);
  }
  return out;
}

std::string ColumnStore::RowText(RowId row) const {
  std::string out;
  for (std::size_t a = 0; a < cols_.size(); ++a) {
    const Value& v = cell(row, a);
    if (v.is_null()) continue;
    if (!out.empty()) out.push_back(' ');
    if (kinds_[a] == DataKind::kTextList) {
      out += ReplaceAll(v.text(), ";", " ");
    } else {
      out += v.AsText();
    }
  }
  return ToLower(out);
}

}  // namespace cqads::db
