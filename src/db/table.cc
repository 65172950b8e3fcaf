#include "db/table.h"

#include "db/row_match.h"

namespace cqads::db {

Result<RowId> Table::Insert(Record record) {
  if (store_.frozen()) {
    return Status::FailedPrecondition(
        "table is a frozen read-only store (mapped snapshot or published "
        "copy); route new ads through DeltaStore ingest");
  }
  CQADS_RETURN_NOT_OK(ValidateRecord(schema_, record));
  const RowId id = store_.Append(record);
  indexes_built_ = false;
  stats_.reset();
  return id;
}

Table Table::FrozenCopy() const {
  Table out(schema_);
  out.store_ = store_.FrozenCopy();
  return out;
}

void Table::BuildIndexes() {
  const std::size_t n_attrs = schema_.num_attributes();
  hash_indexes_.assign(n_attrs, HashIndex());
  sorted_indexes_.assign(n_attrs, SortedIndex());
  ngram_indexes_.assign(n_attrs, NGramIndex());

  for (RowId row = 0; row < store_.num_rows(); ++row) {
    for (std::size_t a = 0; a < n_attrs; ++a) {
      if (store_.is_null(row, a)) continue;
      if (schema_.attribute(a).data_kind == DataKind::kNumeric) {
        sorted_indexes_[a].Add(store_.numeric_column(a)[row], row);
      } else {
        // Postings come straight from the store's pre-tokenized element
        // spans — no per-row re-splitting.
        auto [begin, end] = store_.ElementSpan(row, a);
        const auto& elem_dict = store_.element_dictionary(a);
        for (const std::uint32_t* it = begin; it != end; ++it) {
          hash_indexes_[a].Add(elem_dict[*it], row);
          ngram_indexes_[a].Add(elem_dict[*it], row);
        }
      }
    }
  }
  for (auto& idx : sorted_indexes_) idx.Seal();
  stats_ = std::make_shared<const exec::TableStats>(
      exec::TableStats::Collect(schema_, store_));
  indexes_built_ = true;
}

RowSet Table::AllRows() const {
  RowSet out(store_.num_rows());
  for (RowId i = 0; i < store_.num_rows(); ++i) out[i] = i;
  return out;
}

const HashIndex* Table::hash_index(std::size_t attr) const {
  if (!indexes_built_ || attr >= hash_indexes_.size()) return nullptr;
  if (schema_.attribute(attr).data_kind == DataKind::kNumeric) return nullptr;
  return &hash_indexes_[attr];
}

const SortedIndex* Table::sorted_index(std::size_t attr) const {
  if (!indexes_built_ || attr >= sorted_indexes_.size()) return nullptr;
  if (schema_.attribute(attr).data_kind != DataKind::kNumeric) return nullptr;
  return &sorted_indexes_[attr];
}

const NGramIndex* Table::ngram_index(std::size_t attr) const {
  if (!indexes_built_ || attr >= ngram_indexes_.size()) return nullptr;
  if (schema_.attribute(attr).data_kind == DataKind::kNumeric) return nullptr;
  return &ngram_indexes_[attr];
}

Result<std::pair<double, double>> Table::NumericRange(std::size_t attr) const {
  if (attr >= schema_.num_attributes()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (schema_.attribute(attr).data_kind != DataKind::kNumeric) {
    return Status::InvalidArgument("attribute is not numeric: " +
                                   schema_.attribute(attr).name);
  }
  if (!indexes_built_) {
    return Status::FailedPrecondition("indexes not built");
  }
  const SortedIndex& idx = sorted_indexes_[attr];
  if (idx.empty()) return Status::NotFound("no values for attribute");
  return std::make_pair(idx.MinKey(), idx.MaxKey());
}

}  // namespace cqads::db
