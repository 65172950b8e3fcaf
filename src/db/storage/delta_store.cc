#include "db/storage/delta_store.h"

#include <algorithm>

namespace cqads::db {

Result<RowId> DeltaStore::Insert(Record record) {
  auto local = table_.Insert(std::move(record));
  if (!local.ok()) return local.status();
  retired_delta_.push_back(0);
  ++live_delta_rows_;
  return static_cast<RowId>(base_rows_ + local.value());
}

Status DeltaStore::Retire(RowId global_row) {
  if (global_row < base_rows_) {
    auto it =
        std::lower_bound(retired_base_.begin(), retired_base_.end(), global_row);
    if (it != retired_base_.end() && *it == global_row) {
      return Status::NotFound("row already retired: " +
                              std::to_string(global_row));
    }
    retired_base_.insert(it, global_row);
    return Status::OK();
  }
  const std::size_t local = global_row - base_rows_;
  if (local >= num_rows()) {
    return Status::OutOfRange("row id out of range: " +
                              std::to_string(global_row));
  }
  if (retired_delta_[local]) {
    return Status::NotFound("row already retired: " +
                            std::to_string(global_row));
  }
  retired_delta_[local] = 1;
  --live_delta_rows_;
  return Status::OK();
}

std::vector<Record> DeltaStore::MergedRecords(const Table& base) const {
  std::vector<Record> out;
  out.reserve(base.num_rows() - retired_base_.size() + live_delta_rows_);
  std::size_t next_retired = 0;
  for (RowId r = 0; r < base.num_rows(); ++r) {
    if (next_retired < retired_base_.size() &&
        retired_base_[next_retired] == r) {
      ++next_retired;
      continue;
    }
    out.push_back(base.row(r));
  }
  for (RowId i = 0; i < num_rows(); ++i) {
    if (!retired_delta_[i]) out.push_back(table_.row(i));
  }
  return out;
}

DeltaStore DeltaStore::FrozenCopy() const {
  DeltaStore out(table_.FrozenCopy(), base_rows_);
  out.retired_delta_ = retired_delta_;
  out.retired_base_ = retired_base_;
  out.live_delta_rows_ = live_delta_rows_;
  return out;
}

}  // namespace cqads::db
