#include "metrics/measure.h"

#include <unordered_map>

namespace evocat {
namespace metrics {

SegmentDelta::SegmentDelta(const SegmentDelta& other)
    : cells_(other.cells_), rows_(other.rows_) {
  RepointRows();
}

SegmentDelta& SegmentDelta::operator=(const SegmentDelta& other) {
  if (this != &other) {
    cells_ = other.cells_;
    rows_ = other.rows_;
    RepointRows();
  }
  return *this;
}

SegmentDelta SegmentDelta::FromCells(const std::vector<CellDelta>& cells) {
  SegmentDelta segment;
  // Operator batches arrive row-sorted (flat gene order), so the common case
  // is an append to the last row; the map covers arbitrary batches. First
  // pass establishes row order and sizes, second scatters the cells so each
  // row's slice is contiguous in the flat array.
  std::unordered_map<int64_t, size_t> index;
  for (const CellDelta& delta : cells) {
    if (!segment.rows_.empty() && segment.rows_.back().row == delta.row) {
      ++segment.rows_.back().cells.count;
      continue;
    }
    auto it = index.find(delta.row);
    if (it == index.end()) {
      index.emplace(delta.row, segment.rows_.size());
      segment.rows_.push_back(RowDelta{delta.row, CellSpan{nullptr, 1}});
    } else {
      ++segment.rows_[it->second].cells.count;
    }
  }
  std::vector<size_t> cursor(segment.rows_.size(), 0);
  size_t offset = 0;
  for (size_t r = 0; r < segment.rows_.size(); ++r) {
    cursor[r] = offset;
    offset += segment.rows_[r].cells.count;
  }
  segment.cells_.resize(cells.size());
  for (const CellDelta& delta : cells) {
    segment.cells_[cursor[index[delta.row]]++] = delta;
  }
  segment.RepointRows();
  return segment;
}

void SegmentDelta::Append(int64_t row, int attr, int32_t old_code,
                          int32_t new_code) {
  const size_t capacity = cells_.capacity();
  cells_.push_back(CellDelta{row, attr, old_code, new_code});
  if (rows_.empty() || rows_.back().row != row) {
    rows_.push_back(RowDelta{row, CellSpan{&cells_.back(), 1}});
  } else {
    ++rows_.back().cells.count;
  }
  if (cells_.capacity() != capacity) RepointRows();
}

void SegmentDelta::RepointRows() {
  const CellDelta* base = cells_.data();
  size_t offset = 0;
  for (RowDelta& row : rows_) {
    row.cells.data = base + offset;
    offset += row.cells.count;
  }
}

namespace {

/// Correct-by-construction fallback: every ApplySegment is a full Compute of
/// the post-image. Used for measures without a true delta implementation.
class FullRecomputeState : public MeasureState {
 public:
  FullRecomputeState(const BoundMeasure* bound, double initial_score)
      : bound_(bound), score_(initial_score), prev_score_(initial_score) {}

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    prev_score_ = score_;
    if (!segment.empty()) score_ = bound_->Compute(masked_after);
  }

  void RevertSegment() override { score_ = prev_score_; }

  double Score() const override { return score_; }

 private:
  const BoundMeasure* bound_;
  double score_;
  double prev_score_;
};

}  // namespace

std::unique_ptr<MeasureState> BoundMeasure::BindState(
    const Dataset& masked) const {
  return std::make_unique<FullRecomputeState>(this, Compute(masked));
}

Status ValidateComparable(const Dataset& original, const Dataset& masked,
                          const std::vector<int>& attrs) {
  if (original.num_rows() == 0) {
    return Status::Invalid("original dataset is empty");
  }
  if (original.num_rows() != masked.num_rows()) {
    return Status::Invalid("row count mismatch: original ", original.num_rows(),
                           " vs masked ", masked.num_rows());
  }
  if (original.schema_ptr() != masked.schema_ptr()) {
    return Status::Invalid(
        "masked file must share the original's schema (dictionaries must be "
        "identical for codes to be comparable)");
  }
  if (attrs.empty()) {
    return Status::Invalid("no attributes given");
  }
  for (int a : attrs) {
    if (a < 0 || a >= original.num_attributes()) {
      return Status::OutOfRange("attribute index ", a, " out of range");
    }
  }
  return Status::OK();
}

Result<double> Measure::Compute(const Dataset& original, const Dataset& masked,
                                const std::vector<int>& attrs) const {
  EVOCAT_RETURN_NOT_OK(ValidateComparable(original, masked, attrs));
  EVOCAT_ASSIGN_OR_RETURN(auto bound, Bind(original, attrs));
  return bound->Compute(masked);
}

}  // namespace metrics
}  // namespace evocat
