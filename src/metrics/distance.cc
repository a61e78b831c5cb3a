#include "metrics/distance.h"

#include <cmath>

namespace evocat {
namespace metrics {

double ValueDistance(const Attribute& attr, int32_t a, int32_t b) {
  if (a == b) return 0.0;
  if (attr.kind() == AttrKind::kNominal) return 1.0;
  int denom = attr.cardinality() - 1;
  if (denom <= 0) return 0.0;
  return std::fabs(static_cast<double>(a) - static_cast<double>(b)) /
         static_cast<double>(denom);
}

DistanceTables::DistanceTables(const Dataset& dataset,
                               const std::vector<int>& attrs)
    : attrs_(attrs) {
  tables_.reserve(attrs.size());
  for (int attr_idx : attrs) {
    const Attribute& attr = dataset.schema().attribute(attr_idx);
    Table table;
    table.cardinality = static_cast<size_t>(attr.cardinality());
    table.values.resize(table.cardinality * table.cardinality);
    for (size_t a = 0; a < table.cardinality; ++a) {
      for (size_t b = 0; b < table.cardinality; ++b) {
        table.values[a * table.cardinality + b] = static_cast<float>(
            ValueDistance(attr, static_cast<int32_t>(a), static_cast<int32_t>(b)));
      }
    }
    tables_.push_back(std::move(table));
  }
}

DistanceTables DistanceTables::FromValues(
    std::vector<std::vector<float>> values) {
  DistanceTables tables;
  for (auto& matrix : values) {
    Table table;
    table.cardinality = static_cast<size_t>(
        std::llround(std::sqrt(static_cast<double>(matrix.size()))));
    table.values = std::move(matrix);
    tables.attrs_.push_back(static_cast<int>(tables.tables_.size()));
    tables.tables_.push_back(std::move(table));
  }
  return tables;
}

double DistanceTables::RecordDistance(const Dataset& x, int64_t rx,
                                      const Dataset& y, int64_t ry) const {
  double sum = 0.0;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    sum += At(i, x.Code(rx, attrs_[i]), y.Code(ry, attrs_[i]));
  }
  return attrs_.empty() ? 0.0 : sum / static_cast<double>(attrs_.size());
}

}  // namespace metrics
}  // namespace evocat
