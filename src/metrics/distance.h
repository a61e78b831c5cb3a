/// \file distance.h
/// \brief Value- and record-level distances on categorical data.
///
/// Nominal categories are at distance 0 (equal) or 1 (different). Ordinal
/// categories are at normalized rank distance |a - b| / (cardinality - 1).
/// Record distance over an attribute set is the mean of value distances —
/// the distance used by DBIL, DBRL and the RSRL attack's candidate ranking.

#ifndef EVOCAT_METRICS_DISTANCE_H_
#define EVOCAT_METRICS_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace evocat {
namespace metrics {

/// \brief Normalized distance in [0,1] between two categories of `attr`.
double ValueDistance(const Attribute& attr, int32_t a, int32_t b);

/// \brief Precomputed per-attribute value-distance lookup tables.
///
/// `Table(i)` is a flattened `card x card` matrix for the i-th bound
/// attribute; `Record(x_codes, y_codes)` sums table lookups — the inner loop
/// of every O(n^2) linkage measure.
class DistanceTables {
 public:
  DistanceTables(const Dataset& dataset, const std::vector<int>& attrs);

  /// \brief Tables from explicit per-attribute `card x card` value matrices
  /// (row-major, original code first), bound to positions 0..A-1. For
  /// kernels that must work on any distance, such as the lattice sweep's
  /// exactness check.
  static DistanceTables FromValues(std::vector<std::vector<float>> values);

  /// \brief Distance between codes `a` and `b` of bound attribute `i`.
  double At(size_t i, int32_t a, int32_t b) const {
    const auto& t = tables_[i];
    return t.values[static_cast<size_t>(a) * t.cardinality +
                    static_cast<size_t>(b)];
  }

  /// \brief Mean value distance between record `rx` of `x` and `ry` of `y`
  /// over the bound attributes.
  double RecordDistance(const Dataset& x, int64_t rx, const Dataset& y,
                        int64_t ry) const;

  /// \brief `RecordDistance` from two flat code tuples (one code per bound
  /// attribute, in bound order). Same summation order and single divide, so
  /// the result is bit-identical to the dataset overload for equal codes —
  /// the kernel of the pattern-clustered linkage states.
  double RecordDistanceCodes(const int32_t* x_codes,
                             const int32_t* y_codes) const {
    double sum = 0.0;
    for (size_t i = 0; i < attrs_.size(); ++i) {
      sum += At(i, x_codes[i], y_codes[i]);
    }
    return sum / static_cast<double>(attrs_.size());
  }

  const std::vector<int>& attrs() const { return attrs_; }

  /// \brief Cardinality of bound attribute `i` (the table is card x card).
  size_t cardinality(size_t i) const { return tables_[i].cardinality; }

 private:
  DistanceTables() = default;

  struct Table {
    size_t cardinality;
    std::vector<float> values;
  };
  std::vector<int> attrs_;
  std::vector<Table> tables_;
};

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_DISTANCE_H_
