/// \file plane.h
/// \brief The data plane: shard geometry, pattern clustering and the lattice
/// sweep that every incremental measure state builds on.
///
/// There is one plane; production, tests and benches all run it. Three
/// pieces make the measures production-scale without changing a score bit:
///
///  - **Sharding** splits row ranges contiguously across the scheduler that
///    runs the caller (`ResolveShardCount`) so state (re)builds within *one*
///    individual parallelize. Every shard produces integer partials (counts,
///    joint tables, insertion-ordered pattern tables) merged serially in
///    shard index order, so the merged result is bit-identical to a serial
///    scan for *any* shard count — the invariant the shard-determinism tests
///    pin down by running the same walk on 1-, 3- and 8-worker schedulers.
///  - **Pattern clustering** groups rows with identical code tuples over the
///    bound attributes. Categorical files at 10^5..10^6 rows carry only
///    C << n distinct tuples (the AdultProfile protected attributes admit at
///    most 16*7*14 = 1568), so the DBRL/PRL/RSRL states keep one record per
///    original cluster and their O(n) per-row scans collapse to O(C).
///  - **The lattice sweep** builds those per-cluster records without pairing
///    every original cluster with every masked group. It walks the code
///    lattice (every code tuple of the bound attributes, L = prod of the
///    cardinalities) one attribute at a time, turning that attribute's
///    masked code into an original code, in O(L * sum K_k) for the distance
///    measures and O(L * 2^A) for PRL instead of the O(C*G*A) pair fold. It
///    runs only where it provably returns the fold's bits, is cheaper, and
///    its scratch fits in `kSweepBytesPerRow` bytes per original row;
///    otherwise the fold runs (see `ChooseStateKernel`).

#ifndef EVOCAT_METRICS_PLANE_H_
#define EVOCAT_METRICS_PLANE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "metrics/delta.h"
#include "metrics/distance.h"

namespace evocat {
namespace metrics {

/// \brief Shard count for a state build: the worker count of the scheduler
/// whose worker runs the caller (`TaskScheduler::Current()`), or of the
/// process-wide scheduler on any other thread. Never below 1. A job on a
/// 1-worker daemon therefore builds in one shard instead of splitting its
/// scans into hardware-many shards that run serially on its one worker.
int ResolveShardCount();

/// \brief A contiguous row range [begin, end).
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
};

/// \brief Shard `shard` of `rows` rows split into `shards` contiguous
/// ascending ranges: [shard*rows/shards, (shard+1)*rows/shards).
RowRange ShardRows(int64_t rows, int shard, int shards);

/// \brief Runs `fn(shard, range)` for every *non-empty* shard range, in
/// parallel over the TaskScheduler. Empty shards (rows < shards) are skipped
/// so they contribute identity to any merge instead of a degenerate partial.
void ForEachShard(int64_t rows, int shards,
                  const std::function<void(int, RowRange)>& fn);

/// \brief Static clustering of a dataset's rows by identical code tuples
/// over a fixed attribute set.
///
/// Cluster ids follow global first-occurrence (row-scan) order regardless of
/// the shard count used to build: per-shard insertion-ordered local tables
/// are merged serially in shard index order, and shard ranges are contiguous
/// ascending — so the merged order equals the serial scan order. Built once
/// per bound measure over the *original* file.
class PatternIndex {
 public:
  PatternIndex() = default;

  static PatternIndex Build(const Dataset& dataset,
                            const std::vector<int>& attrs, int shards);

  int64_t num_clusters() const {
    return static_cast<int64_t>(sizes_.size());
  }
  int64_t num_rows() const { return static_cast<int64_t>(row_cluster_.size()); }
  size_t num_attrs() const { return num_attrs_; }

  int32_t cluster_of(int64_t row) const {
    return row_cluster_[static_cast<size_t>(row)];
  }
  int64_t cluster_size(int64_t cluster) const {
    return sizes_[static_cast<size_t>(cluster)];
  }
  /// \brief The cluster's code tuple (one code per attribute, bound order).
  const int32_t* codes(int64_t cluster) const {
    return codes_.data() + static_cast<size_t>(cluster) * num_attrs_;
  }

 private:
  std::vector<int32_t> row_cluster_;  ///< row -> cluster id
  std::vector<int64_t> sizes_;        ///< cluster -> row count
  std::vector<int32_t> codes_;        ///< flat C x A code tuples
  size_t num_attrs_ = 0;
};

/// \brief Dynamic pattern groups over a *masked* file's code tuples.
///
/// Same deterministic first-occurrence id order as `PatternIndex`, plus
/// find-or-create maintenance under segment deltas: `ApplyRow` moves a row
/// to the group of its new tuple (creating one if unseen) and logs the move;
/// `UndoMoves` replays a log backwards. Groups are never deleted — a group
/// emptied by moves keeps its id at size 0, so the id sequence stays
/// deterministic across apply/revert cycles.
class MaskedGroups {
 public:
  /// One row's group transition, as logged by `ApplyRow`.
  struct Move {
    int64_t row = 0;
    int32_t old_group = 0;
  };

  MaskedGroups() = default;

  static MaskedGroups Build(const Dataset& masked,
                            const std::vector<int>& attrs, int shards);

  int64_t num_groups() const { return static_cast<int64_t>(sizes_.size()); }
  size_t num_attrs() const { return num_attrs_; }

  int32_t group_of(int64_t row) const {
    return row_group_[static_cast<size_t>(row)];
  }
  int64_t group_size(int64_t group) const {
    return sizes_[static_cast<size_t>(group)];
  }
  const int32_t* codes(int64_t group) const {
    return codes_.data() + static_cast<size_t>(group) * num_attrs_;
  }

  /// \brief Moves `row` to the group of `new_codes` (its full post-change
  /// tuple, bound order), creating the group if unseen, and appends the move
  /// to `undo` when the group actually changes. Returns the new group id.
  int32_t ApplyRow(int64_t row, const int32_t* new_codes,
                   std::vector<Move>* undo);

  /// \brief Finds the group of a tuple, creating it (size 0) if unseen.
  int32_t FindOrCreate(const int32_t* codes);

  /// \brief Replays a move log backwards, restoring each row's old group.
  void UndoMoves(const std::vector<Move>& moves);

 private:
  std::vector<int32_t> row_group_;  ///< row -> group id
  std::vector<int64_t> sizes_;      ///< group -> row count
  std::vector<int32_t> codes_;      ///< flat G x A code tuples
  /// hash(tuple) -> candidate group ids (collision-safe via code compare)
  std::unordered_map<uint64_t, std::vector<int32_t>> buckets_;
  size_t num_attrs_ = 0;
};

/// \brief Mixed-radix geometry of the code lattice: every code tuple over a
/// fixed attribute set, indexed row-major (the first bound attribute is the
/// most significant digit).
class CodeLattice {
 public:
  CodeLattice() = default;
  explicit CodeLattice(std::vector<int64_t> cards);

  /// \brief The lattice of `attrs`' schema cardinalities.
  static CodeLattice Of(const Dataset& dataset, const std::vector<int>& attrs);

  size_t num_attrs() const { return cards_.size(); }
  int64_t card(size_t k) const { return cards_[k]; }
  int64_t stride(size_t k) const { return strides_[k]; }
  /// \brief L = prod of the cardinalities, saturated at INT64_MAX (a
  /// saturated lattice is never swept, so its strides are never read).
  int64_t size() const { return size_; }
  int64_t sum_cards() const { return sum_cards_; }

  /// \brief Row-major index of a code tuple (bound order).
  int64_t Index(const int32_t* codes) const {
    int64_t index = 0;
    for (size_t k = 0; k < cards_.size(); ++k) index += codes[k] * strides_[k];
    return index;
  }

 private:
  std::vector<int64_t> cards_;
  std::vector<int64_t> strides_;
  int64_t size_ = 1;
  int64_t sum_cards_ = 0;
};

/// \brief The kernel that built a linkage state's per-cluster records.
enum class StateKernel { kSweep, kFold };

/// \brief Scratch bytes a state build may spend on the lattice sweep per
/// original row. One rule for DBRL, PRL and RSRL: a sweep whose scratch
/// exceeds 32 B x rows would outweigh the per-row state the build produces,
/// so the fold runs instead.
inline constexpr int64_t kSweepBytesPerRow = 32;

/// \brief The sweep-or-fold rule shared by every linkage state build: sweep
/// only when it provably gives the fold's bits (`exact`), when it is no more
/// work (`sweep_cost <= fold_cost`), and when its scratch fits the budget
/// (`scratch_bytes <= budget_bytes`; the builds pass kSweepBytesPerRow x
/// rows).
StateKernel ChooseStateKernel(bool exact, int64_t sweep_cost,
                              int64_t fold_cost, int64_t scratch_bytes,
                              int64_t budget_bytes);

/// \brief RSRL candidate windows: `(*cand)[k][o * card_k + m]` is nonzero
/// when original code o and masked code m of bound attribute k lie within
/// the window. A null mask admits every pair (DBRL).
using CandidateMasks = std::vector<std::vector<uint8_t>>;

/// \brief Whether the min-plus lattice sweep reproduces the pair fold bit
/// for bit on these tables. True when every sum of one table value per
/// attribute is exact in double (all values are multiples of one power of
/// two q, and the largest sum stays below 2^52 q) and distinct sums, after
/// the fold's divide by A, land more than 2 * kLinkageEps apart. Then the
/// fold's epsilon-tie scan is an exact min with exact tie counts, which is
/// what the sweep computes.
bool LinkageSweepExact(const DistanceTables& tables);

/// \brief The pair fold: one original code tuple against every non-empty
/// masked group in group id order (candidate-filtered when `cand` is set).
/// The reference kernel, and the per-cluster rescan of the delta paths.
LinkageRowBest FoldLinkage(const int32_t* codes, const MaskedGroups& groups,
                           const DistanceTables& tables,
                           const CandidateMasks* cand);

/// \brief Scratch bytes `SweepLinkage` allocates on `lattice` (saturating).
int64_t LinkageSweepBytes(const CodeLattice& lattice);

/// \brief The lattice kernel: the records `FoldLinkage` returns for every
/// cluster, by a min-plus sweep with tie counts, one attribute at a time.
/// Matches the fold bit for bit only when `LinkageSweepExact(tables)` holds;
/// callers go through `BuildLinkageBest`, which checks.
std::vector<LinkageRowBest> SweepLinkage(const CodeLattice& lattice,
                                         const PatternIndex& clusters,
                                         const MaskedGroups& groups,
                                         const DistanceTables& tables,
                                         const CandidateMasks* cand);

/// \brief The DBRL/RSRL state build: one `LinkageRowBest` per original
/// cluster (self flag clear) against the masked groups, by the sweep when
/// `ChooseStateKernel` allows it (`exact` is `LinkageSweepExact(tables)`,
/// computed once at bind; budget `kSweepBytesPerRow` x the original's rows)
/// and by the parallel pair fold otherwise. Counts the build under
/// `evocat_delta_state_builds_total{measure,kernel}`.
StateKernel BuildLinkageBest(const char* measure, const CodeLattice& lattice,
                             bool exact, const PatternIndex& clusters,
                             const MaskedGroups& groups,
                             const DistanceTables& tables,
                             const CandidateMasks* cand,
                             std::vector<LinkageRowBest>* cluster_best);

/// One nonzero agreement-pattern bucket: (pattern bitmask, pair count).
using PatternCount = std::pair<uint32_t, int32_t>;
/// Sorted, zero-free agreement-pattern histogram.
using PatternHistogram = std::vector<PatternCount>;

/// \brief The pair fold for PRL: agreement-pattern histogram (bit k set when
/// the codes of bound attribute k agree) of one original code tuple against
/// every non-empty masked group.
PatternHistogram FoldPatterns(const int32_t* codes,
                              const MaskedGroups& groups);

/// \brief The lattice kernel for PRL: every cluster's `FoldPatterns`
/// histogram by an integer sweep (exact in any order).
std::vector<PatternHistogram> SweepPatterns(const CodeLattice& lattice,
                                            const PatternIndex& clusters,
                                            const MaskedGroups& groups);

/// \brief The PRL state build: every cluster's histogram by the sweep when
/// `ChooseStateKernel` allows it (same budget as `BuildLinkageBest`), by the
/// parallel pair fold otherwise; counted like `BuildLinkageBest`.
StateKernel BuildPatternHistograms(const CodeLattice& lattice,
                                   const PatternIndex& clusters,
                                   const MaskedGroups& groups,
                                   std::vector<PatternHistogram>* hist);

/// \brief Deterministic 64-bit hash of a code tuple (shared by the pattern
/// tables; quality matters only for bucket spread, equality is by compare).
uint64_t HashCodes(const int32_t* codes, size_t n);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_PLANE_H_
