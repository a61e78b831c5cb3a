#include "metrics/plane.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "common/parallel.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace evocat {
namespace metrics {

namespace {

obs::Histogram* ShardScanSecondsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "evocat_plane_shard_scan_seconds",
          "Wall time of one ForEachShard fan-out (shard scan + merge fence).");
  return histogram;
}

obs::Counter* ClusterHitsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_plane_cluster_hits_total",
      "Masked-group lookups that landed on an existing pattern cluster.");
  return counter;
}

obs::Counter* ClusterMissesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_plane_cluster_misses_total",
      "Masked-group lookups that created a new pattern cluster.");
  return counter;
}

const char* StateKernelName(StateKernel kernel) {
  return kernel == StateKernel::kSweep ? "sweep" : "fold";
}

void CountStateBuild(const char* measure, StateKernel kernel) {
  obs::MetricsRegistry::Global()
      .GetCounter("evocat_delta_state_builds_total",
                  "Linkage state builds and threshold rebuilds, by the kernel "
                  "that built the per-cluster records (lattice sweep or "
                  "cluster x group pair fold).",
                  {{"measure", measure}, {"kernel", StateKernelName(kernel)}})
      ->Increment();
}

/// a * b, saturated at INT64_MAX (operands are non-negative).
int64_t SaturatingMul(int64_t a, int64_t b) {
  int64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) return INT64_MAX;
  return product;
}

/// The sweep's scratch budget: kSweepBytesPerRow per original row.
int64_t SweepBudgetBytes(const PatternIndex& clusters) {
  return SaturatingMul(kSweepBytesPerRow, clusters.num_rows());
}

}  // namespace

int ResolveShardCount() {
  TaskScheduler* current = TaskScheduler::Current();
  int workers = current != nullptr ? current->num_workers()
                                   : TaskScheduler::Shared().num_workers();
  return workers < 1 ? 1 : workers;
}

RowRange ShardRows(int64_t rows, int shard, int shards) {
  RowRange range;
  range.begin = rows * static_cast<int64_t>(shard) / shards;
  range.end = rows * (static_cast<int64_t>(shard) + 1) / shards;
  return range;
}

void ForEachShard(int64_t rows, int shards,
                  const std::function<void(int, RowRange)>& fn) {
  if (shards < 1) shards = 1;
  const bool timed = obs::MetricsEnabled();
  Timer timer;
  ParallelFor(0, shards, [&](int64_t shard) {
    RowRange range = ShardRows(rows, static_cast<int>(shard), shards);
    // A shard with no rows contributes identity to the merge: it is skipped
    // outright instead of producing a degenerate (NaN-prone) partial.
    if (range.empty()) return;
    fn(static_cast<int>(shard), range);
  });
  if (timed) ShardScanSecondsHistogram()->Observe(timer.ElapsedSeconds());
}

uint64_t HashCodes(const int32_t* codes, size_t n) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(codes[i])) +
         0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
  }
  return h;
}

namespace {

/// One shard's insertion-ordered pattern table: tuple -> dense local id.
struct LocalPatterns {
  std::unordered_map<uint64_t, std::vector<int32_t>> buckets;
  std::vector<int32_t> codes;  ///< flat local C x A
  std::vector<int64_t> sizes;

  int32_t FindOrCreate(const int32_t* tuple, size_t num_attrs) {
    auto& bucket = buckets[HashCodes(tuple, num_attrs)];
    for (int32_t cand : bucket) {
      if (std::equal(tuple, tuple + num_attrs,
                     codes.begin() +
                         static_cast<size_t>(cand) * num_attrs)) {
        return cand;
      }
    }
    auto id = static_cast<int32_t>(sizes.size());
    codes.insert(codes.end(), tuple, tuple + num_attrs);
    sizes.push_back(0);
    bucket.push_back(id);
    return id;
  }
};

/// Shard-and-merge pattern build shared by PatternIndex and MaskedGroups.
///
/// Per-shard tables record first-occurrence order within their contiguous
/// range; merging them serially in shard index order therefore reproduces
/// the global serial-scan first-occurrence order for any shard count.
/// `row_id` receives temporary local ids during the scan and final global
/// ids after the remap.
void BuildPatterns(const Dataset& dataset, const std::vector<int>& attrs,
                   int shards, std::vector<int32_t>* row_id,
                   std::vector<int64_t>* sizes, std::vector<int32_t>* codes,
                   std::unordered_map<uint64_t, std::vector<int32_t>>* buckets) {
  const int64_t rows = dataset.num_rows();
  const size_t num_attrs = attrs.size();
  row_id->assign(static_cast<size_t>(rows), 0);
  if (rows == 0 || num_attrs == 0) return;
  if (shards < 1) shards = 1;

  std::vector<const Dataset::Column*> columns;
  columns.reserve(num_attrs);
  for (int attr : attrs) columns.push_back(&dataset.column(attr));

  std::vector<LocalPatterns> locals(static_cast<size_t>(shards));
  ForEachShard(rows, shards, [&](int shard, RowRange range) {
    LocalPatterns& local = locals[static_cast<size_t>(shard)];
    std::vector<int32_t> tuple(num_attrs);
    for (int64_t r = range.begin; r < range.end; ++r) {
      for (size_t i = 0; i < num_attrs; ++i) {
        tuple[i] = (*columns[i])[static_cast<size_t>(r)];
      }
      int32_t id = local.FindOrCreate(tuple.data(), num_attrs);
      ++local.sizes[static_cast<size_t>(id)];
      (*row_id)[static_cast<size_t>(r)] = id;
    }
  });

  // Serial merge in shard index order: global ids = first-occurrence order.
  std::unordered_map<uint64_t, std::vector<int32_t>> global_buckets;
  std::vector<std::vector<int32_t>> remap(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    LocalPatterns& local = locals[static_cast<size_t>(s)];
    remap[static_cast<size_t>(s)].resize(local.sizes.size());
    for (size_t c = 0; c < local.sizes.size(); ++c) {
      const int32_t* tuple = local.codes.data() + c * num_attrs;
      auto& bucket = global_buckets[HashCodes(tuple, num_attrs)];
      int32_t id = -1;
      for (int32_t cand : bucket) {
        if (std::equal(tuple, tuple + num_attrs,
                       codes->begin() +
                           static_cast<size_t>(cand) * num_attrs)) {
          id = cand;
          break;
        }
      }
      if (id < 0) {
        id = static_cast<int32_t>(sizes->size());
        codes->insert(codes->end(), tuple, tuple + num_attrs);
        sizes->push_back(0);
        bucket.push_back(id);
      }
      (*sizes)[static_cast<size_t>(id)] += local.sizes[c];
      remap[static_cast<size_t>(s)][c] = id;
    }
  }

  ForEachShard(rows, shards, [&](int shard, RowRange range) {
    const std::vector<int32_t>& map = remap[static_cast<size_t>(shard)];
    for (int64_t r = range.begin; r < range.end; ++r) {
      auto& slot = (*row_id)[static_cast<size_t>(r)];
      slot = map[static_cast<size_t>(slot)];
    }
  });

  if (buckets != nullptr) *buckets = std::move(global_buckets);
}

}  // namespace

PatternIndex PatternIndex::Build(const Dataset& dataset,
                                 const std::vector<int>& attrs, int shards) {
  PatternIndex index;
  index.num_attrs_ = attrs.size();
  BuildPatterns(dataset, attrs, shards, &index.row_cluster_, &index.sizes_,
                &index.codes_, nullptr);
  return index;
}

MaskedGroups MaskedGroups::Build(const Dataset& masked,
                                 const std::vector<int>& attrs, int shards) {
  MaskedGroups groups;
  groups.num_attrs_ = attrs.size();
  BuildPatterns(masked, attrs, shards, &groups.row_group_, &groups.sizes_,
                &groups.codes_, &groups.buckets_);
  return groups;
}

int32_t MaskedGroups::FindOrCreate(const int32_t* codes) {
  auto& bucket = buckets_[HashCodes(codes, num_attrs_)];
  for (int32_t cand : bucket) {
    if (std::equal(codes, codes + num_attrs_,
                   codes_.begin() + static_cast<size_t>(cand) * num_attrs_)) {
      ClusterHitsCounter()->Increment();
      return cand;
    }
  }
  auto id = static_cast<int32_t>(sizes_.size());
  codes_.insert(codes_.end(), codes, codes + num_attrs_);
  sizes_.push_back(0);
  bucket.push_back(id);
  ClusterMissesCounter()->Increment();
  return id;
}

int32_t MaskedGroups::ApplyRow(int64_t row, const int32_t* new_codes,
                               std::vector<Move>* undo) {
  int32_t group = FindOrCreate(new_codes);
  int32_t old_group = row_group_[static_cast<size_t>(row)];
  if (group == old_group) return group;
  --sizes_[static_cast<size_t>(old_group)];
  ++sizes_[static_cast<size_t>(group)];
  row_group_[static_cast<size_t>(row)] = group;
  if (undo != nullptr) undo->push_back(Move{row, old_group});
  return group;
}

void MaskedGroups::UndoMoves(const std::vector<Move>& moves) {
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    int32_t current = row_group_[static_cast<size_t>(it->row)];
    --sizes_[static_cast<size_t>(current)];
    ++sizes_[static_cast<size_t>(it->old_group)];
    row_group_[static_cast<size_t>(it->row)] = it->old_group;
  }
}

CodeLattice::CodeLattice(std::vector<int64_t> cards)
    : cards_(std::move(cards)), strides_(cards_.size(), 0) {
  for (size_t k = cards_.size(); k-- > 0;) {
    strides_[k] = size_;
    size_ = SaturatingMul(size_, cards_[k]);
    sum_cards_ += cards_[k];
  }
}

CodeLattice CodeLattice::Of(const Dataset& dataset,
                            const std::vector<int>& attrs) {
  std::vector<int64_t> cards;
  cards.reserve(attrs.size());
  for (int attr : attrs) {
    cards.push_back(dataset.schema().attribute(attr).cardinality());
  }
  return CodeLattice(std::move(cards));
}

StateKernel ChooseStateKernel(bool exact, int64_t sweep_cost,
                              int64_t fold_cost, int64_t scratch_bytes,
                              int64_t budget_bytes) {
  return exact && sweep_cost <= fold_cost && scratch_bytes <= budget_bytes
             ? StateKernel::kSweep
             : StateKernel::kFold;
}

bool LinkageSweepExact(const DistanceTables& tables) {
  const size_t num_attrs = tables.attrs().size();
  if (num_attrs == 0) return false;
  // q = 2^min_exp is the largest power of two dividing every nonzero value
  // (the lowest set mantissa bit); every partial sum is a multiple of q.
  int min_exp = INT_MAX;
  double max_sum = 0.0;
  for (size_t k = 0; k < num_attrs; ++k) {
    const auto card = static_cast<int32_t>(tables.cardinality(k));
    double table_max = 0.0;
    for (int32_t a = 0; a < card; ++a) {
      for (int32_t b = 0; b < card; ++b) {
        double v = tables.At(k, a, b);
        if (!(v >= 0.0) || !std::isfinite(v)) return false;
        if (v == 0.0) continue;
        int exp = 0;
        double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
        auto bits = static_cast<uint64_t>(std::ldexp(mantissa, 53));
        min_exp = std::min(min_exp, exp - 53 + __builtin_ctzll(bits));
        table_max = std::max(table_max, v);
      }
    }
    max_sum += table_max;
  }
  if (min_exp == INT_MAX) return true;  // all-zero tables: one sum, 0
  // Exact sums: every multiple of q up to max_sum is a double. The bound
  // 2^52 (not 2^53) leaves room for the rounding of max_sum itself.
  if (std::ldexp(max_sum, -min_exp) >= std::ldexp(1.0, 52)) return false;
  // Separation: exact sums s < s' differ by at least q, and fl(s / A) is
  // within a relative 2^-53 of s / A, so the divided distances differ by at
  // least (q - 2^-52 * max_sum) / A. The 1e-6 slack covers this check's own
  // rounding.
  double gap = (std::ldexp(1.0, min_exp) - std::ldexp(max_sum, -52)) /
               static_cast<double>(num_attrs);
  return gap > 2.0 * kLinkageEps * (1.0 + 1e-6);
}

namespace {

bool Candidate(const CandidateMasks* cand, size_t k, int64_t card, int32_t o,
               int32_t m) {
  return cand == nullptr ||
         (*cand)[k][static_cast<size_t>(o) * static_cast<size_t>(card) +
                    static_cast<size_t>(m)] != 0;
}

}  // namespace

LinkageRowBest FoldLinkage(const int32_t* codes, const MaskedGroups& groups,
                           const DistanceTables& tables,
                           const CandidateMasks* cand) {
  const size_t num_attrs = tables.attrs().size();
  LinkageRowBest best;
  const int64_t num_groups = groups.num_groups();
  for (int64_t g = 0; g < num_groups; ++g) {
    int64_t size = groups.group_size(g);
    if (size <= 0) continue;
    const int32_t* gcodes = groups.codes(g);
    bool candidate = true;
    for (size_t k = 0; k < num_attrs && candidate; ++k) {
      candidate = Candidate(cand, k,
                            static_cast<int64_t>(tables.cardinality(k)),
                            codes[k], gcodes[k]);
    }
    if (!candidate) continue;
    LinkageAddN(&best, tables.RecordDistanceCodes(codes, gcodes), size);
  }
  return best;
}

int64_t LinkageSweepBytes(const CodeLattice& lattice) {
  return SaturatingMul(lattice.size(),
                       static_cast<int64_t>(sizeof(double) + sizeof(int32_t)));
}

std::vector<LinkageRowBest> SweepLinkage(const CodeLattice& lattice,
                                         const PatternIndex& clusters,
                                         const MaskedGroups& groups,
                                         const DistanceTables& tables,
                                         const CandidateMasks* cand) {
  const size_t num_attrs = lattice.num_attrs();
  const int64_t size = lattice.size();
  // Entry x of the lattice after step k holds, over every non-empty group g
  // whose codes at attributes >= k equal x's and whose attributes < k are
  // candidates against x's (original) codes there, the min of the partial
  // sums At(0, x_0, g_0) + ... + At(k-1, x_{k-1}, g_{k-1}) (added left to
  // right, as RecordDistanceCodes does) and the total size of the groups
  // attaining it. After the last step, entry x is cluster x's exact min sum.
  std::vector<double> sum(static_cast<size_t>(size), 0.0);
  std::vector<int32_t> count(static_cast<size_t>(size), 0);
  for (int64_t g = 0; g < groups.num_groups(); ++g) {
    auto x = static_cast<size_t>(lattice.Index(groups.codes(g)));
    count[x] = static_cast<int32_t>(groups.group_size(g));
  }
  std::vector<double> line_sum;
  std::vector<int32_t> line_count;
  for (size_t k = 0; k < num_attrs; ++k) {
    const int64_t card = lattice.card(k);
    const int64_t stride = lattice.stride(k);
    line_sum.resize(static_cast<size_t>(card));
    line_count.resize(static_cast<size_t>(card));
    // One line per setting of the other attributes: x = outer + m * stride.
    for (int64_t block = 0; block < size; block += card * stride) {
      for (int64_t outer = block; outer < block + stride; ++outer) {
        for (int64_t m = 0; m < card; ++m) {
          auto x = static_cast<size_t>(outer + m * stride);
          line_sum[static_cast<size_t>(m)] = sum[x];
          line_count[static_cast<size_t>(m)] = count[x];
        }
        for (int64_t o = 0; o < card; ++o) {
          double best = 0.0;
          int32_t best_count = 0;
          for (int64_t m = 0; m < card; ++m) {
            int32_t n = line_count[static_cast<size_t>(m)];
            if (n == 0) continue;
            auto oc = static_cast<int32_t>(o);
            auto mc = static_cast<int32_t>(m);
            if (!Candidate(cand, k, card, oc, mc)) continue;
            double s = line_sum[static_cast<size_t>(m)] + tables.At(k, oc, mc);
            if (best_count == 0 || s < best) {
              best = s;
              best_count = n;
            } else if (s == best) {
              best_count += n;
            }
          }
          auto x = static_cast<size_t>(outer + o * stride);
          sum[x] = best;
          count[x] = best_count;
        }
      }
    }
  }
  const double denom = static_cast<double>(num_attrs);
  std::vector<LinkageRowBest> cluster_best(
      static_cast<size_t>(clusters.num_clusters()));
  for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
    auto x = static_cast<size_t>(lattice.Index(clusters.codes(c)));
    if (count[x] == 0) continue;  // no candidate: the fold's empty record
    LinkageRowBest& row = cluster_best[static_cast<size_t>(c)];
    row.best = sum[x] / denom;
    row.count = count[x];
  }
  return cluster_best;
}

StateKernel BuildLinkageBest(const char* measure, const CodeLattice& lattice,
                             bool exact, const PatternIndex& clusters,
                             const MaskedGroups& groups,
                             const DistanceTables& tables,
                             const CandidateMasks* cand,
                             std::vector<LinkageRowBest>* cluster_best) {
  const int64_t num_clusters = clusters.num_clusters();
  StateKernel kernel = ChooseStateKernel(
      exact, SaturatingMul(lattice.size(), lattice.sum_cards()),
      SaturatingMul(num_clusters, groups.num_groups()),
      LinkageSweepBytes(lattice), SweepBudgetBytes(clusters));
  if (kernel == StateKernel::kSweep) {
    *cluster_best = SweepLinkage(lattice, clusters, groups, tables, cand);
  } else {
    cluster_best->assign(static_cast<size_t>(num_clusters), LinkageRowBest{});
    ParallelFor(0, num_clusters, [&](int64_t c) {
      (*cluster_best)[static_cast<size_t>(c)] =
          FoldLinkage(clusters.codes(c), groups, tables, cand);
    });
  }
  CountStateBuild(measure, kernel);
  return kernel;
}

namespace {

/// Narrow pattern spaces count into a dense 2^A scratch; wider ones sort the
/// (pattern, group size) pairs and merge runs. Both give the same buckets.
constexpr size_t kDensePatternAttrs = 12;

/// L * 2^A histogram slots of `SweepPatterns` (saturating).
int64_t PatternSweepSlots(const CodeLattice& lattice) {
  if (lattice.num_attrs() >= 62) return INT64_MAX;
  return SaturatingMul(lattice.size(), int64_t{1} << lattice.num_attrs());
}

}  // namespace

PatternHistogram FoldPatterns(const int32_t* codes,
                              const MaskedGroups& groups) {
  const size_t num_attrs = groups.num_attrs();
  const int64_t num_groups = groups.num_groups();
  auto pattern_of = [&](const int32_t* gcodes) {
    uint32_t pattern = 0;
    for (size_t k = 0; k < num_attrs; ++k) {
      if (codes[k] == gcodes[k]) pattern |= (1u << k);
    }
    return pattern;
  };
  PatternHistogram hist;
  if (num_attrs <= kDensePatternAttrs) {
    std::vector<int64_t> scratch(static_cast<size_t>(1) << num_attrs, 0);
    for (int64_t g = 0; g < num_groups; ++g) {
      int64_t size = groups.group_size(g);
      if (size > 0) scratch[pattern_of(groups.codes(g))] += size;
    }
    for (size_t p = 0; p < scratch.size(); ++p) {
      if (scratch[p] != 0) {
        hist.emplace_back(static_cast<uint32_t>(p),
                          static_cast<int32_t>(scratch[p]));
      }
    }
    return hist;
  }
  std::vector<std::pair<uint32_t, int64_t>> pairs;
  pairs.reserve(static_cast<size_t>(num_groups));
  for (int64_t g = 0; g < num_groups; ++g) {
    int64_t size = groups.group_size(g);
    if (size > 0) pairs.emplace_back(pattern_of(groups.codes(g)), size);
  }
  std::sort(pairs.begin(), pairs.end());
  for (size_t j = 0; j < pairs.size();) {
    size_t run = j;
    int64_t count = 0;
    while (run < pairs.size() && pairs[run].first == pairs[j].first) {
      count += pairs[run].second;
      ++run;
    }
    hist.emplace_back(pairs[j].first, static_cast<int32_t>(count));
    j = run;
  }
  return hist;
}

std::vector<PatternHistogram> SweepPatterns(const CodeLattice& lattice,
                                            const PatternIndex& clusters,
                                            const MaskedGroups& groups) {
  const size_t num_attrs = lattice.num_attrs();
  const int64_t size = lattice.size();
  const size_t num_patterns = static_cast<size_t>(1) << num_attrs;
  // Entry x of the lattice holds a histogram over agreement patterns. After
  // step k, slot p of entry x counts the groups whose codes at attributes
  // >= k equal x's and whose agreement with x's (original) codes at
  // attributes < k is p. Step k splits each line's counts: agreeing on k
  // means m == o, so out[o][p | bit] = in[o][p] and out[o][p] is the line
  // total minus in[o][p]. Integer counts, so exact in any order.
  std::vector<int32_t> hist(static_cast<size_t>(size) * num_patterns, 0);
  auto slots = [&](int64_t x) {
    return hist.data() + static_cast<size_t>(x) * num_patterns;
  };
  for (int64_t g = 0; g < groups.num_groups(); ++g) {
    *slots(lattice.Index(groups.codes(g))) =
        static_cast<int32_t>(groups.group_size(g));
  }
  std::vector<int32_t> total;
  for (size_t k = 0; k < num_attrs; ++k) {
    const int64_t card = lattice.card(k);
    const int64_t stride = lattice.stride(k);
    const size_t bit = static_cast<size_t>(1) << k;  // patterns in use: < bit
    total.resize(bit);
    for (int64_t block = 0; block < size; block += card * stride) {
      for (int64_t outer = block; outer < block + stride; ++outer) {
        std::fill(total.begin(), total.end(), 0);
        for (int64_t m = 0; m < card; ++m) {
          const int32_t* in = slots(outer + m * stride);
          for (size_t p = 0; p < bit; ++p) total[p] += in[p];
        }
        for (int64_t o = 0; o < card; ++o) {
          int32_t* entry = slots(outer + o * stride);
          for (size_t p = 0; p < bit; ++p) {
            entry[p | bit] = entry[p];
            entry[p] = total[p] - entry[p];
          }
        }
      }
    }
  }
  std::vector<PatternHistogram> cluster_hist(
      static_cast<size_t>(clusters.num_clusters()));
  for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
    const int32_t* entry = slots(lattice.Index(clusters.codes(c)));
    PatternHistogram& out = cluster_hist[static_cast<size_t>(c)];
    for (size_t p = 0; p < num_patterns; ++p) {
      if (entry[p] != 0) out.emplace_back(static_cast<uint32_t>(p), entry[p]);
    }
  }
  return cluster_hist;
}

StateKernel BuildPatternHistograms(const CodeLattice& lattice,
                                   const PatternIndex& clusters,
                                   const MaskedGroups& groups,
                                   std::vector<PatternHistogram>* hist) {
  const int64_t num_clusters = clusters.num_clusters();
  // Integer counts are exact in any order; the sweep's work is its L x 2^A
  // slots, each an int32.
  const int64_t slots = PatternSweepSlots(lattice);
  StateKernel kernel = ChooseStateKernel(
      /*exact=*/true, slots, SaturatingMul(num_clusters, groups.num_groups()),
      SaturatingMul(slots, static_cast<int64_t>(sizeof(int32_t))),
      SweepBudgetBytes(clusters));
  if (kernel == StateKernel::kSweep) {
    *hist = SweepPatterns(lattice, clusters, groups);
  } else {
    hist->assign(static_cast<size_t>(num_clusters), {});
    ParallelFor(0, num_clusters, [&](int64_t c) {
      (*hist)[static_cast<size_t>(c)] = FoldPatterns(clusters.codes(c), groups);
    });
  }
  CountStateBuild("prl", kernel);
  return kernel;
}

}  // namespace metrics
}  // namespace evocat
