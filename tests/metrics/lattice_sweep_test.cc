// Lattice sweep vs pair fold: the DBRL/PRL/RSRL state builds may compute
// their per-cluster records by an attribute-by-attribute sweep over the code
// lattice instead of folding every (original cluster, masked group) pair.
// The sweep is only allowed where it returns the fold's bits, so every test
// here compares the two kernels exactly: `best` by bit pattern, counts and
// histograms by value. Randomized files cover 1..5 attributes with
// cardinalities 1, 2 and larger skewed domains, masked groups emptied by
// moves, RSRL windows that empty a whole candidate row, and PRL up to and
// past the dense-pattern bound; the kernel choice is checked on both sides
// of the cost rule, the 32 B/row scratch budget and the exactness check,
// and on the paper's Adult shape at 1k and 10k rows.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/profile.h"
#include "experiments/dataset_case.h"
#include "metrics/dbrl.h"
#include "metrics/distance.h"
#include "metrics/plane.h"
#include "metrics/prl.h"
#include "metrics/rsrl.h"
#include "obs/metrics.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::AllAttrs;
using evocat::testing::BuildDataset;
using evocat::testing::RunOnWorkers;
using evocat::testing::TestAttr;

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

struct Files {
  Dataset original;
  Dataset masked;
  std::vector<int> attrs;
};

/// Random original/masked pair: `cards` per attribute (random kinds), rows
/// drawn Zipf-skewed, each masked cell redrawn with probability `noise`.
Files RandomFiles(Rng* rng, const std::vector<int>& cards, int64_t rows,
                  double noise) {
  std::vector<TestAttr> spec;
  for (size_t k = 0; k < cards.size(); ++k) {
    spec.push_back(TestAttr{"a" + std::to_string(k),
                            rng->Bernoulli(0.5) ? AttrKind::kOrdinal
                                                : AttrKind::kNominal,
                            cards[k]});
  }
  std::vector<std::vector<int32_t>> original_rows;
  std::vector<std::vector<int32_t>> masked_rows;
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int32_t> row;
    for (int card : cards) {
      row.push_back(static_cast<int32_t>(
          rng->Zipf(static_cast<size_t>(card), 1.1)));
    }
    std::vector<int32_t> masked = row;
    for (size_t k = 0; k < cards.size(); ++k) {
      if (rng->Bernoulli(noise)) {
        masked[k] = static_cast<int32_t>(rng->UniformInt(0, cards[k] - 1));
      }
    }
    original_rows.push_back(std::move(row));
    masked_rows.push_back(std::move(masked));
  }
  Files files;
  files.original = BuildDataset(spec, original_rows);
  // Same schema object, so the masked codes are comparable.
  files.masked = files.original.Clone();
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < cards.size(); ++k) {
      files.masked.SetCode(r, static_cast<int>(k),
                           masked_rows[static_cast<size_t>(r)][k]);
    }
  }
  files.attrs = AllAttrs(files.original);
  return files;
}

/// A random cardinality: 1, 2, or a larger domain (the rows are skewed).
int RandomCard(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return 1;
    case 1:
      return 2;
    default:
      return static_cast<int>(rng->UniformInt(3, 12));
  }
}

/// Random RSRL-style candidate masks; with `empty_row` set, one original
/// code of one attribute loses every candidate.
CandidateMasks RandomMasks(Rng* rng, const CodeLattice& lattice,
                           bool empty_row) {
  CandidateMasks cand(lattice.num_attrs());
  for (size_t k = 0; k < lattice.num_attrs(); ++k) {
    int64_t card = lattice.card(k);
    cand[k].resize(static_cast<size_t>(card * card));
    for (auto& bit : cand[k]) bit = rng->Bernoulli(0.75) ? 1 : 0;
  }
  if (empty_row) {
    size_t k = rng->UniformIndex(lattice.num_attrs());
    int64_t card = lattice.card(k);
    int64_t o = rng->UniformInt(0, card - 1);
    for (int64_t m = 0; m < card; ++m) {
      cand[k][static_cast<size_t>(o * card + m)] = 0;
    }
  }
  return cand;
}

void ExpectSameLinkage(const PatternIndex& clusters, const MaskedGroups& groups,
                       const DistanceTables& tables, const CandidateMasks* cand,
                       const std::vector<LinkageRowBest>& sweep) {
  ASSERT_EQ(sweep.size(), static_cast<size_t>(clusters.num_clusters()));
  for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
    LinkageRowBest fold = FoldLinkage(clusters.codes(c), groups, tables, cand);
    const LinkageRowBest& got = sweep[static_cast<size_t>(c)];
    ASSERT_EQ(Bits(got.best), Bits(fold.best)) << "cluster " << c;
    ASSERT_EQ(got.count, fold.count) << "cluster " << c;
    ASSERT_EQ(got.self, fold.self) << "cluster " << c;
  }
}

void ExpectSamePatterns(const PatternIndex& clusters,
                        const MaskedGroups& groups,
                        const std::vector<PatternHistogram>& sweep) {
  ASSERT_EQ(sweep.size(), static_cast<size_t>(clusters.num_clusters()));
  for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
    ASSERT_EQ(sweep[static_cast<size_t>(c)],
              FoldPatterns(clusters.codes(c), groups))
        << "cluster " << c;
  }
}

TEST(LatticeSweepTest, CodeLatticeIsRowMajorAndSaturates) {
  CodeLattice lattice({3, 1, 4});
  EXPECT_EQ(lattice.size(), 12);
  EXPECT_EQ(lattice.sum_cards(), 8);
  EXPECT_EQ(lattice.stride(0), 4);
  EXPECT_EQ(lattice.stride(1), 4);
  EXPECT_EQ(lattice.stride(2), 1);
  const int32_t codes[] = {2, 0, 3};
  EXPECT_EQ(lattice.Index(codes), 11);
  CodeLattice huge(std::vector<int64_t>(8, int64_t{1} << 12));
  EXPECT_EQ(huge.size(), INT64_MAX);
}

TEST(LatticeSweepTest, SweepMatchesFoldOnRandomFiles) {
  Rng rng(1301);
  for (int trial = 0; trial < 60; ++trial) {
    auto num_attrs = static_cast<size_t>(rng.UniformInt(1, 5));
    std::vector<int> cards;
    for (size_t k = 0; k < num_attrs; ++k) cards.push_back(RandomCard(&rng));
    int64_t rows = rng.UniformInt(1, 200);
    Files files = RandomFiles(&rng, cards, rows, rng.UniformDouble(0.0, 0.8));
    SCOPED_TRACE("trial " + std::to_string(trial));

    DistanceTables tables(files.original, files.attrs);
    ASSERT_TRUE(LinkageSweepExact(tables));
    CodeLattice lattice = CodeLattice::Of(files.original, files.attrs);
    auto shards = static_cast<int>(rng.UniformInt(1, 4));
    PatternIndex clusters =
        PatternIndex::Build(files.original, files.attrs, shards);
    MaskedGroups groups = MaskedGroups::Build(files.masked, files.attrs, shards);

    ExpectSameLinkage(clusters, groups, tables, nullptr,
                      SweepLinkage(lattice, clusters, groups, tables, nullptr));
    CandidateMasks cand = RandomMasks(&rng, lattice, rng.Bernoulli(0.5));
    ExpectSameLinkage(clusters, groups, tables, &cand,
                      SweepLinkage(lattice, clusters, groups, tables, &cand));
    ExpectSamePatterns(clusters, groups,
                       SweepPatterns(lattice, clusters, groups));
  }
}

TEST(LatticeSweepTest, SizeZeroGroupsLeftByMovesMatchFold) {
  Rng rng(1302);
  for (int trial = 0; trial < 20; ++trial) {
    Files files = RandomFiles(&rng, {4, 2, 6}, 60, 0.4);
    DistanceTables tables(files.original, files.attrs);
    CodeLattice lattice = CodeLattice::Of(files.original, files.attrs);
    PatternIndex clusters = PatternIndex::Build(files.original, files.attrs, 2);
    MaskedGroups groups = MaskedGroups::Build(files.masked, files.attrs, 2);
    // Move rows onto a few tuples so the groups they leave hit size 0 but
    // keep their ids (and their lattice slot).
    std::vector<MaskedGroups::Move> moves;
    for (int64_t r = 0; r < files.masked.num_rows(); r += 2) {
      int32_t target[] = {static_cast<int32_t>(r % 2), 0,
                          static_cast<int32_t>((r / 2) % 3)};
      groups.ApplyRow(r, target, &moves);
    }
    int64_t empty = 0;
    for (int64_t g = 0; g < groups.num_groups(); ++g) {
      if (groups.group_size(g) == 0) ++empty;
    }
    ASSERT_GT(empty, 0);
    CandidateMasks cand = RandomMasks(&rng, lattice, false);
    ExpectSameLinkage(clusters, groups, tables, nullptr,
                      SweepLinkage(lattice, clusters, groups, tables, nullptr));
    ExpectSameLinkage(clusters, groups, tables, &cand,
                      SweepLinkage(lattice, clusters, groups, tables, &cand));
    ExpectSamePatterns(clusters, groups,
                       SweepPatterns(lattice, clusters, groups));
    groups.UndoMoves(moves);
    ExpectSamePatterns(clusters, groups,
                       SweepPatterns(lattice, clusters, groups));
  }
}

TEST(LatticeSweepTest, EmptyCandidateRowGivesTheFoldsEmptyRecord) {
  Rng rng(1303);
  Files files = RandomFiles(&rng, {5, 3}, 80, 0.3);
  DistanceTables tables(files.original, files.attrs);
  CodeLattice lattice = CodeLattice::Of(files.original, files.attrs);
  PatternIndex clusters = PatternIndex::Build(files.original, files.attrs, 1);
  MaskedGroups groups = MaskedGroups::Build(files.masked, files.attrs, 1);
  CandidateMasks cand = RandomMasks(&rng, lattice, false);
  // Original code 0 of attribute 0 admits no masked code at all.
  for (int64_t m = 0; m < lattice.card(0); ++m) cand[0][static_cast<size_t>(m)] = 0;
  std::vector<LinkageRowBest> sweep =
      SweepLinkage(lattice, clusters, groups, tables, &cand);
  ExpectSameLinkage(clusters, groups, tables, &cand, sweep);
  int64_t emptied = 0;
  for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
    if (clusters.codes(c)[0] != 0) continue;
    ++emptied;
    EXPECT_EQ(sweep[static_cast<size_t>(c)].count, 0);
    EXPECT_EQ(sweep[static_cast<size_t>(c)].best, LinkageRowBest{}.best);
  }
  EXPECT_GT(emptied, 0);
}

TEST(LatticeSweepTest, PatternSweepMatchesFoldUpToTheDensePatternBound) {
  // The fold counts into a dense 2^A scratch up to 12 attributes and sorts
  // pairs past it; the sweep must match both. Most attributes get
  // cardinality 1 or 2 so the lattice (times 2^A slots) stays small.
  Rng rng(1304);
  for (int num_attrs : {6, 11, 12, 13}) {
    std::vector<int> cards(static_cast<size_t>(num_attrs), 1);
    for (int k = 0; k < num_attrs; k += 2) cards[static_cast<size_t>(k)] = 2;
    cards[0] = 3;
    Files files = RandomFiles(&rng, cards, 150, 0.3);
    CodeLattice lattice = CodeLattice::Of(files.original, files.attrs);
    PatternIndex clusters = PatternIndex::Build(files.original, files.attrs, 3);
    MaskedGroups groups = MaskedGroups::Build(files.masked, files.attrs, 3);
    SCOPED_TRACE("attrs " + std::to_string(num_attrs));
    ExpectSamePatterns(clusters, groups,
                       SweepPatterns(lattice, clusters, groups));
  }
}

TEST(LatticeSweepTest, KernelRuleCoversCostBudgetAndExactness) {
  EXPECT_EQ(ChooseStateKernel(true, 10, 10, 5, 5), StateKernel::kSweep);
  EXPECT_EQ(ChooseStateKernel(true, 11, 10, 5, 5), StateKernel::kFold);
  EXPECT_EQ(ChooseStateKernel(true, 10, 10, 6, 5), StateKernel::kFold);
  EXPECT_EQ(ChooseStateKernel(false, 1, 10, 1, 5), StateKernel::kFold);

  Rng rng(1305);
  // Cheap lattice, many rows: the sweep is chosen. Wide lattice, few rows:
  // L * sum(K) exceeds C * G and the fold is chosen. Both give the fold's
  // records.
  struct Case {
    std::vector<int> cards;
    int64_t rows;
    StateKernel expected;
  };
  for (const Case& c : {Case{{3, 4, 2}, 400, StateKernel::kSweep},
                        Case{{40, 40}, 30, StateKernel::kFold}}) {
    Files files = RandomFiles(&rng, c.cards, c.rows, 0.3);
    DistanceTables tables(files.original, files.attrs);
    CodeLattice lattice = CodeLattice::Of(files.original, files.attrs);
    PatternIndex clusters = PatternIndex::Build(files.original, files.attrs, 1);
    MaskedGroups groups = MaskedGroups::Build(files.masked, files.attrs, 1);
    std::vector<LinkageRowBest> best;
    EXPECT_EQ(BuildLinkageBest("dbrl", lattice, LinkageSweepExact(tables),
                               clusters, groups, tables, nullptr, &best),
              c.expected);
    ExpectSameLinkage(clusters, groups, tables, nullptr, best);
    std::vector<PatternHistogram> hist;
    EXPECT_EQ(BuildPatternHistograms(lattice, clusters, groups, &hist),
              c.expected);
    ExpectSamePatterns(clusters, groups, hist);
  }

  // The scratch budget, on both sides: 8 binary attributes give a 256-tuple
  // lattice whose sweep scratch is 12 B x 256 = 3,072 B and whose work
  // (256 x 16) is below C x G. Rows are distinct tuples, so 90 rows give a
  // 2,880 B budget (fold) and 100 rows 3,200 B (sweep).
  std::vector<TestAttr> spec;
  for (int k = 0; k < 8; ++k) {
    spec.push_back(TestAttr{"b" + std::to_string(k), AttrKind::kNominal, 2});
  }
  auto bits = [](int64_t value) {
    std::vector<int32_t> row;
    for (int k = 0; k < 8; ++k) row.push_back((value >> k) & 1);
    return row;
  };
  for (auto [rows, expected] : {std::pair{int64_t{90}, StateKernel::kFold},
                                {int64_t{100}, StateKernel::kSweep}}) {
    std::vector<std::vector<int32_t>> original_rows;
    for (int64_t r = 0; r < rows; ++r) {
      original_rows.push_back(bits(r * 37 % 256));
    }
    Dataset original = BuildDataset(spec, original_rows);
    Dataset masked = original.Clone();
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<int32_t> row = bits((r * 59 + 11) % 256);
      for (int k = 0; k < 8; ++k) {
        masked.SetCode(r, k, row[static_cast<size_t>(k)]);
      }
    }
    std::vector<int> attrs = AllAttrs(original);
    DistanceTables tables(original, attrs);
    CodeLattice lattice = CodeLattice::Of(original, attrs);
    ASSERT_EQ(LinkageSweepBytes(lattice), 3072);
    PatternIndex clusters = PatternIndex::Build(original, attrs, 1);
    MaskedGroups groups = MaskedGroups::Build(masked, attrs, 1);
    ASSERT_LE(lattice.size() * lattice.sum_cards(),
              clusters.num_clusters() * groups.num_groups());
    std::vector<LinkageRowBest> best;
    EXPECT_EQ(BuildLinkageBest("dbrl", lattice, LinkageSweepExact(tables),
                               clusters, groups, tables, nullptr, &best),
              expected)
        << rows << " rows";
    ExpectSameLinkage(clusters, groups, tables, nullptr, best);
  }
}

TEST(LatticeSweepTest, InexactTablesFailTheCheckAndFallBackToTheFold) {
  // Distances 1e-12 and 1.5e-12 lie within the linkage epsilon of each
  // other, so the fold counts them as one tie set while an exact min would
  // not: the sweep would change the bits, and the check must refuse it.
  DistanceTables tables =
      DistanceTables::FromValues({{1e-12f, 1.5e-12f, 1.5e-12f, 1e-12f}});
  EXPECT_FALSE(LinkageSweepExact(tables));
  Dataset original = BuildDataset({{"a", AttrKind::kNominal, 2}},
                                  {{0}, {0}, {1}, {1}});
  Dataset masked = original.Clone();
  masked.SetCode(1, 0, 1);
  masked.SetCode(2, 0, 0);
  masked.SetCode(3, 0, 0);
  std::vector<int> attrs = {0};
  CodeLattice lattice = CodeLattice::Of(original, attrs);
  PatternIndex clusters = PatternIndex::Build(original, attrs, 1);
  MaskedGroups groups = MaskedGroups::Build(masked, attrs, 1);
  std::vector<LinkageRowBest> sweep =
      SweepLinkage(lattice, clusters, groups, tables, nullptr);
  LinkageRowBest fold = FoldLinkage(clusters.codes(0), groups, tables, nullptr);
  EXPECT_EQ(fold.count, 4);  // both masked codes: one epsilon tie set
  EXPECT_EQ(sweep[0].count, 3);
  std::vector<LinkageRowBest> best;
  EXPECT_EQ(BuildLinkageBest("dbrl", lattice, LinkageSweepExact(tables),
                             clusters, groups, tables, nullptr, &best),
            StateKernel::kFold);
  ExpectSameLinkage(clusters, groups, tables, nullptr, best);

  // Also refused: sums too long for a double, and a sub-epsilon grid.
  EXPECT_FALSE(LinkageSweepExact(
      DistanceTables::FromValues({{0.0f, 1.0f, 1.0f, 0.0f},
                                  {0.0f, 0x1p-60f, 0x1p-60f, 0.0f}})));
  EXPECT_FALSE(LinkageSweepExact(
      DistanceTables::FromValues({{0.0f, 0x1p-40f, 0x1p-40f, 0.0f}})));
  EXPECT_TRUE(LinkageSweepExact(
      DistanceTables::FromValues({{0.0f, 0.25f, 0.25f, 0.0f}})));
  EXPECT_TRUE(LinkageSweepExact(DistanceTables::FromValues({{0.0f}})));
}

TEST(LatticeSweepTest, PaperCaseTablesAdmitTheSweep) {
  for (const char* name : {"adult", "housing", "german", "flare"}) {
    auto profile = datagen::ProfileByName(name).ValueOrDie();
    profile.num_records = 50;
    Dataset data = datagen::Generate(profile, 7).ValueOrDie();
    std::vector<int> attrs =
        datagen::ProtectedAttributeIndices(profile, data).ValueOrDie();
    EXPECT_TRUE(LinkageSweepExact(DistanceTables(data, attrs))) << name;
  }
}

/// Scores of freshly bound DBRL/PRL/RSRL states.
std::vector<double> StateScores(const Files& files) {
  std::vector<std::unique_ptr<Measure>> measures;
  measures.push_back(std::make_unique<DistanceBasedRecordLinkage>());
  measures.push_back(std::make_unique<ProbabilisticRecordLinkage>(10));
  measures.push_back(std::make_unique<RankSwappingRecordLinkage>(15.0));
  std::vector<double> scores;
  for (const auto& measure : measures) {
    auto bound =
        std::move(measure->Bind(files.original, files.attrs)).ValueOrDie();
    double score = bound->BindState(files.masked)->Score();
    if (measure->Name() != "PRL") {
      // The O(n^2) row scan is an independent oracle; on exact tables the
      // epsilon-tie scan and the exact min agree to the bit.
      EXPECT_EQ(Bits(score), Bits(bound->Compute(files.masked)))
          << measure->Name();
    } else {
      EXPECT_NEAR(score, bound->Compute(files.masked), 1e-9);
    }
    scores.push_back(score);
  }
  return scores;
}

int64_t StateBuilds(const char* measure, const char* kernel) {
  return obs::MetricsRegistry::Global().CounterValue(
      "evocat_delta_state_builds_total",
      {{"measure", measure}, {"kernel", kernel}});
}

TEST(LatticeSweepTest, StatesBuiltBySweepMatchTheOracleOnAnyShardCount) {
  auto sweeps = [&] {
    return StateBuilds("dbrl", "sweep") + StateBuilds("prl", "sweep") +
           StateBuilds("rsrl", "sweep");
  };
  Rng rng(1306);
  for (int trial = 0; trial < 6; ++trial) {
    Files files = RandomFiles(&rng, {6, 3, 4}, 300, 0.4);
    int64_t before = sweeps();
    std::vector<double> one_shard, three_shards;
    RunOnWorkers(1, [&] { one_shard = StateScores(files); });
    RunOnWorkers(3, [&] { three_shards = StateScores(files); });
    ASSERT_EQ(one_shard.size(), three_shards.size());
    for (size_t m = 0; m < one_shard.size(); ++m) {
      EXPECT_EQ(Bits(one_shard[m]), Bits(three_shards[m])) << "measure " << m;
    }
    // 300 rows over a 72-tuple lattice: every build takes the sweep.
    EXPECT_EQ(sweeps() - before, 6);
  }
}

TEST(LatticeSweepTest, AdultShapedLinkageBindsTakeTheSweep) {
  // Adult's lattice has L = 16 x 7 x 14 = 1,568 tuples, so the linkage
  // sweep needs 12 B x L = 18,816 B of scratch: within the 32 B/row budget
  // at 1,000 rows and beyond. A per-state budget below 19 B/row would put
  // every DBRL and RSRL build of the paper's Adult case on the fold.
  auto adult = experiments::AdultCase().profile;
  auto scaled = datagen::AdultProfile();
  scaled.num_records = 10000;
  for (const auto& profile : {adult, scaled}) {
    SCOPED_TRACE(std::to_string(profile.num_records) + " rows");
    Dataset original = datagen::Generate(profile, 11).ValueOrDie();
    std::vector<int> attrs =
        datagen::ProtectedAttributeIndices(profile, original).ValueOrDie();
    Rng pram_rng(12);
    Dataset masked = protection::Pram(0.5)
                         .Protect(original, attrs, &pram_rng)
                         .ValueOrDie();
    for (const auto& [name, measure] :
         {std::pair<const char*, std::shared_ptr<Measure>>{
              "dbrl", std::make_shared<DistanceBasedRecordLinkage>()},
          {"rsrl", std::make_shared<RankSwappingRecordLinkage>(15.0)}}) {
      int64_t sweeps = StateBuilds(name, "sweep");
      int64_t folds = StateBuilds(name, "fold");
      auto bound = std::move(measure->Bind(original, attrs)).ValueOrDie();
      bound->BindState(masked);
      EXPECT_EQ(StateBuilds(name, "sweep"), sweeps + 1) << name;
      EXPECT_EQ(StateBuilds(name, "fold"), folds) << name;
    }
  }
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
