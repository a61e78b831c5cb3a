// Scale-parameterized oracle harness: every measure runs a seeded
// (operator-sequence, seed) walk of mutation batches, reverts and a
// rebuild-sized leg at 1k, 10k and (behind the *Scale100k* filter, ctest
// label `scale`) 100k rows. The walk's scores are checked against an
// independent oracle: the O(n^2) from-scratch Compute() after every step at
// 1k and after every fourth step at 10k; at 100k, where Compute is out of
// reach, every step is checked bit for bit against a freshly bound state of
// the post-image. The checked walk runs on the calling thread (the
// process-wide pool, so the O(n^2) oracle fans out across every core); the
// same walk then replays on 1-, 3- and 8-worker schedulers (one shard per
// worker): every intermediate score and the RNG's final draw must agree bit
// for bit, so neither the shard count nor the worker pool changes a result
// or consumes extra randomness.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"
#include "metrics/ctbil.h"
#include "metrics/dbil.h"
#include "metrics/dbrl.h"
#include "metrics/ebil.h"
#include "metrics/fitness.h"
#include "metrics/interval_disclosure.h"
#include "metrics/prl.h"
#include "metrics/rsrl.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::MakeScaleWorld;
using evocat::testing::RunOnWorkers;
using evocat::testing::ScaleWorld;

std::vector<std::unique_ptr<Measure>> AllMeasures() {
  std::vector<std::unique_ptr<Measure>> measures;
  measures.push_back(std::make_unique<CtbIl>(2));
  measures.push_back(std::make_unique<DbIl>());
  measures.push_back(std::make_unique<EbIl>());
  measures.push_back(std::make_unique<IntervalDisclosure>(10.0));
  measures.push_back(std::make_unique<DistanceBasedRecordLinkage>());
  measures.push_back(std::make_unique<ProbabilisticRecordLinkage>(10));
  measures.push_back(std::make_unique<RankSwappingRecordLinkage>(15.0));
  return measures;
}

/// Draws a batch of 1..max_cells distinct-cell changes, applies them to
/// `masked` and returns the deltas. Identical RNG state in = identical
/// batch out, which is what lets every scheduler replay the same walk.
std::vector<CellDelta> DrawBatch(Dataset* masked,
                                 const std::vector<int>& attrs, Rng* rng,
                                 int max_cells) {
  int cells = static_cast<int>(rng->UniformInt(1, max_cells));
  std::map<std::pair<int64_t, int>, CellDelta> unique;
  for (int c = 0; c < cells; ++c) {
    int64_t row = static_cast<int64_t>(
        rng->UniformIndex(static_cast<size_t>(masked->num_rows())));
    int attr = attrs[rng->UniformIndex(attrs.size())];
    int32_t card = masked->schema().attribute(attr).cardinality();
    auto new_code = static_cast<int32_t>(rng->UniformInt(0, card - 1));
    auto key = std::make_pair(row, attr);
    auto it = unique.find(key);
    if (it == unique.end()) {
      unique.emplace(key, CellDelta{row, attr, masked->Code(row, attr),
                                    new_code});
    } else {
      it->second.new_code = new_code;
    }
  }
  std::vector<CellDelta> deltas;
  for (auto& [key, delta] : unique) {
    masked->SetCode(delta.row, delta.attr, delta.new_code);
    deltas.push_back(delta);
  }
  return deltas;
}

/// One full walk of a measure: every score the state reports (after each
/// apply, each revert, the forced rebuild and its revert) plus the RNG's
/// next draw at the end.
struct Trace {
  std::vector<double> scores;
  uint64_t final_draw = 0;
};

/// The independent reference a walk's scores are checked against.
enum class Oracle {
  kNone,       ///< unchecked replay (the shard-determinism legs)
  kCompute,    ///< O(n^2) from-scratch Compute(), within 1e-9
  kFreshBind,  ///< a freshly bound state of the post-image, bit for bit
};

/// Checks `state`'s score against `oracle` on the current `masked` file.
void CheckStep(const BoundMeasure& bound, const MeasureState& state,
               const Dataset& masked, Oracle oracle, const std::string& where) {
  if (oracle == Oracle::kCompute) {
    EXPECT_NEAR(state.Score(), bound.Compute(masked), 1e-9) << where;
  } else if (oracle == Oracle::kFreshBind) {
    EXPECT_EQ(state.Score(), bound.BindState(masked)->Score()) << where;
  }
}

/// Runs the walk; `oracle` checks the initial score, the rebuild leg and
/// every `check_every`-th step.
Trace RunWalk(const Measure& measure, const ScaleWorld& world, uint64_t seed,
              int steps, Oracle oracle, int check_every) {
  auto bound =
      std::move(measure.Bind(world.original, world.attrs)).ValueOrDie();
  Dataset masked = world.masked.Clone();
  auto state = bound->BindState(masked);

  Trace trace;
  trace.scores.push_back(state->Score());
  CheckStep(*bound, *state, masked, oracle, measure.Name() + " initial");

  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    auto deltas = DrawBatch(&masked, world.attrs, &rng, 4);
    state->ApplyDelta(masked, deltas);
    trace.scores.push_back(state->Score());
    if (step % check_every == check_every - 1) {
      CheckStep(*bound, *state, masked, oracle,
                measure.Name() + " step " + std::to_string(step));
    }
    if (step % 3 == 2) {
      state->Revert();
      trace.scores.push_back(state->Score());
      state->ApplyDelta(masked, deltas);
      trace.scores.push_back(state->Score());
    }
  }

  // Rebuild-sized leg: force the fallback threshold down so the next batch
  // takes the full-rebuild path, then revert it.
  state->set_full_rebuild_threshold(1);
  Dataset before = masked.Clone();
  auto deltas = DrawBatch(&masked, world.attrs, &rng, 4);
  state->ApplyDelta(masked, deltas);
  trace.scores.push_back(state->Score());
  CheckStep(*bound, *state, masked, oracle, measure.Name() + " rebuild leg");
  state->Revert();
  masked = std::move(before);
  trace.scores.push_back(state->Score());

  trace.final_draw = rng.NextU64();
  return trace;
}

/// Checked walk on the calling thread, then unchecked replays on 1, 3 and 8
/// workers that must match it bit for bit.
void RunScaleOracle(int64_t rows, int steps, Oracle oracle, int check_every) {
  ScaleWorld world = MakeScaleWorld(rows, 7000 + static_cast<uint64_t>(rows));
  for (const auto& measure : AllMeasures()) {
    uint64_t seed = 900 + static_cast<uint64_t>(rows);
    Trace checked =
        RunWalk(*measure, world, seed, steps, oracle, check_every);
    for (int workers : {1, 3, 8}) {
      Trace replay;
      RunOnWorkers(workers, [&] {
        replay = RunWalk(*measure, world, seed, steps, Oracle::kNone, 1);
      });
      ASSERT_EQ(checked.scores.size(), replay.scores.size())
          << measure->Name();
      for (size_t i = 0; i < checked.scores.size(); ++i) {
        ASSERT_EQ(checked.scores[i], replay.scores[i])
            << measure->Name() << " at " << rows << " rows on " << workers
            << " workers diverged at score " << i << " (abs diff "
            << std::abs(checked.scores[i] - replay.scores[i]) << ")";
      }
      EXPECT_EQ(checked.final_draw, replay.final_draw)
          << measure->Name() << " consumed a different number of RNG draws";
    }
  }
}

/// Fitness-level walk: the aggregated score after every apply/revert, with
/// optional per-step cross-checks against a from-scratch Evaluate.
/// `probed` (optional) receives the evaluator's probe report.
std::vector<double> RunFitnessWalk(
    const ScaleWorld& world, uint64_t seed, int steps,
    const FitnessEvaluator::Options& options, bool cross_check,
    std::vector<std::pair<std::string, double>>* probed) {
  auto evaluator =
      std::move(FitnessEvaluator::Create(world.original, world.attrs, options))
          .ValueOrDie();
  Dataset masked = world.masked.Clone();
  auto state = evaluator->BindState(masked);
  std::vector<double> trace;
  trace.push_back(state->breakdown().score);
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    auto deltas = DrawBatch(&masked, world.attrs, &rng, 4);
    state->ApplyDelta(masked, deltas);
    trace.push_back(state->breakdown().score);
    if (cross_check) {
      EXPECT_NEAR(state->breakdown().score, evaluator->Evaluate(masked).score,
                  1e-9)
          << "probe walk step " << step;
    }
    if (step % 3 == 2) {
      state->Revert();
      trace.push_back(state->breakdown().score);
      state->ApplyDelta(masked, deltas);
      trace.push_back(state->breakdown().score);
    }
  }
  if (probed != nullptr) *probed = evaluator->probed_rebuild_fractions();
  return trace;
}

// Probe leg: the bind-time rebuild-fraction probe only moves *when* states
// rebuild, never what they compute, so a probe-on walk must still match
// from-scratch Evaluate at every step and report an in-range fraction for
// each of the seven measures.
TEST(ScaleOracleTest, ProbeOnFitnessWalkStaysExact) {
  ScaleWorld world = MakeScaleWorld(1000, 7001);
  FitnessEvaluator::Options options;
  options.prl_em_iterations = 10;
  options.probe_rebuild_fractions = true;
  std::vector<std::pair<std::string, double>> probed;
  RunFitnessWalk(world, 901, /*steps=*/9, options, /*cross_check=*/true,
                 &probed);
  ASSERT_EQ(probed.size(), 7u);
  for (const auto& [name, fraction] : probed) {
    EXPECT_GE(fraction, 0.01) << name;
    EXPECT_LE(fraction, 1.0) << name;
  }
}

// Pinned fractions bypass the probe entirely, restoring cross-run bit
// reproducibility: the probe-on trace equals the probe-off trace exactly and
// the probe reports nothing.
TEST(ScaleOracleTest, ProbeWithPinnedFractionsReplaysBitIdentically) {
  ScaleWorld world = MakeScaleWorld(1000, 7001);
  FitnessEvaluator::Options pinned;
  pinned.prl_em_iterations = 10;
  pinned.delta_rebuild_fraction = 0.4;  // pins every measure
  FitnessEvaluator::Options pinned_probe = pinned;
  pinned_probe.probe_rebuild_fractions = true;
  std::vector<std::pair<std::string, double>> probed;
  std::vector<double> base = RunFitnessWalk(world, 902, /*steps=*/9, pinned,
                                            /*cross_check=*/false, nullptr);
  std::vector<double> with_probe =
      RunFitnessWalk(world, 902, /*steps=*/9, pinned_probe,
                     /*cross_check=*/false, &probed);
  ASSERT_EQ(base.size(), with_probe.size());
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i], with_probe[i]) << "diverged at score " << i;
  }
  EXPECT_TRUE(probed.empty());
}

TEST(ScaleOracleTest, AllMeasuresBitIdentical1k) {
  RunScaleOracle(1000, /*steps=*/12, Oracle::kCompute, /*check_every=*/1);
}

TEST(ScaleOracleTest, AllMeasuresBitIdentical10k) {
  RunScaleOracle(10000, /*steps=*/9, Oracle::kCompute, /*check_every=*/4);
}

// Registered as its own ctest entry (metrics/scale_oracle_100k, label
// `scale`); the tier-1 entry filters it out.
TEST(ScaleOracleTest, AllMeasuresBitIdenticalScale100k) {
  RunScaleOracle(100000, /*steps=*/6, Oracle::kFreshBind, /*check_every=*/1);
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
