// evobench_trace — the traced per-layer driver of the repository benchmark.
//
//   evobench_trace <jobs.json> <out.jsonl>
//
// <jobs.json> is {"threads": N, "groups": [[{"id", "spec", "csv_out"}, ...]]}.
// The driver runs every job the way evocatd does — one task per job on its
// own TaskScheduler of N workers, the jobs of one group submitted together —
// but calls the layers' public functions itself instead of Session::Run, in
// the same order and with the same seeds: Session::LoadSource,
// protection::BuildProtectionsWith, FitnessEvaluator::Create, BindState per
// member, and StrategyRegistry::Create(...)->Run (generational jobs through
// EvolutionEngine::Run with a progress callback). Each call gets a span
// (name, layer, start, end, parent, job) kept in memory. The best file is
// written to csv_out, outside the spans, so the benchmark can check it
// against the daemon's.
//
// After each group, every job replays its own number of mutation and
// crossover segments, drawn with core::MutationOperator/CrossoverOperator
// from the job's GA seed, through a bound FitnessState and through each
// measure bound alone (the evaluator's cell total, default fractions), and
// records apply+revert times, segment sizes and rebuild-sized segments.
//
// Output is JSON lines, written as each group finishes so that a crash keeps
// what was done: {"type": "job"|"span"|"replay"|"summary", ...}.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/jobspec.h"
#include "api/session.h"
#include "common/parallel.h"
#include "common/params.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "core/engine.h"
#include "core/operators.h"
#include "data/csv.h"
#include "evolve/registry.h"
#include "metrics/fitness.h"
#include "metrics/registry.h"
#include "protection/population_builder.h"
#include "protection/registry.h"

using namespace evocat;
using api::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  std::string job;
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store; times are seconds since the driver started.
class Tracer {
 public:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int64_t NextId() { return next_id_.fetch_add(1); }
  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::atomic<int64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& job, const std::string& name,
             const std::string& layer, int64_t parent)
      : tracer_(tracer) {
    span_.id = tracer->NextId();
    span_.parent = parent;
    span_.job = job;
    span_.name = name;
    span_.layer = layer;
    span_.start = tracer->Now();
  }
  ~ScopedSpan() {
    span_.end = tracer_->Now();
    tracer_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// One job's outcome plus what its replay needs.
struct Job {
  std::string id;
  std::string csv_out;
  JsonValue spec_json;
  api::JobSpec spec;
  Status status;
  double submitted = 0.0;
  double score = 0.0;
  int64_t members = 0;
  int64_t rows = 0;
  bool csv_source = false;
  core::EvolutionStats stats;
  double gen_total_s = 0.0;
  double gen_eval_s = 0.0;
  // Kept alive for the replay; the evaluator points into `source`.
  std::unique_ptr<api::Session::SourceData> source;
  std::unique_ptr<metrics::FitnessEvaluator> evaluator;
  Dataset x;
  Dataset y;
  Dataset best;
};

Status RunJob(Tracer* tracer, api::Session* session, Job* job,
              int64_t task_span) {
  ScopedSpan job_span(tracer, job->id, "api.job", "api", task_span);
  EVOCAT_ASSIGN_OR_RETURN(job->spec, api::JobSpec::FromJson(job->spec_json));
  api::JobSpec& spec = job->spec;
  spec.seeds.MakeExplicit();
  job->csv_source = spec.source.kind == api::SourceSpec::Kind::kCsv;

  {
    const char* layer = job->csv_source ? "data" : "datagen";
    ScopedSpan span(tracer, job->id, std::string(layer) + ".load_source",
                    layer, job_span.id());
    EVOCAT_ASSIGN_OR_RETURN(api::Session::SourceData source,
                            session->LoadSource(spec));
    job->source =
        std::make_unique<api::Session::SourceData>(std::move(source));
  }
  const Dataset& original = job->source->original;
  const std::vector<int>& attrs = job->source->attrs;
  job->rows = original.num_rows();

  // Roster expansion exactly as Session::Run does it.
  std::vector<api::MethodGridSpec> roster =
      spec.methods.empty()
          ? api::RosterFromPopulationSpec(job->source->default_spec)
          : spec.methods;
  std::vector<std::unique_ptr<protection::ProtectionMethod>> methods;
  for (const auto& entry : roster) {
    for (const ParamMap& params : api::ExpandGrid(entry)) {
      EVOCAT_ASSIGN_OR_RETURN(
          auto method,
          protection::MethodRegistry::Global().Create(entry.name, params));
      methods.push_back(std::move(method));
    }
  }

  std::vector<protection::ProtectedFile> protections;
  {
    ScopedSpan span(tracer, job->id, "protection.build", "protection",
                    job_span.id());
    EVOCAT_ASSIGN_OR_RETURN(
        protections,
        protection::BuildProtectionsWith(original, attrs, methods,
                                         spec.seeds.ProtectionSeed()));
  }
  job->members = static_cast<int64_t>(protections.size());

  {
    ScopedSpan span(tracer, job->id, "metrics.create", "metrics",
                    job_span.id());
    EVOCAT_ASSIGN_OR_RETURN(job->evaluator,
                            metrics::FitnessEvaluator::Create(
                                original, attrs, spec.FitnessOptions()));
  }
  const metrics::FitnessEvaluator* evaluator = job->evaluator.get();

  std::vector<core::Individual> initial;
  initial.reserve(protections.size());
  for (auto& file : protections) {
    core::Individual individual;
    individual.data = std::move(file.data);
    individual.origin = std::move(file.method_label);
    initial.push_back(std::move(individual));
  }
  {
    ScopedSpan bind(tracer, job->id, "metrics.bind", "metrics", job_span.id());
    const int64_t bind_id = bind.id();
    ParallelFor(0, static_cast<int64_t>(initial.size()), [&](int64_t i) {
      ScopedSpan span(tracer, job->id, "metrics.bind_state", "metrics",
                      bind_id);
      core::Individual& member = initial[static_cast<size_t>(i)];
      if (spec.ga.incremental_eval) {
        member.eval_state = evaluator->BindState(member.data);
        member.fitness = member.eval_state->breakdown();
      } else {
        member.fitness = evaluator->Evaluate(member.data);
      }
    });
  }
  std::stable_sort(initial.begin(), initial.end(),
                   [](const core::Individual& a, const core::Individual& b) {
                     return a.score() < b.score();
                   });
  if (spec.remove_best_fraction > 0.0 && initial.size() > 2) {
    auto removed = static_cast<size_t>(
        std::llround(spec.remove_best_fraction *
                     static_cast<double>(initial.size())));
    removed = std::min(removed, initial.size() - 2);
    initial.erase(initial.begin(),
                  initial.begin() + static_cast<std::ptrdiff_t>(removed));
  }
  job->x = initial.front().data.Clone();
  job->y = initial[std::min<size_t>(1, initial.size() - 1)].data.Clone();

  core::GaConfig config = spec.ga;
  config.seed = spec.seeds.GaSeed();
  EVOCAT_ASSIGN_OR_RETURN(auto strategy,
                          evolve::StrategyRegistry::Global().Create(
                              spec.strategy.name, spec.strategy.params));
  Result<core::EvolutionResult> evolved = Status::Internal("not run");
  {
    ScopedSpan evolve(tracer, job->id, "evolve.run", "evolve", job_span.id());
    if (strategy->name() == "generational") {
      core::EvolutionEngine engine(evaluator, config);
      double last = tracer->Now();
      const int64_t evolve_id = evolve.id();
      evolved = engine.Run(
          std::move(initial),
          [&](const core::GenerationRecord& record, const core::Population&) {
            Span span;
            span.id = tracer->NextId();
            span.parent = evolve_id;
            span.job = job->id;
            span.name = record.op == core::OperatorKind::kMutation
                            ? "core.mutation"
                            : "core.crossover";
            span.layer = "core";
            span.start = last;
            span.end = last = tracer->Now();
            tracer->Record(std::move(span));
            job->gen_total_s += record.total_seconds;
            job->gen_eval_s += record.eval_seconds;
          });
    } else {
      evolved = strategy->Run(evaluator, config, std::move(initial), nullptr);
    }
  }
  EVOCAT_RETURN_NOT_OK(evolved.status());
  const core::EvolutionResult& result = evolved.ValueOrDie();
  job->stats = result.stats;
  job->score = result.population.best().fitness.score;
  job->best = result.population.best().data.Clone();
  return Status::OK();
}

/// Apply+revert samples of one operator kind.
struct ReplaySamples {
  std::vector<double> apply_s;
  std::vector<int64_t> cells;
  std::vector<std::vector<double>> measure_s;  // [measure][segment]
  std::vector<int64_t> rebuilds;               // [measure]
};

const char* const kMeasureNames[] = {"CTBIL", "DBIL", "EBIL", "ID",
                                     "DBRL",  "PRL",  "RSRL"};

/// Binds each enabled measure alone, with the evaluator's parameters.
Status BindMeasures(
    const Job& job,
    std::vector<std::pair<std::string, std::unique_ptr<metrics::BoundMeasure>>>*
        out) {
  const metrics::FitnessEvaluator::Options& o = job.evaluator->options();
  const std::pair<bool, ParamMap> config[] = {
      {o.use_ctbil,
       {{"max_dimension", std::to_string(o.ctbil_max_dimension)}}},
      {o.use_dbil, {}},
      {o.use_ebil, {}},
      {o.use_id, {{"window_percent", FormatDouble(o.id_window_percent)}}},
      {o.use_dbrl, {}},
      {o.use_prl, {{"em_iterations", std::to_string(o.prl_em_iterations)}}},
      {o.use_rsrl,
       {{"assumed_p_percent", FormatDouble(o.rsrl_assumed_p_percent)}}},
  };
  for (size_t m = 0; m < 7; ++m) {
    if (!config[m].first) continue;
    EVOCAT_ASSIGN_OR_RETURN(auto measure,
                            metrics::MeasureRegistry::Global().Create(
                                kMeasureNames[m], config[m].second));
    EVOCAT_ASSIGN_OR_RETURN(auto bound,
                            measure->Bind(job.source->original,
                                          job.source->attrs));
    out->emplace_back(kMeasureNames[m], std::move(bound));
  }
  return Status::OK();
}

/// A FitnessState and the single-measure states bound on one file.
struct BoundFile {
  std::unique_ptr<metrics::FitnessState> state;
  std::vector<std::unique_ptr<metrics::MeasureState>> measures;
};

BoundFile BindFile(
    const Job& job, const Dataset& file,
    const std::vector<std::pair<std::string,
                                std::unique_ptr<metrics::BoundMeasure>>>& bound,
    int64_t total_cells) {
  BoundFile out;
  out.state = job.evaluator->BindState(file);
  for (const auto& entry : bound) {
    auto state = entry.second->BindState(file);
    state->set_total_protected_cells(total_cells);
    out.measures.push_back(std::move(state));
  }
  return out;
}

void ReplayLeg(BoundFile* file, const Dataset& after,
               const metrics::SegmentDelta& segment, ReplaySamples* samples) {
  if (segment.empty()) return;
  auto start = Clock::now();
  file->state->ApplyDelta(after, segment);
  file->state->Revert();
  samples->apply_s.push_back(
      std::chrono::duration<double>(Clock::now() - start).count());
  samples->cells.push_back(segment.num_cells());
  for (size_t m = 0; m < file->measures.size(); ++m) {
    metrics::MeasureState* state = file->measures[m].get();
    if (segment.num_cells() >= state->full_rebuild_threshold()) {
      ++samples->rebuilds[m];
    }
    start = Clock::now();
    state->ApplySegment(after, segment);
    state->RevertSegment();
    samples->measure_s[m].push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}

Status Replay(const Job& job, JsonValue* out) {
  std::vector<std::pair<std::string, std::unique_ptr<metrics::BoundMeasure>>>
      bound;
  EVOCAT_RETURN_NOT_OK(BindMeasures(job, &bound));
  const std::vector<int>& attrs = job.source->attrs;
  const int64_t total_cells = job.rows * static_cast<int64_t>(attrs.size());
  BoundFile fx = BindFile(job, job.x, bound, total_cells);
  BoundFile fy = BindFile(job, job.y, bound, total_cells);

  core::GenomeLayout layout(attrs, job.rows);
  core::MutationOperator mutation(layout, job.spec.ga.mutation_excludes_current);
  core::CrossoverOperator crossover(layout);
  Rng rng(job.spec.seeds.GaSeed());
  ReplaySamples mut;
  ReplaySamples cx;
  for (ReplaySamples* s : {&mut, &cx}) {
    s->measure_s.resize(bound.size());
    s->rebuilds.assign(bound.size(), 0);
  }
  for (int64_t i = 0; i < job.stats.mutation_generations; ++i) {
    Dataset z = job.x.Clone();
    core::MutationOperator::Record record = mutation.Apply(&z, &rng);
    metrics::SegmentDelta segment;
    segment.Append(record.row, record.attr, record.old_code, record.new_code);
    ReplayLeg(&fx, z, segment, &mut);
  }
  for (int64_t i = 0; i < job.stats.crossover_generations; ++i) {
    Dataset z1;
    Dataset z2;
    core::CrossoverOperator::Record record =
        crossover.Apply(job.x, job.y, &z1, &z2, &rng);
    ReplayLeg(&fx, z1, record.deltas1, &cx);
    ReplayLeg(&fy, z2, record.deltas2, &cx);
  }

  auto numbers = [](const auto& values) {
    JsonValue array = JsonValue::MakeArray();
    for (auto v : values) array.Append(JsonValue::MakeNumber(double(v)));
    return array;
  };
  auto samples_json = [&](const ReplaySamples& s) {
    JsonValue json = JsonValue::MakeObject();
    json.Set("apply_s", numbers(s.apply_s));
    json.Set("cells", numbers(s.cells));
    JsonValue measures = JsonValue::MakeObject();
    for (size_t m = 0; m < bound.size(); ++m) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("apply_s", numbers(s.measure_s[m]));
      entry.Set("rebuilds", JsonValue::MakeInt(s.rebuilds[m]));
      measures.Set(bound[m].first, std::move(entry));
    }
    json.Set("measures", std::move(measures));
    return json;
  };
  out->Set("mutation", samples_json(mut));
  out->Set("crossover", samples_json(cx));
  return Status::OK();
}

JsonValue JobJson(const Job& job) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("type", JsonValue::MakeString("job"));
  json.Set("id", JsonValue::MakeString(job.id));
  json.Set("ok", JsonValue::MakeBool(job.status.ok()));
  if (!job.status.ok()) {
    json.Set("error", JsonValue::MakeString(job.status.ToString()));
    return json;
  }
  json.Set("score", JsonValue::MakeNumber(job.score));
  json.Set("csv", JsonValue::MakeString(job.csv_out));
  json.Set("csv_source", JsonValue::MakeBool(job.csv_source));
  json.Set("strategy", JsonValue::MakeString(job.spec.strategy.name));
  json.Set("members", JsonValue::MakeInt(job.members));
  json.Set("rows", JsonValue::MakeInt(job.rows));
  json.Set("mutation_generations",
           JsonValue::MakeInt(job.stats.mutation_generations));
  json.Set("crossover_generations",
           JsonValue::MakeInt(job.stats.crossover_generations));
  json.Set("accepted", JsonValue::MakeInt(job.stats.accepted_mutations +
                                          job.stats.accepted_crossovers));
  json.Set("offspring", JsonValue::MakeInt(job.stats.offspring_evaluated));
  json.Set("gen_total_s", JsonValue::MakeNumber(job.gen_total_s));
  json.Set("gen_eval_s", JsonValue::MakeNumber(job.gen_eval_s));
  return json;
}

JsonValue SpanJson(const Span& span) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("type", JsonValue::MakeString("span"));
  json.Set("id", JsonValue::MakeInt(span.id));
  json.Set("parent", JsonValue::MakeInt(span.parent));
  json.Set("job", JsonValue::MakeString(span.job));
  json.Set("name", JsonValue::MakeString(span.name));
  json.Set("layer", JsonValue::MakeString(span.layer));
  json.Set("start", JsonValue::MakeNumber(span.start));
  json.Set("end", JsonValue::MakeNumber(span.end));
  return json;
}

Result<JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read '", path, "'");
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::Parse(text.str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: evobench_trace <jobs.json> <out.jsonl>\n");
    return 2;
  }
  Result<JsonValue> input = ReadJson(argv[1]);
  const JsonValue* threads =
      input.ok() ? input.ValueOrDie().Find("threads") : nullptr;
  const JsonValue* groups =
      input.ok() ? input.ValueOrDie().Find("groups") : nullptr;
  if (threads == nullptr || groups == nullptr || !groups->is_array()) {
    std::fprintf(stderr, "evobench_trace: bad input %s\n", argv[1]);
    return 2;
  }
  std::ofstream out(argv[2]);
  auto emit = [&out](const JsonValue& json) { out << json.Dump() << '\n'; };

  Tracer tracer;
  TaskScheduler scheduler(static_cast<int>(threads->int_value()));
  api::Session session;
  for (size_t g = 0; g < groups->size(); ++g) {
    const JsonValue& group = groups->at(g);
    std::vector<std::unique_ptr<Job>> jobs;
    for (size_t j = 0; j < group.size(); ++j) {
      auto job = std::make_unique<Job>();
      const JsonValue& entry = group.at(j);
      if (const JsonValue* id = entry.Find("id")) job->id = id->string_value();
      if (const JsonValue* csv = entry.Find("csv_out")) {
        job->csv_out = csv->string_value();
      }
      if (const JsonValue* spec = entry.Find("spec")) job->spec_json = *spec;
      jobs.push_back(std::move(job));
    }
    TaskScheduler::Group running;
    for (auto& job : jobs) {
      Job* j = job.get();
      j->submitted = tracer.Now();
      scheduler.Submit(&running, [&tracer, &session, j] {
        // The task span opens at submission, so its self time is the wait
        // for a worker.
        Span task;
        task.id = tracer.NextId();
        task.job = j->id;
        task.name = "common.task";
        task.layer = "common";
        task.start = j->submitted;
        j->status = RunJob(&tracer, &session, j, task.id);
        task.end = tracer.Now();
        tracer.Record(std::move(task));
        if (j->status.ok()) j->status = WriteCsvFile(j->best, j->csv_out);
      });
    }
    scheduler.Wait(&running);
    for (const Span& span : tracer.Take()) emit(SpanJson(span));
    for (auto& job : jobs) {
      emit(JobJson(*job));
      if (!job->status.ok()) continue;
      JsonValue replay = JsonValue::MakeObject();
      replay.Set("type", JsonValue::MakeString("replay"));
      replay.Set("id", JsonValue::MakeString(job->id));
      Status replayed;
      TaskScheduler::Group replaying;
      scheduler.Submit(&replaying, [&] { replayed = Replay(*job, &replay); });
      scheduler.Wait(&replaying);
      if (!replayed.ok()) {
        replay.Set("error", JsonValue::MakeString(replayed.ToString()));
      }
      emit(replay);
    }
    out.flush();
  }
  api::Session::CacheStats cache = session.cache_stats();
  JsonValue summary = JsonValue::MakeObject();
  summary.Set("type", JsonValue::MakeString("summary"));
  summary.Set("workers", JsonValue::MakeInt(scheduler.num_workers()));
  summary.Set("steals", JsonValue::MakeInt(scheduler.steal_count()));
  summary.Set("cache_hits", JsonValue::MakeInt(cache.hits));
  summary.Set("cache_misses", JsonValue::MakeInt(cache.misses));
  emit(summary);
  return out.good() ? 0 : 1;
}
