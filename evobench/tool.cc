// evobench_tool — input generation and the correctness gate of the
// repository benchmark (evobench/run.py).
//
//   evobench_tool gen <rows> <seed> <out.csv>
//       Writes an Adult-shaped synthetic file of <rows> records and prints
//       one JSON line: protected and ordinal attribute names, generate and
//       write seconds.
//   evobench_tool verify <manifest.jsonl>
//       Each manifest line is {"id", "spec", "csv", "score"}: a resolved
//       JobSpec, a returned best file and the score the daemon reported for
//       it. The tool loads the spec's original with Session::LoadSource,
//       reads the file onto the original's schema, re-scores it from
//       scratch with FitnessEvaluator::Evaluate and prints one line per job:
//       {"id", "ok", "score", "error"}; ok means |rescored - reported| <= 1e-9.
//       Exit code 0 iff every job passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "api/json.h"
#include "api/jobspec.h"
#include "api/session.h"
#include "common/timer.h"
#include "data/csv.h"
#include "datagen/generator.h"
#include "datagen/profile.h"
#include "metrics/fitness.h"

using namespace evocat;
using api::JsonValue;

namespace {

constexpr double kScoreTolerance = 1e-9;

int Gen(int64_t rows, uint64_t seed, const std::string& out) {
  datagen::SyntheticProfile profile = datagen::AdultProfile();
  profile.num_records = rows;
  Timer timer;
  Result<Dataset> data = datagen::Generate(profile, seed);
  if (!data.ok()) {
    std::fprintf(stderr, "gen: %s\n", data.status().ToString().c_str());
    return 1;
  }
  double generate_s = timer.ElapsedSeconds();
  timer.Reset();
  Status written = WriteCsvFile(data.ValueOrDie(), out);
  if (!written.ok()) {
    std::fprintf(stderr, "gen: %s\n", written.ToString().c_str());
    return 1;
  }
  double write_s = timer.ElapsedSeconds();

  JsonValue protected_attrs = JsonValue::MakeArray();
  for (const auto& name : profile.protected_attributes) {
    protected_attrs.Append(JsonValue::MakeString(name));
  }
  JsonValue ordinal = JsonValue::MakeArray();
  for (const auto& attr : profile.attributes) {
    if (attr.kind == AttrKind::kOrdinal) {
      ordinal.Append(JsonValue::MakeString(attr.name));
    }
  }
  JsonValue line = JsonValue::MakeObject();
  line.Set("protected", std::move(protected_attrs));
  line.Set("ordinal", std::move(ordinal));
  line.Set("generate_s", JsonValue::MakeNumber(generate_s));
  line.Set("write_s", JsonValue::MakeNumber(write_s));
  std::printf("%s\n", line.Dump().c_str());
  return 0;
}

/// One original and its evaluator, shared by every manifest job that names
/// the same source, data seed and measure configuration.
struct Scorer {
  api::Session::SourceData source;
  std::unique_ptr<metrics::FitnessEvaluator> evaluator;
};

std::string ScorerKey(const api::JobSpec& spec) {
  JsonValue json = spec.ToJson();
  std::string key;
  for (const char* field :
       {"source", "protected_attributes", "measures", "fitness"}) {
    const JsonValue* value = json.Find(field);
    key += value != nullptr ? value->Dump() : std::string("-");
    key += '\n';
  }
  return key + std::to_string(spec.seeds.DataSeed());
}

Result<double> Rescore(api::Session* session,
                       std::map<std::string, Scorer>* scorers,
                       const JsonValue& job) {
  const JsonValue* spec_json = job.Find("spec");
  const JsonValue* csv = job.Find("csv");
  if (spec_json == nullptr || csv == nullptr || !csv->is_string()) {
    return Status::Invalid("manifest line needs 'spec' and 'csv'");
  }
  EVOCAT_ASSIGN_OR_RETURN(api::JobSpec spec, api::JobSpec::FromJson(*spec_json));
  std::string key = ScorerKey(spec);
  auto it = scorers->find(key);
  if (it == scorers->end()) {
    EVOCAT_ASSIGN_OR_RETURN(api::Session::SourceData source,
                            session->LoadSource(spec));
    // The evaluator points into the map node's original, so bind it there.
    it = scorers->emplace(key, Scorer{std::move(source), nullptr}).first;
    Result<std::unique_ptr<metrics::FitnessEvaluator>> evaluator =
        metrics::FitnessEvaluator::Create(it->second.source.original,
                                          it->second.source.attrs,
                                          spec.FitnessOptions());
    if (!evaluator.ok()) {
      scorers->erase(it);
      return evaluator.status();
    }
    it->second.evaluator = std::move(evaluator).ValueOrDie();
  }
  CsvReadOptions options;
  options.has_header = spec.source.has_header;
  options.separator = spec.source.separator[0];
  options.bind_schema = it->second.source.original.schema_ptr();
  EVOCAT_ASSIGN_OR_RETURN(Dataset masked,
                          ReadCsvFile(csv->string_value(), options));
  if (masked.num_rows() != it->second.source.original.num_rows()) {
    return Status::Invalid("best file has ", masked.num_rows(),
                           " rows, original has ",
                           it->second.source.original.num_rows());
  }
  return it->second.evaluator->Evaluate(masked).score;
}

int Verify(const std::string& manifest) {
  std::ifstream in(manifest);
  if (!in) {
    std::fprintf(stderr, "verify: cannot read %s\n", manifest.c_str());
    return 1;
  }
  api::Session session;
  std::map<std::string, Scorer> scorers;
  bool all_ok = true;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    JsonValue out = JsonValue::MakeObject();
    bool ok = false;
    Result<JsonValue> job = JsonValue::Parse(text);
    if (!job.ok()) {
      out.Set("error", JsonValue::MakeString(job.status().ToString()));
    } else {
      const JsonValue& j = job.ValueOrDie();
      if (const JsonValue* id = j.Find("id")) out.Set("id", *id);
      const JsonValue* reported = j.Find("score");
      Result<double> rescored = Rescore(&session, &scorers, j);
      if (!rescored.ok()) {
        out.Set("error", JsonValue::MakeString(rescored.status().ToString()));
      } else if (reported == nullptr || !reported->is_number()) {
        out.Set("error", JsonValue::MakeString("manifest line lacks 'score'"));
      } else {
        double score = rescored.ValueOrDie();
        out.Set("score", JsonValue::MakeNumber(score));
        ok = std::fabs(score - reported->number_value()) <= kScoreTolerance;
        if (!ok) {
          out.Set("error", JsonValue::MakeString("re-scored best differs "
                                                 "from the reported score"));
        }
      }
    }
    out.Set("ok", JsonValue::MakeBool(ok));
    all_ok = all_ok && ok;
    std::printf("%s\n", out.Dump().c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "gen" && argc == 5) {
    return Gen(std::strtoll(argv[2], nullptr, 10),
               std::strtoull(argv[3], nullptr, 10), argv[4]);
  }
  if (mode == "verify" && argc == 3) return Verify(argv[2]);
  std::fprintf(stderr,
               "usage: evobench_tool gen <rows> <seed> <out.csv>\n"
               "       evobench_tool verify <manifest.jsonl>\n");
  return 2;
}
