// exact-flat: the paper's exact search (PDX-BOND on the vertical layout,
// Figure 9) through the Searcher facade, one waiting caller. A skewed
// 5120 x 768 collection (15.7 MB); kernels, the BOND bounds and top-k do the
// work.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/persist.h"
#include "workloads.h"

namespace pdxbench {
namespace {

constexpr size_t kDim = 768;
constexpr size_t kCount = 5120;
constexpr size_t kQueries = 1000;
constexpr size_t kK = 10;
// 10 PDX partitions: the first seeds the threshold, the rest are pruned.
constexpr size_t kBlockCapacity = 512;
constexpr size_t kSample = 64;   // queries the oracle answers
constexpr size_t kWarmup = 50;   // untimed queries before the passes
constexpr size_t kRestores = 20;

double Ms(Clock::time_point since) { return MsBetween(since, Clock::now()); }

}  // namespace

void RunExactFlat(const Args& args, Report& report) {
  Generator gen(DataShape{kDim, 48, 0.4, 1.0}, args.seed * 4 + 0);
  const Vectors data = gen.Draw(kCount);
  const Vectors queries = gen.Draw(kQueries);
  const Corpus corpus{data.rows.data(), kDim, kCount, nullptr};
  pdx::SearcherConfig config;  // flat layout, PDX-BOND pruner
  config.k = kK;
  config.block_capacity = kBlockCapacity;

  // Set-up: vectors in memory -> the first query answered.
  const Clock::time_point setup_start = Clock::now();
  pdx::VectorSet vectors =
      pdx::VectorSet::FromRowMajor(data.rows.data(), kCount, kDim);
  auto made = pdx::MakeSearcher(vectors, config);
  if (!made.ok()) {
    report.OpFailed("MakeSearcher: " + made.status().ToString());
    return;
  }
  std::unique_ptr<pdx::Searcher> searcher = std::move(made).value();
  searcher->Search(queries.Row(0));
  const double setup_s = SecondsSince(setup_start);
  report.Attempt(2);

  for (size_t q = 0; q < kWarmup; ++q) searcher->Search(queries.Row(q));
  report.Attempt(kWarmup);

  // Untraced passes; every pass must return exactly the first pass's answer.
  // Ingest: a static tier's write call is the bulk build, so each pass
  // starts with a warm rebuild of the whole collection (its own timing,
  // spread over the run like the queries'; the queries use the first build).
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::vector<pdx::Neighbor>> answers(kQueries);
  double build_ms = 1e300;
  const Fastest fastest =
      RunPasses(kQueries, 2, budget, [&](size_t q, size_t pass) {
        if (q == 0 && !args.trace) {
          const Clock::time_point b = Clock::now();
          auto rebuilt = pdx::MakeSearcher(vectors, config);
          build_ms = std::min(build_ms, Ms(b));
          report.Attempt(1);
          if (!rebuilt.ok()) {
            report.OpFailed("rebuild: " + rebuilt.status().ToString());
          }
        }
        const Clock::time_point t = Clock::now();
        std::vector<pdx::Neighbor> nn = searcher->Search(queries.Row(q));
        const double ms = Ms(t);
        if (pass == 0) {
          answers[q] = std::move(nn);
        } else if (nn != answers[q]) {
          report.Fail("query " + std::to_string(q) + " changed between passes");
        }
        return ms;
      });
  report.Attempt(kQueries * fastest.passes());

  const std::vector<size_t> sample = SampleQueries(kQueries, kSample);
  const std::vector<Truth> truth = SampleTruth(corpus, queries, sample, kK);
  auto check = [&](const char* what, size_t i,
                   const std::vector<pdx::Neighbor>& got) {
    const size_t q = sample[i];
    const std::string why =
        CheckAnswer(corpus, queries.Row(q), kK, ToHits(got), &truth[i]);
    if (!why.empty()) {
      report.Fail(std::string(what) + " query " + std::to_string(q) + ": " +
                  why);
    }
  };
  for (size_t i = 0; i < sample.size(); ++i) check("live", i, answers[sample[i]]);

  Layers layers;
  if (args.trace) {
    // Traced searcher over the same data: per-query phase times and work
    // counters. Its extra timer calls are the trace overhead.
    pdx::SearcherConfig traced_config = config;
    traced_config.search.collect_phase_times = true;
    auto traced = pdx::MakeSearcher(vectors, traced_config);
    if (!traced.ok()) {
      report.OpFailed("MakeSearcher(traced): " + traced.status().ToString());
      return;
    }
    std::unique_ptr<pdx::Searcher> tsearcher = std::move(traced).value();
    const EngineTrace engine =
        TraceEngine(*tsearcher, queries, kQueries, args.seconds / 2, layers);
    report.Attempt(kQueries * engine.passes);
    layers.SetCounts(engine.counters);
    layers.Set("obs.trace_overhead_ms",
               Median(engine.fastest_ms) - Median(fastest.best()));
  }

  // Persist the collection, then restore it (mmap) until it answers.
  const std::string path = SnapshotPath(args, "saved");
  const pdx::Status saved = searcher->Save(path);
  report.Attempt(1);
  if (!saved.ok()) {
    report.OpFailed("Save: " + saved.ToString());
    return;
  }
  const double snapshot_bytes = double(FileBytes(path));
  searcher.reset();
  double restore_s = 1e300, load_s = 1e300;
  for (size_t r = 0; r < kRestores; ++r) {
    const Clock::time_point t = Clock::now();
    auto loaded = pdx::LoadCollection(path);
    const double load = SecondsSince(t);
    report.Attempt(1);
    if (!loaded.ok()) {
      report.OpFailed("LoadCollection: " + loaded.status().ToString());
      continue;
    }
    std::unique_ptr<pdx::Searcher> restored = std::move(loaded).value().searcher;
    std::vector<pdx::Neighbor> first = restored->Search(queries.Row(sample[0]));
    restore_s = std::min(restore_s, SecondsSince(t));
    load_s = std::min(load_s, load);
    check("restored", 0, first);
    if (r == 0) {
      for (size_t i = 1; i < sample.size(); ++i) {
        check("restored", i, restored->Search(queries.Row(sample[i])));
      }
      report.Attempt(sample.size());
    }
  }
  RemoveFile(path);

  if (args.trace) {
    layers.Set("storage.load_s", load_s);
    layers.Set("storage.bytes_per_user_byte",
               snapshot_bytes / double(kCount * kDim * sizeof(float)));
    layers.Emit(report);
    return;
  }
  report.Add("setup_s", setup_s, "s");
  AddQueryMetrics(report, fastest.best(),
                  double(kQueries) / (Sum(fastest.best()) / 1000.0));
  report.Add("restore_s", restore_s, "s");
  report.Add("snapshot_mb", snapshot_bytes / 1e6, "MB");
  report.Add("ingest_p50_ms", build_ms, "ms");
  report.Add("ingest_vectors_per_s", double(kCount) / (build_ms / 1000.0),
             "vectors/s");
}

}  // namespace pdxbench
