// u8-batch: the quantized tier, a u8 code scan plus exact rerank
// (quantization = u8, rerank_factor 4), queried through SearchBatchWith in
// batches on a pool of 2 threads. An embedding-like 8000 x 768 mixture.

#include <memory>
#include <string>
#include <vector>

#include "core/persist.h"
#include "workloads.h"

namespace pdxbench {
namespace {

constexpr size_t kDim = 768;
constexpr size_t kCount = 8000;
constexpr size_t kQueries = 1000;
constexpr size_t kBatch = 50;
constexpr size_t kBatches = kQueries / kBatch;
constexpr size_t kK = 10;
constexpr size_t kThreads = 2;
constexpr size_t kSample = 100;
constexpr double kRecallFloor = 0.95;  // mean recall@10 over the sample
constexpr size_t kRestores = 20;

double Ms(Clock::time_point since) { return MsBetween(since, Clock::now()); }

}  // namespace

void RunU8Batch(const Args& args, Report& report) {
  Generator gen(DataShape{kDim, 64, 0.7, 0.0}, args.seed * 4 + 3);
  const Vectors data = gen.Draw(kCount);
  const Vectors queries = gen.Draw(kQueries);
  const Corpus corpus{data.rows.data(), kDim, kCount, nullptr};
  pdx::SearcherConfig config;
  config.quantization = pdx::QuantizationKind::kU8;
  config.rerank_factor = 4;
  config.k = kK;
  config.threads = kThreads;

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
  searcher->ReserveScratch(kThreads);
  searcher->SearchBatchWith(0, pdx::QueryKnobs{}, queries.Row(0), 1);
  const double setup_s = SecondsSince(setup_start);
  report.Attempt(2);

  auto batch = [&](size_t b, pdx::SearchCounters* counters) {
    return searcher->SearchBatchWith(0, pdx::QueryKnobs{},
                                     queries.Row(b * kBatch), kBatch, nullptr,
                                     counters);
  };
  batch(0, nullptr);  // warm-up
  report.Attempt(kBatch);

  std::vector<std::vector<pdx::Neighbor>> answers(kQueries);
  std::vector<double> pass_ms;
  // Ingest: the static tier's write call is the bulk build (quantization
  // included); each pass starts with a warm rebuild, timed on its own.
  double build_ms = 1e300;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Fastest fastest =
      RunPasses(kBatches, 3, budget, [&](size_t b, size_t pass) {
        if (b == 0 && !args.trace) {
          const Clock::time_point r = Clock::now();
          auto rebuilt = pdx::MakeSearcher(vectors, config);
          build_ms = std::min(build_ms, Ms(r));
          report.Attempt(1);
          if (!rebuilt.ok()) {
            report.OpFailed("rebuild: " + rebuilt.status().ToString());
          }
        }
        const Clock::time_point t = Clock::now();
        auto got = batch(b, nullptr);
        const double ms = Ms(t);
        if (b == 0) pass_ms.push_back(0.0);
        pass_ms.back() += ms;
        for (size_t i = 0; i < kBatch; ++i) {
          const size_t q = b * kBatch + i;
          if (pass == 0) {
            answers[q] = std::move(got[i]);
          } else if (got[i] != answers[q]) {
            report.Fail("query " + std::to_string(q) + " changed between passes");
          }
        }
        return ms;
      });
  report.Attempt(kQueries * fastest.passes());

  // Reranked distances are exact for every query; recall on a sample.
  auto check = [&](const char* what, size_t q,
                   const std::vector<pdx::Neighbor>& got) {
    const std::string why =
        CheckAnswer(corpus, queries.Row(q), kK, ToHits(got), nullptr);
    if (!why.empty()) {
      report.Fail(std::string(what) + " query " + std::to_string(q) + ": " +
                  why);
    }
  };
  for (size_t q = 0; q < kQueries; ++q) check("live", q, answers[q]);
  const std::vector<size_t> sample = SampleQueries(kQueries, kSample);
  const std::vector<Truth> truth = SampleTruth(corpus, queries, sample, kK);
  auto recall_of = [&](const std::vector<std::vector<pdx::Neighbor>>& got) {
    double sum = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      sum += Recall(ToHits(got[sample[i]]), truth[i]);
    }
    return sum / double(sample.size());
  };
  const double recall = recall_of(answers);
  std::fprintf(stderr, "u8-batch: recall@%zu %.4f (floor %.2f)\n", kK, recall,
               kRecallFloor);
  if (recall < kRecallFloor) report.Fail("recall below floor");

  Layers layers;
  if (args.trace) {
    // Per-query counters through the batch call's counters array.
    std::vector<pdx::SearchCounters> counters(kQueries);
    const Fastest tfastest =
        RunPasses(kBatches, 2, args.seconds / 4, [&](size_t b, size_t) {
          const Clock::time_point t = Clock::now();
          batch(b, counters.data() + b * kBatch);
          return Ms(t);
        });
    report.Attempt(kQueries * tfastest.passes());
    layers.SetCounts(counters);
    double rerank = 0, scanned = 0;
    for (const pdx::SearchCounters& c : counters) {
      rerank += double(c.rerank_candidates);
      scanned += double(c.values_scanned);
    }
    layers.Set("quant.rerank_candidates", rerank / kQueries);
    layers.Set("quant.code_mb", double(searcher->quantized_bytes()) / 1e6);
    layers.Set("obs.trace_overhead_ms",
               Median(tfastest.best()) - Median(fastest.best()));
    // One thread against the pool, same batches.
    searcher->set_threads(1);
    const Fastest single =
        RunPasses(kBatches, 2, args.seconds / 4, [&](size_t b, size_t) {
          const Clock::time_point t = Clock::now();
          batch(b, nullptr);
          return Ms(t);
        });
    searcher->set_threads(kThreads);
    report.Attempt(kQueries * single.passes());
    layers.Set("core.batch_speedup",
               Sum(single.best()) / Sum(fastest.best()));
    layers.Set("core.search_ms", Median(single.best()) / kBatch);
    // Code bytes scanned (1 B per u8 value) per second of one-thread time.
    layers.Set("kernels.scan_gbps",
               scanned / (Sum(single.best()) / 1000.0) / 1e9);
  }

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
    restored->ReserveScratch(kThreads);
    auto first = restored->SearchBatchWith(0, pdx::QueryKnobs{},
                                           queries.Row(0), 1);
    restore_s = std::min(restore_s, SecondsSince(t));
    load_s = std::min(load_s, load);
    check("restored", 0, first[0]);
    if (r == 0) {
      std::vector<std::vector<pdx::Neighbor>> again(kQueries);
      for (size_t b = 0; b < kBatches; ++b) {
        auto got = restored->SearchBatchWith(0, pdx::QueryKnobs{},
                                             queries.Row(b * kBatch), kBatch);
        for (size_t i = 0; i < kBatch; ++i) {
          again[b * kBatch + i] = std::move(got[i]);
          check("restored", b * kBatch + i, again[b * kBatch + i]);
        }
      }
      report.Attempt(kQueries);
      if (recall_of(again) < kRecallFloor) {
        report.Fail("restored recall below floor");
      }
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
  // A query's time is its batch's time.
  std::vector<double> per_query;
  for (size_t b = 0; b < kBatches; ++b) {
    per_query.insert(per_query.end(), kBatch, fastest.best()[b]);
  }
  report.Add("setup_s", setup_s, "s");
  AddQueryMetrics(report, per_query,
                  double(kQueries) /
                      (*std::min_element(pass_ms.begin(), pass_ms.end()) /
                       1000.0));
  report.Add("restore_s", restore_s, "s");
  report.Add("snapshot_mb", snapshot_bytes / 1e6, "MB");
  report.Add("ingest_p50_ms", build_ms, "ms");
  report.Add("ingest_vectors_per_s", double(kCount) / (build_ms / 1000.0),
             "vectors/s");
}

}  // namespace pdxbench
