// live-mixed: writes beside reads. A mutable flat PDX-BOND collection
// (20000 x 96 base) hosted in SearchService; one client thread runs a
// seeded interleave of queries with AddVectors, DeleteVectors and Upsert
// batches. The compaction threshold is crossed several times per pass, so
// the delta store, tombstones and background compaction all do work.
// Every pass rebuilds the collection first, so every pass does the same
// work.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "workloads.h"

namespace pdxbench {
namespace {

constexpr size_t kDim = 96;
constexpr size_t kBase = 20000;
constexpr size_t kQueries = 1000;
constexpr size_t kK = 10;
constexpr size_t kQueriesPerWrite = 10;  // one write batch per 10 queries
constexpr size_t kWriteRows = 40;
constexpr size_t kCompactThreshold = 600;
constexpr size_t kCheckEvery = 10;  // brute-force every 10th query
constexpr size_t kWarmupOps = 100;
constexpr size_t kRestores = 20;
constexpr size_t kRestoreSample = 50;
const char kName[] = "live";

double Ms(Clock::time_point since) { return MsBetween(since, Clock::now()); }

enum class Kind { kQuery, kAdd, kUpsert, kDelete };

struct Op {
  Kind kind = Kind::kQuery;
  size_t query = 0;            // kQuery: row of the query set
  std::vector<uint64_t> ids;   // writes
  std::vector<float> rows;     // kAdd / kUpsert
  size_t live_after = 0;       // the model's live count after this op
};

/// The seeded operation sequence. Deletes and upserts pick ids live at
/// that point, so the sequence is valid from a freshly built base.
std::vector<Op> MakeOps(Generator& gen, uint64_t seed, size_t* total_ids) {
  Rng rng(seed);
  std::vector<uint64_t> live(kBase);
  for (size_t i = 0; i < kBase; ++i) live[i] = i;
  uint64_t next_id = kBase;
  std::vector<Op> ops;
  for (size_t q = 0; q < kQueries; ++q) {
    Op query;
    query.query = q;
    query.live_after = live.size();
    ops.push_back(std::move(query));
    if ((q + 1) % kQueriesPerWrite != 0) continue;
    // Kinds cycle add, upsert, delete, so every seed writes the same mix;
    // the seed picks the ids and the vectors.
    Op write;
    write.kind = static_cast<Kind>(1 + (q / kQueriesPerWrite) % 3);
    for (size_t r = 0; r < kWriteRows; ++r) {
      if (write.kind == Kind::kAdd) {
        write.ids.push_back(next_id);
        live.push_back(next_id++);
      } else {
        const size_t at = rng.Below(live.size());
        write.ids.push_back(live[at]);
        if (write.kind == Kind::kDelete) {
          live[at] = live.back();
          live.pop_back();
        }
      }
    }
    if (write.kind != Kind::kDelete) {
      write.rows.resize(kWriteRows * kDim);
      for (size_t r = 0; r < kWriteRows; ++r) {
        gen.DrawInto(write.rows.data() + r * kDim);
      }
    }
    // Upserts may repeat an id within a batch; keep the batch's ids unique.
    std::sort(write.ids.begin(), write.ids.end());
    if (std::adjacent_find(write.ids.begin(), write.ids.end()) !=
        write.ids.end()) {
      continue;  // rare; drop the batch rather than model duplicate writes
    }
    write.live_after = live.size();
    ops.push_back(std::move(write));
  }
  *total_ids = next_id;
  return ops;
}

/// The benchmark's own model of the live set: row `id` is the current
/// vector of id `id`; alive marks ids in the collection.
struct Model {
  std::vector<float> rows;
  std::vector<uint8_t> alive;
  Model(const Vectors& base, size_t total_ids)
      : rows(total_ids * kDim), alive(total_ids, 0) {
    std::copy(base.rows.begin(), base.rows.end(), rows.begin());
    std::fill(alive.begin(), alive.begin() + kBase, 1);
  }
  void Apply(const Op& op) {
    for (size_t r = 0; r < op.ids.size(); ++r) {
      const uint64_t id = op.ids[r];
      alive[id] = op.kind == Kind::kDelete ? 0 : 1;
      if (op.kind != Kind::kDelete) {
        std::copy(op.rows.begin() + r * kDim, op.rows.begin() + (r + 1) * kDim,
                  rows.begin() + id * kDim);
      }
    }
  }
  Corpus corpus() const { return {rows.data(), kDim, alive.size(), &alive}; }
};

}  // namespace

void RunLiveMixed(const Args& args, Report& report) {
  Generator gen(DataShape{kDim, 100, 0.6, 1.0}, args.seed * 4 + 2);
  const Vectors base = gen.Draw(kBase);
  const Vectors queries = gen.Draw(kQueries);
  size_t total_ids = 0;
  const std::vector<Op> ops = MakeOps(gen, args.seed * 4 + 3, &total_ids);

  pdx::SearcherConfig config;  // flat layout, PDX-BOND pruner
  config.k = kK;
  pdx::MetricsRegistry registry;
  pdx::ServiceConfig service_config;
  service_config.threads = 2;
  service_config.metrics = &registry;
  service_config.mutation.compact_threshold = kCompactThreshold;

  // Set-up: vectors in memory -> the first query answered.
  const Clock::time_point setup_start = Clock::now();
  pdx::VectorSet vectors =
      pdx::VectorSet::FromRowMajor(base.rows.data(), kBase, kDim);
  pdx::SearchService service(service_config);
  pdx::Status built = service.AddCollection(kName, vectors, config);
  pdx::QueryResult first;
  if (built.ok()) first = service.Submit(kName, queries.Row(0)).result.get();
  const double setup_s = SecondsSince(setup_start);
  report.Attempt(2);
  if (!built.ok() || !first.status.ok()) {
    report.OpFailed("set-up: " + built.ToString() + " " +
                    first.status.ToString());
    return;
  }

  // Runs op i; returns its time, or -1 when the call failed.
  auto run_op = [&](const Op& op, bool trace, pdx::QueryResult* result) {
    const Clock::time_point t = Clock::now();
    bool ok = true;
    switch (op.kind) {
      case Kind::kQuery: {
        pdx::QueryOptions options;
        options.trace = trace;
        *result = service.Submit(kName, queries.Row(op.query), options)
                      .result.get();
        ok = result->status.ok();
        break;
      }
      case Kind::kAdd:
      case Kind::kUpsert: {
        auto done = op.kind == Kind::kAdd
                        ? service.AddVectors(kName, op.rows.data(),
                                             op.ids.size(), kDim,
                                             op.ids.data())
                        : service.Upsert(kName, op.rows.data(),
                                         op.ids.size(), kDim, op.ids.data());
        ok = done.ok();
        break;
      }
      case Kind::kDelete: {
        auto done = service.DeleteVectors(kName, op.ids.data(), op.ids.size());
        ok = done.ok() && done.value() == op.ids.size();
        break;
      }
    }
    const double ms = Ms(t);
    return ok ? ms : -1.0;
  };
  auto settle = [&]() {
    // Waits until no compaction is due or in flight: below the threshold
    // and the compaction count unchanged across two polls.
    uint64_t last = ~uint64_t{0};
    for (;;) {
      const pdx::CollectionStats cs = service.Stats().collections.at(kName);
      const bool quiet = cs.delta < kCompactThreshold &&
                         cs.tombstones < kCompactThreshold;
      if (quiet && cs.compactions == last) return;
      last = quiet ? cs.compactions : ~uint64_t{0};
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  };
  auto rebuild = [&]() {
    service.RemoveCollection(kName);
    const pdx::Status status = service.AddCollection(kName, vectors, config);
    if (!status.ok()) report.OpFailed("rebuild: " + status.ToString());
    report.Attempt(1);
  };

  pdx::QueryResult result;
  for (size_t i = 0; i < kWarmupOps; ++i) run_op(ops[i], false, &result);
  report.Attempt(kWarmupOps);

  // Passes: rebuild, then the whole sequence. Answers are kept per pass and
  // checked against the model after the passes (untimed).
  std::vector<std::vector<std::vector<pdx::Neighbor>>> answers;
  std::vector<double> times(ops.size());
  Fastest fastest(ops.size());
  Layers layers;
  auto passes = [&](double budget, bool trace,
                    const std::function<void(size_t, const pdx::QueryResult&)>&
                        observe) {
    const Clock::time_point start = Clock::now();
    double longest = 0.0;
    size_t done = 0;
    while (AnotherPass(done, 2, start, budget, longest)) {
      rebuild();
      const Clock::time_point pass_start = Clock::now();
      std::vector<std::vector<pdx::Neighbor>> pass_answers(kQueries);
      for (size_t i = 0; i < ops.size(); ++i) {
        times[i] = run_op(ops[i], trace, &result);
        if (times[i] < 0) report.OpFailed("op " + std::to_string(i));
        if (ops[i].kind == Kind::kQuery) {
          pass_answers[ops[i].query] = std::move(result.neighbors);
        }
        if (observe) observe(i, result);
        const size_t count = service.GetCollectionInfo(kName).value().count;
        if (count != ops[i].live_after) {
          report.Fail("collection count " + std::to_string(count) +
                      " != model " + std::to_string(ops[i].live_after));
        }
      }
      report.Attempt(ops.size());
      longest = std::max(longest, SecondsSince(pass_start));
      LogPass(answers.size(), SecondsSince(pass_start), times);
      answers.push_back(std::move(pass_answers));
      if (!trace) fastest.Take(times);
      ++done;
    }
  };
  passes(args.trace ? args.seconds / 2 : args.seconds, false, nullptr);
  const size_t untraced_passes = answers.size();

  if (args.trace) {
    // Traced passes: QueryTrace stages and per-query counters from the
    // service, the mutation state after every write, compactions from the
    // service's own metrics.
    std::vector<std::vector<double>> stage(4, std::vector<double>(kQueries));
    std::vector<double> traced(kQueries);
    std::vector<pdx::SearchCounters> counters(kQueries);
    double tombstones_max = 0, delta_max = 0;
    pdx::MetricHistogram* compaction = registry.GetHistogram(
        "pdx_compaction_ms", "Wall time of one delta-into-base compaction",
        pdx::DefaultLatencyBoundsMs(), {{"collection", kName}});
    const uint64_t count_before = compaction->count();
    const double sum_before = compaction->sum();
    passes(args.seconds / 2, true, [&](size_t i, const pdx::QueryResult& r) {
      const Op& op = ops[i];
      if (op.kind != Kind::kQuery) {
        const pdx::CollectionStats cs = service.Stats().collections.at(kName);
        tombstones_max = std::max(tombstones_max, double(cs.tombstones));
        delta_max = std::max(delta_max, double(cs.delta));
        return;
      }
      if (r.trace == nullptr) return;
      const double split[4] = {r.trace->queue_ms, r.trace->stage_ms,
                               r.trace->search_ms, r.trace->deliver_ms};
      const size_t q = op.query;
      const bool fresh = traced[q] == 0.0;
      for (size_t s = 0; s < 4; ++s) {
        stage[s][q] = fresh ? split[s] : std::min(stage[s][q], split[s]);
      }
      traced[q] = fresh ? times[i] : std::min(traced[q], times[i]);
      counters[q] = r.trace->counters;
    });
    settle();
    layers.SetCounts(counters);
    layers.Set("serve.queue_ms", Median(stage[0]));
    layers.Set("serve.dispatch_ms", Median(stage[1]));
    layers.Set("serve.search_ms", Median(stage[2]));
    layers.Set("serve.deliver_ms", Median(stage[3]));
    layers.Set("serve.tombstones_max", tombstones_max);
    layers.Set("serve.delta_vectors_max", delta_max);
    const double traced_passes = double(answers.size() - untraced_passes);
    const uint64_t compactions = compaction->count() - count_before;
    layers.Set("serve.compactions", double(compactions) / traced_passes);
    layers.Set("serve.compaction_ms",
               compactions ? (compaction->sum() - sum_before) / compactions : 0);
    const pdx::CollectionStats cs = service.Stats().collections.at(kName);
    layers.Set("serve.queries_per_dispatch",
               double(cs.completed) / double(std::max<size_t>(1, cs.dispatches)));
    std::vector<double> untraced_query;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == Kind::kQuery) untraced_query.push_back(fastest.best()[i]);
    }
    layers.Set("obs.trace_overhead_ms", Median(traced) - Median(untraced_query));
    std::vector<double> by_kind[4];
    for (size_t i = 0; i < ops.size(); ++i) {
      by_kind[int(ops[i].kind)].push_back(fastest.best()[i]);
    }
    layers.Set("storage.add_ms", Median(by_kind[int(Kind::kAdd)]));
    layers.Set("storage.upsert_ms", Median(by_kind[int(Kind::kUpsert)]));
    layers.Set("storage.delete_ms", Median(by_kind[int(Kind::kDelete)]));

    // The engine alone over the base: phases and the direct-search floor.
    pdx::SearcherConfig direct_config = config;
    direct_config.search.collect_phase_times = true;
    auto direct = pdx::MakeSearcher(vectors, direct_config);
    if (!direct.ok()) {
      report.OpFailed("MakeSearcher(direct): " + direct.status().ToString());
      return;
    }
    std::unique_ptr<pdx::Searcher> searcher = std::move(direct).value();
    constexpr size_t kDirect = 200;
    const EngineTrace engine =
        TraceEngine(*searcher, queries, kDirect, 0.0, layers);
    report.Attempt(kDirect * engine.passes);
    // Wire, codec, index and the ADS preprocess on this workload's data.
    TraceWireAndIndex(service, kName, vectors, queries, kDirect, args.seed,
                      layers, report);
  }

  // Replay the sequence on the model: every answer of every pass holds only
  // live ids at their true distances; every 10th query equals brute force.
  Model model(base, total_ids);
  for (const Op& op : ops) {
    if (op.kind != Kind::kQuery) {
      model.Apply(op);
      continue;
    }
    const float* q = queries.Row(op.query);
    const Corpus corpus = model.corpus();
    Truth truth;
    const bool exact = op.query % kCheckEvery == 0;
    if (exact) truth = BruteForce(corpus, q, kK);
    for (size_t p = 0; p < answers.size(); ++p) {
      const std::string why = CheckAnswer(corpus, q, kK,
                                          ToHits(answers[p][op.query]),
                                          exact ? &truth : nullptr);
      if (!why.empty()) {
        report.Fail("pass " + std::to_string(p) + " query " +
                    std::to_string(op.query) + ": " + why);
      }
    }
  }

  // Persist once the last write has settled, then restore under fresh
  // names; restored collections are only queried, never written.
  settle();
  const std::string path = SnapshotPath(args, "saved");
  const pdx::Status saved = service.SaveCollection(kName, path);
  report.Attempt(1);
  if (!saved.ok()) {
    report.OpFailed("SaveCollection: " + saved.ToString());
    return;
  }
  const double snapshot_bytes = double(FileBytes(path));
  const Corpus final_corpus = model.corpus();
  const std::vector<size_t> sample = SampleQueries(kQueries, kRestoreSample);
  double restore_s = 1e300, load_s = 1e300;
  for (size_t r = 0; r < kRestores; ++r) {
    const std::string name = "restored" + std::to_string(r);
    const Clock::time_point t = Clock::now();
    const pdx::Status loaded = service.LoadCollection(name, path);
    const double load = SecondsSince(t);
    pdx::QueryResult got;
    if (loaded.ok()) got = service.Submit(name, queries.Row(0)).result.get();
    restore_s = std::min(restore_s, SecondsSince(t));
    load_s = std::min(load_s, load);
    report.Attempt(2);
    if (!loaded.ok() || !got.status.ok()) {
      report.OpFailed("restore: " + loaded.ToString());
      continue;
    }
    if (r == 0) {
      const auto info = service.GetCollectionInfo(name);
      if (!info.ok() || info.value().count != final_corpus.LiveCount()) {
        report.Fail("restored count differs from the model");
      }
      for (size_t q : sample) {
        const pdx::QueryResult rq =
            service.Submit(name, queries.Row(q)).result.get();
        const Truth truth = BruteForce(final_corpus, queries.Row(q), kK);
        const std::string why = CheckAnswer(final_corpus, queries.Row(q), kK,
                                            ToHits(rq.neighbors), &truth);
        if (!why.empty()) {
          report.Fail("restored query " + std::to_string(q) + ": " + why);
        }
      }
      report.Attempt(sample.size());
    }
    service.RemoveCollection(name);
  }
  service.Shutdown();
  RemoveFile(path);

  if (args.trace) {
    layers.Set("storage.load_s", load_s);
    layers.Set("storage.bytes_per_user_byte",
               snapshot_bytes /
                   double(final_corpus.LiveCount() * kDim * sizeof(float)));
    layers.Emit(report);
    return;
  }
  std::vector<double> query_ms, write_ms;
  double written = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == Kind::kQuery) {
      query_ms.push_back(fastest.best()[i]);
    } else if (ops[i].kind != Kind::kDelete) {
      write_ms.push_back(fastest.best()[i]);
      written += double(ops[i].ids.size());
    }
  }
  report.Add("setup_s", setup_s, "s");
  AddQueryMetrics(report, query_ms, double(kQueries) / (Sum(query_ms) / 1000.0));
  report.Add("restore_s", restore_s, "s");
  report.Add("snapshot_mb", snapshot_bytes / 1e6, "MB");
  report.Add("ingest_p50_ms", Median(write_ms), "ms");
  report.Add("ingest_vectors_per_s", written / (Sum(write_ms) / 1000.0),
             "vectors/s");
}

}  // namespace pdxbench
