// ann-wire: the paper's approximate search (IVF + ADSampling, Figure 8) as
// a served user sees it: SearchService behind HttpServer, one loopback
// HttpClient connection, one request in flight (a closed loop). The data
// is an isotropic, embedding-like 20000 x 768 Gaussian mixture.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "workloads.h"

namespace pdxbench {
namespace {

constexpr size_t kDim = 768;
constexpr size_t kCount = 20000;
constexpr size_t kQueries = 1000;
constexpr size_t kK = 10;
constexpr size_t kBuckets = 100;
constexpr int kKmeansIterations = 6;
constexpr size_t kNprobe = 12;
constexpr size_t kSample = 100;
constexpr size_t kWarmup = 100;
constexpr double kRecallFloor = 0.90;  // mean recall@10 over the sample
constexpr size_t kRestores = 3;
// Ingest: rounds of AddVectors batches, each round deleted again afterwards
// so every round writes the same rows under the same ids.
constexpr size_t kIngestRounds = 10;
constexpr size_t kIngestBatches = 8;
constexpr size_t kIngestRows = 25;
const char kName[] = "ann";

double Ms(Clock::time_point since) { return MsBetween(since, Clock::now()); }

void AppendVector(std::string& out, const float* v, size_t dim) {
  char number[32];
  out += '[';
  for (size_t j = 0; j < dim; ++j) {
    std::snprintf(number, sizeof(number), j ? ",%.9g" : "%.9g", v[j]);
    out += number;
  }
  out += ']';
}

std::string QueryBody(const float* q, size_t dim, bool trace) {
  std::string body = "{\"query\":";
  AppendVector(body, q, dim);
  body += ",\"k\":" + std::to_string(kK);
  if (trace) body += ",\"trace\":true";
  return body + "}";
}

struct Reply {
  bool ok = false;
  std::vector<Hit> hits;
  pdx::JsonValue json;
};

Reply ParseReply(const pdx::Result<pdx::HttpResponse>& response) {
  Reply reply;
  if (!response.ok() || response.value().status != 200) return reply;
  auto parsed = pdx::ParseJson(response.value().body);
  if (!parsed.ok()) return reply;
  reply.json = std::move(parsed).value();
  const pdx::JsonValue* neighbors = reply.json.Find("neighbors");
  if (neighbors == nullptr || !neighbors->is_array()) return reply;
  for (const pdx::JsonValue& n : neighbors->items()) {
    const pdx::JsonValue* id = n.Find("id");
    const pdx::JsonValue* d = n.Find("distance");
    if (id == nullptr || d == nullptr || !d->is_number()) return reply;
    reply.hits.push_back({uint64_t(id->AsNumber()), d->AsNumber()});
  }
  reply.ok = true;
  return reply;
}

double Stage(const pdx::JsonValue& reply, const char* stage) {
  const pdx::JsonValue* trace = reply.Find("trace");
  const pdx::JsonValue* stages = trace ? trace->Find("stages") : nullptr;
  const pdx::JsonValue* v = stages ? stages->Find(stage) : nullptr;
  return v && v->is_number() ? v->AsNumber() : 0.0;
}

pdx::SearchCounters Counters(const pdx::JsonValue& reply) {
  pdx::SearchCounters c;
  const pdx::JsonValue* trace = reply.Find("trace");
  const pdx::JsonValue* json = trace ? trace->Find("counters") : nullptr;
  if (json == nullptr) return c;
  auto get = [&](const char* key) {
    const pdx::JsonValue* v = json->Find(key);
    return v && v->is_number() ? uint64_t(v->AsNumber()) : uint64_t{0};
  };
  c.blocks_visited = get("blocks_visited");
  c.vectors_pruned = get("vectors_pruned");
  c.values_scanned = get("values_scanned");
  c.values_avoided = get("values_avoided");
  c.dims_scanned = get("dims_scanned");
  c.predicate_evaluations = get("predicate_evaluations");
  return c;
}

}  // namespace

void TraceWireAndIndex(pdx::SearchService& service, const std::string& name,
                       const pdx::VectorSet& vectors, const Vectors& queries,
                       size_t count, uint64_t seed, Layers& layers,
                       Report& report) {
  // The hosted collection behind HttpServer: traced round trips, and the
  // JSON codec on the same request and response bodies.
  pdx::SearchHandler handler(service);
  pdx::HttpServer server;
  pdx::HttpClient client;
  pdx::Status started = server.Start(handler.AsHttpHandler());
  if (started.ok()) started = client.Connect("127.0.0.1", server.port());
  if (!started.ok()) {
    report.OpFailed("wire: " + started.ToString());
    return;
  }
  const std::string target = "/collections/" + name + "/search";
  std::vector<double> wire(count), decode(count), encode(count);
  double request_bytes = 0, response_bytes = 0;
  for (size_t q = 0; q < count; ++q) {
    const std::string body = QueryBody(queries.Row(q), queries.dim, true);
    for (int rep = 0; rep < 2; ++rep) {
      const Clock::time_point t = Clock::now();
      auto response = client.Roundtrip("POST", target, body);
      const double ms = Ms(t);
      const Reply reply = ParseReply(response);
      if (!reply.ok) report.OpFailed("wire query " + std::to_string(q));
      const double w = ms - Stage(reply.json, "total_ms");
      wire[q] = rep == 0 ? w : std::min(wire[q], w);
      if (rep > 0) continue;
      Clock::time_point c = Clock::now();
      auto parsed = pdx::ParseJson(body);
      decode[q] = Ms(c) * 1000.0;
      c = Clock::now();
      const std::string written = pdx::WriteJson(reply.json);
      encode[q] = Ms(c) * 1000.0;
      if (!parsed.ok()) report.Fail("request body does not parse");
      request_bytes += double(body.size());
      response_bytes += double(written.size());
    }
  }
  report.Attempt(2 * count);
  client.Close();
  server.Stop();
  layers.Set("net.wire_ms", Median(wire));
  layers.Set("net.decode_us", Median(decode));
  layers.Set("net.encode_us", Median(encode));
  layers.Set("net.request_bytes", request_bytes / double(count));
  layers.Set("net.response_bytes", response_bytes / double(count));

  // The IVF index and the ADSampling engine over the same vectors.
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kIvf;
  config.pruner = pdx::PrunerKind::kAdsampling;
  config.nprobe = kNprobe;
  config.ivf.num_buckets = kBuckets;
  config.ivf.max_iterations = kKmeansIterations;
  config.ivf.seed = seed;
  config.search.collect_phase_times = true;
  Clock::time_point t = Clock::now();
  const pdx::IvfIndex index = pdx::IvfIndex::Build(vectors, config.ivf);
  layers.Set("index.build_s", SecondsSince(t));
  std::vector<double> rank_us(count);
  for (size_t q = 0; q < count; ++q) {
    t = Clock::now();
    index.RankBuckets(queries.Row(q));
    rank_us[q] = Ms(t) * 1000.0;
  }
  layers.Set("index.rank_buckets_us", Median(rank_us));
  auto direct = pdx::MakeSearcher(vectors, index, config);
  if (!direct.ok()) {
    report.OpFailed("MakeSearcher(ivf): " + direct.status().ToString());
    return;
  }
  Layers ivf;
  const EngineTrace engine =
      TraceEngine(*direct.value(), queries, count, 0.0, ivf);
  report.Attempt(count * (engine.passes + 1));
  layers.Set("core.phase.preprocess_ms", ivf.Get("core.phase.preprocess_ms"));
  layers.Set("core.phase.find_buckets_ms",
             ivf.Get("core.phase.find_buckets_ms"));
}

void RunAnnWire(const Args& args, Report& report) {
  Generator gen(DataShape{kDim, 64, 0.7, 0.0}, args.seed * 4 + 1);
  const Vectors data = gen.Draw(kCount);
  const Vectors queries = gen.Draw(kQueries);
  const Vectors extra = gen.Draw(kIngestBatches * kIngestRows);
  const Corpus corpus{data.rows.data(), kDim, kCount, nullptr};
  std::vector<std::string> bodies, traced_bodies;
  for (size_t q = 0; q < kQueries; ++q) {
    bodies.push_back(QueryBody(queries.Row(q), kDim, false));
    traced_bodies.push_back(QueryBody(queries.Row(q), kDim, true));
  }
  const std::string search_target = std::string("/collections/") + kName +
                                    "/search";
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kIvf;
  config.pruner = pdx::PrunerKind::kAdsampling;
  config.k = kK;
  config.nprobe = kNprobe;
  config.ivf.num_buckets = kBuckets;
  config.ivf.max_iterations = kKmeansIterations;
  config.ivf.seed = args.seed;
  pdx::ServiceConfig service_config;
  service_config.threads = 2;

  // Set-up: vectors in memory -> the first HTTP query answered.
  const Clock::time_point setup_start = Clock::now();
  pdx::VectorSet vectors =
      pdx::VectorSet::FromRowMajor(data.rows.data(), kCount, kDim);
  pdx::SearchService service(service_config);
  const pdx::Status added = service.AddCollection(kName, vectors, config);
  pdx::SearchHandler handler(service);
  pdx::HttpServer server;
  pdx::HttpClient client;
  pdx::Status started = added.ok() ? server.Start(handler.AsHttpHandler())
                                   : added;
  if (started.ok()) started = client.Connect("127.0.0.1", server.port());
  if (!started.ok()) {
    report.OpFailed("set-up: " + started.ToString());
    return;
  }
  auto roundtrip = [&](const std::string& target, const std::string& body) {
    return client.Roundtrip("POST", target, body);
  };
  Reply first = ParseReply(roundtrip(search_target, bodies[0]));
  const double setup_s = SecondsSince(setup_start);
  report.Attempt(2);
  if (!first.ok) report.OpFailed("first query");

  for (size_t q = 0; q < kWarmup; ++q) roundtrip(search_target, bodies[q]);
  report.Attempt(kWarmup);

  // Closed-loop passes: time from sending the request to the full reply.
  std::vector<Reply> replies(kQueries);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Fastest fastest =
      RunPasses(kQueries, 3, budget, [&](size_t q, size_t pass) {
        const Clock::time_point t = Clock::now();
        auto response = roundtrip(search_target, bodies[q]);
        const double ms = Ms(t);
        if (pass == 0) {
          replies[q] = ParseReply(response);
          if (!replies[q].ok) report.OpFailed("query " + std::to_string(q));
        } else if (!response.ok() || response.value().status != 200) {
          report.OpFailed("query " + std::to_string(q));
        }
        return ms;
      });
  report.Attempt(kQueries * fastest.passes());

  // Every returned distance is its id's true distance; recall on a sample.
  auto check = [&](const char* what, size_t q, const std::vector<Hit>& hits) {
    const std::string why = CheckAnswer(corpus, queries.Row(q), kK, hits,
                                        nullptr);
    if (!why.empty()) {
      report.Fail(std::string(what) + " query " + std::to_string(q) + ": " +
                  why);
    }
  };
  for (size_t q = 0; q < kQueries; ++q) {
    if (replies[q].ok) check("live", q, replies[q].hits);
  }
  const std::vector<size_t> sample = SampleQueries(kQueries, kSample);
  const std::vector<Truth> truth = SampleTruth(corpus, queries, sample, kK);
  auto recall_of = [&](const std::vector<Reply>& got) {
    double sum = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      sum += Recall(got[sample[i]].hits, truth[i]);
    }
    return sum / double(sample.size());
  };
  const double recall = recall_of(replies);
  std::fprintf(stderr, "ann-wire: recall@%zu %.4f (floor %.2f)\n", kK, recall,
               kRecallFloor);
  if (recall < kRecallFloor) report.Fail("recall below floor");

  Layers layers;
  std::vector<double> add_ms(kIngestBatches * kIngestRounds);
  if (args.trace) {
    // Traced passes over the wire: the service's stage split per query.
    std::vector<std::vector<double>> stage(4, std::vector<double>(kQueries));
    std::vector<pdx::SearchCounters> counters(kQueries);
    const char* names[4] = {"queue_ms", "dispatch_ms", "search_ms",
                            "deliver_ms"};
    const Fastest tfastest =
        RunPasses(kQueries, 2, args.seconds / 2, [&](size_t q, size_t pass) {
          const Clock::time_point t = Clock::now();
          auto response = roundtrip(search_target, traced_bodies[q]);
          const double ms = Ms(t);
          Reply reply = ParseReply(response);
          if (!reply.ok) report.OpFailed("traced query " + std::to_string(q));
          for (size_t s = 0; s < 4; ++s) {
            const double v = Stage(reply.json, names[s]);
            stage[s][q] = pass == 0 ? v : std::min(stage[s][q], v);
          }
          counters[q] = Counters(reply.json);
          return ms;
        });
    report.Attempt(kQueries * tfastest.passes());
    layers.SetCounts(counters);
    layers.Set("serve.queue_ms", Median(stage[0]));
    layers.Set("serve.dispatch_ms", Median(stage[1]));
    layers.Set("serve.search_ms", Median(stage[2]));
    layers.Set("serve.deliver_ms", Median(stage[3]));
    layers.Set("obs.trace_overhead_ms",
               Median(tfastest.best()) - Median(fastest.best()));
    const pdx::ServiceStats stats = service.Stats();
    const pdx::CollectionStats& cs = stats.collections.at(kName);
    layers.Set("serve.queries_per_dispatch",
               double(cs.completed) / double(std::max<size_t>(1, cs.dispatches)));

    // Engine alone over the same data: phases and the direct-search floor,
    // then the wire codec and the index.
    pdx::SearcherConfig direct_config = config;
    direct_config.search.collect_phase_times = true;
    auto direct = pdx::MakeSearcher(vectors, direct_config);
    if (!direct.ok()) {
      report.OpFailed("MakeSearcher(direct): " + direct.status().ToString());
      return;
    }
    const EngineTrace engine =
        TraceEngine(*direct.value(), queries, kQueries, 0.0, layers);
    report.Attempt(kQueries * engine.passes);
    TraceWireAndIndex(service, kName, vectors, queries, kQueries, args.seed,
                      layers, report);
  } else {
    // Ingest through the service; each round's rows are deleted again
    // (untimed), so every round writes the same rows under the same ids.
    std::vector<uint64_t> ids(kIngestBatches * kIngestRows);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = kCount + i;
    for (size_t round = 0; round < kIngestRounds; ++round) {
      for (size_t b = 0; b < kIngestBatches; ++b) {
        const size_t first = b * kIngestRows;
        const Clock::time_point t = Clock::now();
        auto done = service.AddVectors(kName, extra.Row(first), kIngestRows,
                                       kDim, ids.data() + first);
        add_ms[round * kIngestBatches + b] = Ms(t);
        if (!done.ok()) report.OpFailed("ingest: " + done.status().ToString());
      }
      auto deleted = service.DeleteVectors(kName, ids.data(), ids.size());
      if (!deleted.ok() || deleted.value() != ids.size()) {
        report.OpFailed("delete of ingested rows");
      }
      report.Attempt(kIngestBatches + 1);
    }
  }

  // Persist, then restore into the service under fresh names.
  const std::string path = SnapshotPath(args, "saved");
  const pdx::Status saved = service.SaveCollection(kName, path);
  report.Attempt(1);
  if (!saved.ok()) {
    report.OpFailed("SaveCollection: " + saved.ToString());
    return;
  }
  const double snapshot_bytes = double(FileBytes(path));
  double restore_s = 1e300, load_s = 1e300;
  for (size_t r = 0; r < kRestores; ++r) {
    const std::string name = "restored" + std::to_string(r);
    const std::string target = "/collections/" + name + "/search";
    const Clock::time_point t = Clock::now();
    const pdx::Status loaded = service.LoadCollection(name, path);
    const double load = SecondsSince(t);
    Reply got = loaded.ok() ? ParseReply(roundtrip(target, bodies[sample[0]]))
                            : Reply{};
    restore_s = std::min(restore_s, SecondsSince(t));
    load_s = std::min(load_s, load);
    report.Attempt(2);
    if (!got.ok) {
      report.OpFailed("restore " + name + ": " + loaded.ToString());
      continue;
    }
    if (r == 0) {
      std::vector<Reply> restored(kQueries);
      for (size_t q : sample) {
        restored[q] = ParseReply(roundtrip(target, bodies[q]));
        if (!restored[q].ok) report.OpFailed("restored query");
        check("restored", q, restored[q].hits);
      }
      report.Attempt(sample.size());
      if (recall_of(restored) < kRecallFloor) {
        report.Fail("restored recall below floor");
      }
    }
    service.RemoveCollection(name);
  }
  client.Close();
  server.Stop();
  service.Shutdown();
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
  Fastest ingest(kIngestBatches);
  for (size_t round = 0; round < kIngestRounds; ++round) {
    ingest.Take(std::vector<double>(add_ms.begin() + round * kIngestBatches,
                                    add_ms.begin() + (round + 1) * kIngestBatches));
  }
  report.Add("ingest_p50_ms", Median(ingest.best()), "ms");
  report.Add("ingest_vectors_per_s",
             double(kIngestBatches * kIngestRows) /
                 (Sum(ingest.best()) / 1000.0),
             "vectors/s");
}

}  // namespace pdxbench
