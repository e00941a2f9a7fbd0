// The benchmark program: runs one workload and prints its result line.
//
//   pdxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//   pdxbench --selftest
//
// See pdxbench/README.md for the workloads and metrics.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common.h"
#include "oracle.h"
#include "workloads.h"

namespace pdxbench {
namespace {

// Name and unit of every per-layer metric, in the order printed.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"kernels.scan_gbps", "GB/s"},
    {"core.values_scanned", "count"},
    {"core.values_avoided", "count"},
    {"core.pruning_power", "ratio"},
    {"core.blocks_visited", "count"},
    {"core.vectors_pruned", "count"},
    {"core.predicate_evaluations", "count"},
    {"core.phase.preprocess_ms", "ms"},
    {"core.phase.find_buckets_ms", "ms"},
    {"core.phase.bounds_ms", "ms"},
    {"core.phase.distance_ms", "ms"},
    {"core.search_ms", "ms"},
    {"core.batch_speedup", "x"},
    {"index.rank_buckets_us", "us"},
    {"index.build_s", "s"},
    {"quant.rerank_candidates", "count"},
    {"quant.code_mb", "MB"},
    {"serve.queue_ms", "ms"},
    {"serve.dispatch_ms", "ms"},
    {"serve.search_ms", "ms"},
    {"serve.deliver_ms", "ms"},
    {"serve.queries_per_dispatch", "count"},
    {"serve.compactions", "count"},
    {"serve.compaction_ms", "ms"},
    {"serve.tombstones_max", "count"},
    {"serve.delta_vectors_max", "count"},
    {"net.decode_us", "us"},
    {"net.encode_us", "us"},
    {"net.wire_ms", "ms"},
    {"net.request_bytes", "B"},
    {"net.response_bytes", "B"},
    {"storage.add_ms", "ms"},
    {"storage.upsert_ms", "ms"},
    {"storage.delete_ms", "ms"},
    {"storage.load_s", "s"},
    {"storage.bytes_per_user_byte", "ratio"},
    {"obs.trace_overhead_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: pdxbench --workload <exact-flat|ann-wire|live-mixed|"
               "u8-batch> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n       pdxbench --selftest\n");
  return 2;
}

}  // namespace

void Layers::Set(const std::string& name, double value) {
  for (const auto& [known, unit] : kLayerMetrics) {
    if (name == known) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

double Layers::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Layers::SetCounts(const std::vector<pdx::SearchCounters>& per_query) {
  pdx::SearchCounters sum;
  for (const pdx::SearchCounters& c : per_query) sum += c;
  const double n = per_query.empty() ? 1.0 : double(per_query.size());
  Set("core.values_scanned", double(sum.values_scanned) / n);
  Set("core.values_avoided", double(sum.values_avoided) / n);
  Set("core.pruning_power", sum.pruning_power());
  Set("core.blocks_visited", double(sum.blocks_visited) / n);
  Set("core.vectors_pruned", double(sum.vectors_pruned) / n);
  Set("core.predicate_evaluations", double(sum.predicate_evaluations) / n);
}

void Layers::Emit(Report& report) const {
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = values_.find(name);
    report.Add(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

EngineTrace TraceEngine(pdx::Searcher& searcher, const Vectors& queries,
                        size_t count, double budget_s, Layers& layers) {
  EngineTrace out;
  out.counters.resize(count);
  std::vector<std::vector<double>> phase(4, std::vector<double>(count));
  const Fastest fastest =
      RunPasses(count, 2, budget_s, [&](size_t q, size_t pass) {
        pdx::PdxearchProfile p;
        const Clock::time_point t = Clock::now();
        searcher.SearchWith(0, pdx::QueryKnobs{}, queries.Row(q), &p);
        const double ms = MsBetween(t, Clock::now());
        const double split[4] = {p.preprocess_ms, p.find_buckets_ms,
                                 p.bounds_ms, p.distance_ms};
        for (size_t s = 0; s < 4; ++s) {
          phase[s][q] = pass == 0 ? split[s] : std::min(phase[s][q], split[s]);
        }
        out.counters[q] = p.counters();
        return ms;
      });
  const char* names[4] = {"core.phase.preprocess_ms",
                          "core.phase.find_buckets_ms", "core.phase.bounds_ms",
                          "core.phase.distance_ms"};
  for (size_t s = 0; s < 4; ++s) layers.Set(names[s], Median(phase[s]));
  double scanned = 0;
  for (const pdx::SearchCounters& c : out.counters) scanned += c.values_scanned;
  layers.Set("core.search_ms", Median(fastest.best()));
  layers.Set("kernels.scan_gbps",
             scanned * 4.0 / (Sum(fastest.best()) / 1000.0) / 1e9);
  out.fastest_ms = fastest.best();
  out.passes = fastest.passes();
  return out;
}

std::vector<size_t> SampleQueries(size_t queries, size_t sample) {
  std::vector<size_t> out;
  const size_t stride = std::max<size_t>(1, queries / sample);
  for (size_t q = 0; q < queries && out.size() < sample; q += stride) {
    out.push_back(q);
  }
  return out;
}

std::vector<Hit> ToHits(const std::vector<pdx::Neighbor>& neighbors) {
  std::vector<Hit> hits;
  hits.reserve(neighbors.size());
  for (const pdx::Neighbor& n : neighbors) hits.push_back({n.id, n.distance});
  return hits;
}

std::vector<Truth> SampleTruth(const Corpus& corpus, const Vectors& queries,
                               const std::vector<size_t>& sample, size_t k) {
  std::vector<Truth> truth;
  truth.reserve(sample.size());
  for (size_t q : sample) {
    truth.push_back(BruteForce(corpus, queries.Row(q), k));
  }
  return truth;
}

void AddQueryMetrics(Report& report, const std::vector<double>& fastest_ms,
                     double queries_per_s) {
  report.Add("query_p50_ms", Median(fastest_ms), "ms");
  report.Add("query_p99_ms", Percentile(fastest_ms, 99.0), "ms");
  report.Add("query_qps", queries_per_s, "queries/s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace pdxbench

int main(int argc, char** argv) {
  using namespace pdxbench;
  // A fixed mmap threshold: every block of 4 MiB or more (vector stores,
  // codes, builds) is mapped on allocation and unmapped on free. glibc's
  // default threshold grows with the blocks freed, so whether a rebuild
  // reuses retained heap or faults in fresh pages, and so peak_rss_mb and
  // build times, would depend on which thread freed what first.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }

  // The oracle must reject corrupted answers before it may pass real ones.
  const std::string oracle = OracleSelfTest();
  if (selftest) {
    std::printf("{\"selftest\": \"%s\"}\n", oracle.empty() ? "pass" : "fail");
    if (!oracle.empty()) std::fprintf(stderr, "%s\n", oracle.c_str());
    return oracle.empty() ? 0 : 1;
  }

  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "exact-flat") run = RunExactFlat;
  if (args.workload == "ann-wire") run = RunAnnWire;
  if (args.workload == "live-mixed") run = RunLiveMixed;
  if (args.workload == "u8-batch") run = RunU8Batch;
  if (run == nullptr || args.seconds <= 0.0) return Usage();

  Report report;
  if (!oracle.empty()) report.Fail("oracle self-test: " + oracle);
  run(args, report);
  std::fflush(stderr);
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
