#ifndef PDXBENCH_WORKLOADS_H_
#define PDXBENCH_WORKLOADS_H_

// The four workloads and the pieces they share on the library side.

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/pdx.h"
#include "oracle.h"

namespace pdxbench {

void RunExactFlat(const Args& args, Report& report);
void RunAnnWire(const Args& args, Report& report);
void RunLiveMixed(const Args& args, Report& report);
void RunU8Batch(const Args& args, Report& report);

/// The per-layer metrics of a traced run. Every name is printed on every
/// workload; a layer the workload does not run reads 0.
class Layers {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// Mean per query of each work counter, and pruning power over all.
  void SetCounts(const std::vector<pdx::SearchCounters>& per_query);
  void Emit(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

/// Per-query work counters and fastest times of a traced engine run.
struct EngineTrace {
  std::vector<pdx::SearchCounters> counters;
  std::vector<double> fastest_ms;
  size_t passes = 0;
};

/// Runs the first `count` queries through slot 0 of `searcher` (built with
/// collect_phase_times) in passes for `budget_s` (at least 2), and sets
/// core.phase.*, core.search_ms and kernels.scan_gbps (4 B per float value
/// scanned, per second of search time).
EngineTrace TraceEngine(pdx::Searcher& searcher, const Vectors& queries,
                        size_t count, double budget_s, Layers& layers);

/// Hosts `name` of `service` behind HttpServer for traced round trips of
/// the first `count` queries (net.*), and builds an IVF index and an
/// ADSampling engine over `vectors` (index.*, and the preprocess and
/// find-buckets phases).
void TraceWireAndIndex(pdx::SearchService& service, const std::string& name,
                       const pdx::VectorSet& vectors, const Vectors& queries,
                       size_t count, uint64_t seed, Layers& layers,
                       Report& report);

/// Queries 0, stride, 2*stride, ...: the fixed sample the oracle answers.
std::vector<size_t> SampleQueries(size_t queries, size_t sample);

std::vector<Hit> ToHits(const std::vector<pdx::Neighbor>& neighbors);

/// Brute-force truth for each sampled query.
std::vector<Truth> SampleTruth(const Corpus& corpus, const Vectors& queries,
                               const std::vector<size_t>& sample, size_t k);

/// The end-to-end metrics shared by every workload: p50/p99/rate over each
/// query's fastest time, and peak memory.
void AddQueryMetrics(Report& report, const std::vector<double>& fastest_ms,
                     double queries_per_s);

}  // namespace pdxbench

#endif  // PDXBENCH_WORKLOADS_H_
