#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common.h"

namespace pdxbench {

double SquaredL2(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double diff = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    sum += diff * diff;
  }
  return sum;
}

size_t Corpus::LiveCount() const {
  if (alive == nullptr) return count;
  return static_cast<size_t>(std::count(alive->begin(),
                                        alive->begin() + count, 1));
}

Truth BruteForce(const Corpus& corpus, const float* query, size_t k) {
  std::vector<std::pair<double, uint64_t>> all;
  all.reserve(corpus.count);
  for (uint64_t id = 0; id < corpus.count; ++id) {
    if (!corpus.Live(id)) continue;
    all.emplace_back(SquaredL2(query, corpus.rows + id * corpus.dim,
                               corpus.dim), id);
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end());
  Truth truth;
  for (size_t i = 0; i < take; ++i) {
    truth.distances.push_back(all[i].first);
    truth.ids.push_back(all[i].second);
  }
  return truth;
}

namespace {
bool Close(double a, double b) {
  return std::fabs(a - b) <= kDistanceTolerance * std::max(1.0, std::fabs(b));
}
}  // namespace

std::string CheckAnswer(const Corpus& corpus, const float* query, size_t k,
                        const std::vector<Hit>& got, const Truth* exact) {
  const size_t want = std::min(k, corpus.LiveCount());
  if (got.size() != want) {
    return "returned " + std::to_string(got.size()) + " hits, expected " +
           std::to_string(want);
  }
  std::set<uint64_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const Hit& hit = got[i];
    if (!corpus.Live(hit.id)) {
      return "id " + std::to_string(hit.id) + " is not in the collection";
    }
    if (!seen.insert(hit.id).second) {
      return "id " + std::to_string(hit.id) + " returned twice";
    }
    const double truth =
        SquaredL2(query, corpus.rows + hit.id * corpus.dim, corpus.dim);
    if (!Close(hit.distance, truth)) {
      return "id " + std::to_string(hit.id) + " distance " +
             std::to_string(hit.distance) + " != true " +
             std::to_string(truth);
    }
    if (i > 0 && hit.distance < got[i - 1].distance &&
        !Close(hit.distance, got[i - 1].distance)) {
      return "hits not ascending at rank " + std::to_string(i);
    }
    if (exact != nullptr && !Close(hit.distance, exact->distances[i])) {
      return "rank " + std::to_string(i) + " distance " +
             std::to_string(hit.distance) + " != brute force " +
             std::to_string(exact->distances[i]);
    }
  }
  return "";
}

double Recall(const std::vector<Hit>& got, const Truth& truth) {
  if (truth.ids.empty()) return 1.0;
  size_t found = 0;
  for (uint64_t id : truth.ids) {
    for (const Hit& hit : got) found += hit.id == id ? 1 : 0;
  }
  return static_cast<double>(found) / static_cast<double>(truth.ids.size());
}

std::string OracleSelfTest() {
  const size_t dim = 16, count = 200, k = 5;
  Generator gen(DataShape{dim, 4, 0.5, 0.0}, 7);
  Vectors data = gen.Draw(count);
  Vectors queries = gen.Draw(1);
  const float* q = queries.Row(0);
  std::vector<uint8_t> alive(count, 1);
  alive[3] = 0;
  const Corpus corpus{data.rows.data(), dim, count, &alive};
  const Truth truth = BruteForce(corpus, q, k);
  std::vector<Hit> good;
  for (size_t i = 0; i < k; ++i) good.push_back({truth.ids[i],
                                                 truth.distances[i]});
  if (std::string why = CheckAnswer(corpus, q, k, good, &truth);
      !why.empty()) {
    return "a true answer was rejected: " + why;
  }
  // The farthest live row: a swap to it changes the distance profile.
  const Truth everything = BruteForce(corpus, q, count);
  const uint64_t far = everything.ids.back();

  std::vector<std::pair<const char*, std::vector<Hit>>> corrupt;
  std::vector<Hit> swapped = good;
  swapped[1].id = far;  // wrong id, its claimed distance no longer matches
  corrupt.emplace_back("swapped id", swapped);
  std::vector<Hit> swapped_consistent = good;
  swapped_consistent[k - 1] = {far, everything.distances.back()};
  corrupt.emplace_back("swapped id with its own distance", swapped_consistent);
  std::vector<Hit> off = good;
  off[2].distance *= 1.0 + 10 * kDistanceTolerance;
  corrupt.emplace_back("distance off", off);
  std::vector<Hit> deleted = good;
  deleted[k - 1] = {3, SquaredL2(q, data.Row(3), dim)};
  corrupt.emplace_back("deleted id", deleted);
  std::vector<Hit> shorter(good.begin(), good.end() - 1);
  corrupt.emplace_back("short list", shorter);
  std::vector<Hit> unsorted = good;
  std::swap(unsorted[0], unsorted[k - 1]);
  corrupt.emplace_back("unsorted", unsorted);
  for (const auto& [name, hits] : corrupt) {
    if (CheckAnswer(corpus, q, k, hits, &truth).empty()) {
      return std::string("a corrupted answer passed: ") + name;
    }
  }
  if (Recall(swapped_consistent, truth) >= 1.0) {
    return "recall did not drop on a swapped id";
  }
  return "";
}

}  // namespace pdxbench
