#ifndef PDXBENCH_ORACLE_H_
#define PDXBENCH_ORACLE_H_

// The benchmark's independent answer key: brute-force top-k in plain
// double-precision loops over the generated vectors. It shares no code with
// the library (no kernels, no heap, no Neighbor type), and its time counts
// toward no metric.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pdxbench {

/// Squared L2 distance, accumulated in double.
double SquaredL2(const float* a, const float* b, size_t dim);

/// One answer as the program returned it.
struct Hit {
  uint64_t id = 0;
  double distance = 0.0;
};

/// The true k nearest rows, ascending by distance.
struct Truth {
  std::vector<uint64_t> ids;
  std::vector<double> distances;
};

/// The vectors an answer is checked against: row `id` is the vector stored
/// under external id `id`; `alive` (optional) marks ids currently in the
/// collection.
struct Corpus {
  const float* rows = nullptr;
  size_t dim = 0;
  size_t count = 0;
  const std::vector<uint8_t>* alive = nullptr;

  bool Live(uint64_t id) const {
    return id < count && (alive == nullptr || (*alive)[id] != 0);
  }
  size_t LiveCount() const;
};

Truth BruteForce(const Corpus& corpus, const float* query, size_t k);

/// Relative tolerance on distances (float kernels against double loops).
inline constexpr double kDistanceTolerance = 1e-4;

/// Checks one answer; returns "" when it passes, else the first fault.
/// Always: exactly min(k, live) hits, distinct live ids, each distance the
/// id's true distance, ascending order. With `exact`, the i-th distance
/// also equals the i-th true distance (ties between ids are allowed).
std::string CheckAnswer(const Corpus& corpus, const float* query, size_t k,
                        const std::vector<Hit>& got, const Truth* exact);

/// Fraction of `truth`'s ids present in `got`.
double Recall(const std::vector<Hit>& got, const Truth& truth);

/// Shows the checker accepts a true answer and rejects each corruption:
/// a swapped id, a distance off by more than tolerance, a deleted id and
/// a short list. Returns "" on success.
std::string OracleSelfTest();

}  // namespace pdxbench

#endif  // PDXBENCH_ORACLE_H_
