#ifndef PDXBENCH_COMMON_H_
#define PDXBENCH_COMMON_H_

// Shared pieces of the benchmark program: arguments, the result line, a
// seeded generator for the workloads' vectors, timing, and the
// fastest-pass bookkeeping every timing metric goes through.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pdxbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;  ///< Budget of the measured passes.
  bool trace = false;     ///< true = print the per-layer metrics instead.
  std::string workdir = ".";  ///< Where snapshot files are written.
};

/// The run's outcome: correctness, operation counts and named metrics,
/// printed as the last line of standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and logs why (first few reasons only).
  void Fail(const std::string& what);
  /// Counts one operation the program failed (an error status, a non-200
  /// reply); its answer is not checked.
  void OpFailed(const std::string& what);
  void Attempt(uint64_t operations) { attempted_ += operations; }
  bool correct() const { return correct_; }
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int logged_ = 0;
  std::vector<Metric> metrics_;
};

/// splitmix64-seeded xoshiro256**; Normal() is Box-Muller.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  double Normal();
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// How a workload's vectors are drawn: points around `clusters` Gaussian
/// centers. `skew` > 0 makes cluster sizes Zipf-like, per-dimension
/// variance decay as (1 + d / 48)^-skew and gives every dimension a
/// non-zero mean; skew = 0 is an isotropic, embedding-like mixture.
struct DataShape {
  size_t dim = 0;
  size_t clusters = 0;
  double spread = 1.0;  ///< Standard deviation around a center.
  double skew = 0.0;
};

/// A row-major block of float vectors drawn from one DataShape.
struct Vectors {
  size_t dim = 0;
  size_t count = 0;
  std::vector<float> rows;
  const float* Row(size_t i) const { return rows.data() + i * dim; }
};

/// Draws `count` points of `shape` (the mixture is fixed by `rng`'s first
/// draws, so collection and queries must come from one Generator).
class Generator {
 public:
  Generator(const DataShape& shape, uint64_t seed);
  Vectors Draw(size_t count);
  /// Appends one point to `out` (dim floats).
  void DrawInto(float* out);

 private:
  DataShape shape_;
  Rng rng_;
  std::vector<double> centers_;  ///< clusters x dim
  std::vector<double> scale_;    ///< per dimension
  std::vector<double> offset_;   ///< per dimension
  std::vector<double> weight_cdf_;
};

using Clock = std::chrono::steady_clock;
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now()) / 1000.0;
}

/// Nearest-rank percentile (p in [0, 100]) of a copy of `values`.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// Per-operation fastest time across passes: the pass-to-pass noise of a
/// shared host (other tenants' bursts) drops out, costs every pass
/// repeats stay in.
class Fastest {
 public:
  explicit Fastest(size_t ops) : best_(ops, 0.0) {}
  void Take(const std::vector<double>& pass);
  const std::vector<double>& best() const { return best_; }
  size_t passes() const { return passes_; }

 private:
  std::vector<double> best_;
  size_t passes_ = 0;
};

/// True while another measured pass should run: always until
/// `min_passes`, then while the budget has room for one more pass of the
/// slowest length seen so far.
bool AnotherPass(size_t passes_done, size_t min_passes,
                 Clock::time_point start, double budget_s,
                 double longest_pass_s);

/// Logs one pass's length and median operation time to standard error.
void LogPass(size_t pass, double seconds, const std::vector<double>& times);

/// Runs whole passes of `ops` operations, each pass the same sequence,
/// until `budget_s` is spent (at least `min_passes`). `op(i, pass)` runs
/// operation i and returns its time in ms; the result keeps each
/// operation's fastest time.
template <typename Op>
Fastest RunPasses(size_t ops, size_t min_passes, double budget_s, Op op) {
  Fastest fastest(ops);
  std::vector<double> times(ops);
  const Clock::time_point start = Clock::now();
  double longest_s = 0.0;
  while (AnotherPass(fastest.passes(), min_passes, start, budget_s,
                     longest_s)) {
    const Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < ops; ++i) times[i] = op(i, fastest.passes());
    fastest.Take(times);
    longest_s = std::max(longest_s, SecondsSince(pass_start));
    LogPass(fastest.passes() - 1, SecondsSince(pass_start), times);
  }
  return fastest;
}

/// The process's peak resident set size (VmHWM) in MB.
double PeakRssMb();
uint64_t FileBytes(const std::string& path);
/// A fresh snapshot path under the work directory, unique per process.
std::string SnapshotPath(const Args& args, const std::string& tag);
void RemoveFile(const std::string& path);

}  // namespace pdxbench

#endif  // PDXBENCH_COMMON_H_
