#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace pdxbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  if (logged_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::OpFailed(const std::string& what) {
  ++failed_;
  if (logged_++ < 20) std::fprintf(stderr, "OPERATION FAILED: %s\n", what.c_str());
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    out << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {
uint64_t SplitMix(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  while (u <= 0.0) u = Uniform();
  const double v = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  spare_ = r * std::sin(2.0 * M_PI * v);
  has_spare_ = true;
  return r * std::cos(2.0 * M_PI * v);
}

Generator::Generator(const DataShape& shape, uint64_t seed)
    : shape_(shape), rng_(seed) {
  const size_t d = shape.dim;
  centers_.resize(shape.clusters * d);
  for (double& c : centers_) c = rng_.Normal();
  scale_.assign(d, 1.0);
  offset_.assign(d, 0.0);
  std::vector<double> weight(shape.clusters, 1.0);
  if (shape.skew > 0.0) {
    for (size_t j = 0; j < d; ++j) {
      scale_[j] = std::pow(1.0 + static_cast<double>(j) / 48.0, -shape.skew);
      offset_[j] = 2.0 * scale_[j] * rng_.Normal();
    }
    for (size_t c = 0; c < shape.clusters; ++c) {
      weight[c] = 1.0 / std::pow(static_cast<double>(c + 1), shape.skew);
    }
  }
  weight_cdf_.resize(shape.clusters);
  std::partial_sum(weight.begin(), weight.end(), weight_cdf_.begin());
  for (double& w : weight_cdf_) w /= weight_cdf_.back();
}

void Generator::DrawInto(float* out) {
  const double u = rng_.Uniform();
  const size_t c = std::min<size_t>(
      std::lower_bound(weight_cdf_.begin(), weight_cdf_.end(), u) -
          weight_cdf_.begin(),
      shape_.clusters - 1);
  const double* center = centers_.data() + c * shape_.dim;
  for (size_t j = 0; j < shape_.dim; ++j) {
    const double x = center[j] + shape_.spread * rng_.Normal();
    out[j] = static_cast<float>(offset_[j] + scale_[j] * x);
  }
}

Vectors Generator::Draw(size_t count) {
  Vectors v;
  v.dim = shape_.dim;
  v.count = count;
  v.rows.resize(count * shape_.dim);
  for (size_t i = 0; i < count; ++i) DrawInto(v.rows.data() + i * v.dim);
  return v;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void Fastest::Take(const std::vector<double>& pass) {
  for (size_t i = 0; i < best_.size(); ++i) {
    best_[i] = passes_ == 0 ? pass[i] : std::min(best_[i], pass[i]);
  }
  ++passes_;
}

bool AnotherPass(size_t passes_done, size_t min_passes,
                 Clock::time_point start, double budget_s,
                 double longest_pass_s) {
  if (passes_done < min_passes) return true;
  return SecondsSince(start) + longest_pass_s <= budget_s;
}

void LogPass(size_t pass, double seconds, const std::vector<double>& times) {
  std::fprintf(stderr, "pass %zu: %.2f s, median operation %.4f ms\n", pass,
               seconds, Median(times));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

std::string SnapshotPath(const Args& args, const std::string& tag) {
  return args.workdir + "/" + args.workload + "-" + tag + "-" +
         std::to_string(::getpid()) + ".pdxc";
}

void RemoveFile(const std::string& path) { std::remove(path.c_str()); }

}  // namespace pdxbench
