#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>

namespace e2e {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void Outcome::add(std::string name, double value, std::string unit,
                  uint64_t samples) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Outcome::note(std::string name, double value, std::string unit,
                   uint64_t samples) {
  extra.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {

// Calibration kernel sizes, and the time each part takes on the reference
// host (a 4-vCPU Xeon virtual machine, at its fastest).
constexpr uint64_t kHashRounds = 4'000'000;
constexpr size_t kWalkSlots = size_t{1} << 21;  // 8 MB of uint32_t
constexpr size_t kWalkSteps = 80'000;
constexpr double kHashRefNs = 9.0e6;
constexpr double kWalkRefNs = 9.0e6;
constexpr size_t kSpeedThreads = 3;

std::atomic<uint64_t> g_calibration_sink{0};

/// One random cycle through every slot (Sattolo's shuffle, fixed seed), so
/// each load depends on the one before and the prefetcher cannot help.
const std::vector<uint32_t>& walk_cycle() {
  static const std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> next(kWalkSlots);
    for (size_t i = 0; i < kWalkSlots; ++i) next[i] = static_cast<uint32_t>(i);
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (size_t i = kWalkSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  return cycle;
}

/// The calibration kernel on the calling thread: its speed relative to the
/// reference host (geometric mean of the two parts).
double calibrate(const std::vector<uint32_t>& next) {
  const int64_t t0 = now_ns();
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint64_t i = 0; i < kHashRounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t t1 = now_ns();
  uint32_t p = 0;
  for (size_t i = 0; i < kWalkSteps; ++i) p = next[p];
  const int64_t t2 = now_ns();
  g_calibration_sink.fetch_add(x + p, std::memory_order_relaxed);
  return std::sqrt(kHashRefNs / static_cast<double>(t1 - t0) * kWalkRefNs /
                   static_cast<double>(t2 - t1));
}

}  // namespace

double host_speed() {
  const std::vector<uint32_t>& next = walk_cycle();
  std::vector<double> speed(kSpeedThreads, 0.0);
  std::vector<std::thread> threads;
  for (size_t i = 1; i < kSpeedThreads; ++i) {
    threads.emplace_back([&speed, &next, i] { speed[i] = calibrate(next); });
  }
  speed[0] = calibrate(next);
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (const double v : speed) sum += v;
  return sum / static_cast<double>(kSpeedThreads);
}

void Reps::add(double value, double speed) {
  values_.push_back(value);
  speeds_.push_back(speed);
}

double Reps::raw() const { return median(values_); }

double Reps::rate() const {
  std::vector<double> v = values_;
  for (size_t r = 0; r < v.size(); ++r) v[r] /= speeds_[r];
  return median(std::move(v));
}

double Reps::time() const {
  std::vector<double> v = values_;
  for (size_t r = 0; r < v.size(); ++r) v[r] *= speeds_[r];
  return median(std::move(v));
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void reset_peak_rss() {
  // Hand freed heap back first so the peak counts live memory, not what
  // earlier phases left in the allocator's arenas. "5" resets VmHWM to the
  // current RSS (Linux >= 4.0); where the kernel refuses, the peak simply
  // also covers what ran before.
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double f1_score(uint64_t tp, uint64_t fp, uint64_t fn) {
  const uint64_t denom = 2 * tp + fp + fn;
  return denom == 0 ? 0.0 : 2.0 * static_cast<double>(tp) /
                                static_cast<double>(denom);
}

}  // namespace e2e
