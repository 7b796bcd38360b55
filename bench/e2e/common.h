// Shared pieces of the end-to-end benchmark: run configuration, the result
// record every workload fills, small statistics helpers, and the workload
// entry points (one per named workload).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  // length of the measured region
  bool trace = false;     // per-layer run (wrappers on) instead of end-to-end
  bool smoke = false;     // ~1 s per workload; every check still runs
  std::string spans_path;  // where a traced run writes its span file
  std::string scratch_dir;  // temporary files (inside the checkout)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value (0 = one)
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `extra` holds the
/// diagnostics that are printed and written to --out but are not part of
/// the benchmark contract (gauges that can read 0, per-op tables, ...).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit,
           uint64_t samples = 0);
  void note(std::string name, double value, std::string unit,
            uint64_t samples = 0);
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; reorders `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Speed of the host right now relative to the reference host the bounds
/// were set on (1: as fast; 0.8: 20% slower). Times a fixed calibration
/// kernel (an integer hash loop, then a dependent random walk over 8 MB) on
/// three threads at once, as many as a live workload keeps busy, for ~20
/// ms, and averages them. No change to the program can move it; on a
/// shared host it follows what other tenants take from the cores, caches
/// and memory the workload runs on.
double host_speed();

/// One measured quantity over a run's repetitions (drains, segments,
/// set-ups, sweeps), each with the host speed around it (the mean of
/// host_speed() just before and just after the repetition).
class Reps {
 public:
  void add(double value, double speed);
  size_t size() const { return values_.size(); }
  /// Median as measured.
  double raw() const;
  /// Median as it would read on the reference host: a rate divided by
  /// the speed around its repetition, a time multiplied by it.
  double rate() const;
  double time() const;

 private:
  std::vector<double> values_, speeds_;
};

/// Brackets repetitions with host_speed() samples: start() before the
/// first, then next() after each returns the speed around the one that
/// just ended, and becomes the "before" sample of the one after it.
class SpeedClock {
 public:
  void start() { last_ = host_speed(); }
  double next() {
    const double now = host_speed();
    const double around = 0.5 * (last_ + now);
    last_ = now;
    return around;
  }

 private:
  double last_ = 1.0;
};

/// Peak resident set of this process (VmHWM) in MB, and a reset of that
/// high-water mark (after returning freed heap to the kernel) so a
/// workload can measure its timed region alone.
double peak_rss_mb();
void reset_peak_rss();

/// F1 from confusion counts (0 when there is nothing to score).
double f1_score(uint64_t tp, uint64_t fp, uint64_t fn);

Outcome run_gateway_mirai(const RunConfig& cfg);
Outcome run_replay_synflood(const RunConfig& cfg);
Outcome run_stream_epochs(const RunConfig& cfg);
Outcome run_batch_eval(const RunConfig& cfg);

}  // namespace e2e
