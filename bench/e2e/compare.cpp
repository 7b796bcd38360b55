// lumen_bench_compare: judges benchmark results against the bounds in
// BENCHMARK.json.
//
//   lumen_bench_compare [--bench BENCHMARK.json] --summary runs.jsonl
//       median and quartiles of every (workload, end-to-end metric) over the
//       untraced records of a results file, flagging any metric whose
//       spread (q3 - q1) / median exceeds its bound.
//   lumen_bench_compare [--bench BENCHMARK.json] base.jsonl new.jsonl
//       one row per (workload, metric): better, same, worse, or unresolved
//       (a side's spread is above the bound and the runs overlap). Exits 1
//       on a regression, on a failed correctness check, or when the new
//       runs fail a larger share of their operations.
//
// Results files hold one JSON record per line, as `lumen_bench --out`
// appends them. Quartiles follow Python's statistics.quantiles(n=4).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"

namespace {

using lumen::core::Json;

struct Bound {
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

struct Side {
  // (workload, metric) -> values over runs
  std::map<std::pair<std::string, std::string>, std::vector<double>> values;
  std::map<std::string, uint64_t> attempted, failed;
  int incorrect = 0;
};

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool load_bounds(const std::string& path,
                 std::vector<std::pair<std::string, Bound>>& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  auto doc = Json::parse(text);
  if (!doc.ok() || doc.value().get("end_to_end") == nullptr) return false;
  for (const Json& m : doc.value().get("end_to_end")->items()) {
    Bound b;
    b.unit = m.get_string("unit");
    b.lower_is_better = m.get_string("better") == "lower";
    b.bound = m.get_number("bound");
    out.emplace_back(m.get_string("name"), b);
  }
  return !out.empty();
}

bool load_side(const std::string& path, Side& side) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto rec = Json::parse(line);
    if (!rec.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   rec.error().message.c_str());
      return false;
    }
    const Json& r = rec.value();
    if (r.get_int("trace") != 0 || r.get_bool("smoke")) continue;
    const std::string w = r.get_string("workload");
    side.attempted[w] += static_cast<uint64_t>(r.get_number("attempted"));
    side.failed[w] += static_cast<uint64_t>(r.get_number("failed"));
    side.incorrect += r.get_bool("correct") ? 0 : 1;
    if (const Json* ms = r.get("metrics")) {
      for (const auto& [name, m] : ms->fields()) {
        side.values[{w, name}].push_back(m.get_number("value"));
      }
    }
  }
  return true;
}

struct Stats {
  double q1 = 0, median = 0, q3 = 0, lo = 0, hi = 0;
  size_t n = 0;
  double spread() const { return median == 0 ? 0 : (q3 - q1) / median; }
};

/// statistics.quantiles(v, n=4) (the "exclusive" method) and the median.
Stats stats_of(std::vector<double> v) {
  Stats s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.lo = v.front();
  s.hi = v.back();
  const size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto q = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = q(1);
  s.q3 = q(3);
  return s;
}

int summary(const std::vector<std::pair<std::string, Bound>>& bounds,
            const Side& side) {
  std::printf("%-16s %-16s %4s %14s %14s %14s %8s %6s\n", "workload", "metric",
              "n", "q1", "median", "q3", "spread", "bound");
  int flagged = 0;
  std::vector<std::string> workloads;
  for (const auto& [key, _] : side.values) {
    if (std::find(workloads.begin(), workloads.end(), key.first) ==
        workloads.end()) {
      workloads.push_back(key.first);
    }
  }
  for (const std::string& w : workloads) {
    for (const auto& [name, b] : bounds) {
      const auto it = side.values.find({w, name});
      if (it == side.values.end()) continue;
      const Stats s = stats_of(it->second);
      // setup_s is exempt: its bound only limits the median's drift.
      const bool over = name != "setup_s" && s.spread() > b.bound;
      flagged += over;
      std::printf("%-16s %-16s %4zu %14.6g %14.6g %14.6g %7.2f%% %5.1f%%%s\n",
                  w.c_str(), name.c_str(), s.n, s.q1, s.median, s.q3,
                  100 * s.spread(), 100 * b.bound,
                  over ? "  SPREAD ABOVE BOUND" : "");
    }
    std::printf("%-16s failed %llu of %llu attempted\n", w.c_str(),
                static_cast<unsigned long long>(side.failed.at(w)),
                static_cast<unsigned long long>(side.attempted.at(w)));
  }
  if (side.incorrect != 0) {
    std::printf("%d run(s) failed a correctness check\n", side.incorrect);
  }
  return flagged == 0 && side.incorrect == 0 ? 0 : 1;
}

int compare(const std::vector<std::pair<std::string, Bound>>& bounds,
            const Side& base, const Side& cand) {
  std::printf("%-16s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric",
              "base median", "new median", "change", "bound", "verdict");
  int regressions = 0;
  for (const auto& [key, base_values] : base.values) {
    const auto& [w, name] = key;
    const auto b = std::find_if(bounds.begin(), bounds.end(),
                                [&](const auto& e) { return e.first == name; });
    const auto c = cand.values.find(key);
    if (b == bounds.end() || c == cand.values.end()) continue;
    const Bound& bd = b->second;
    const Stats sa = stats_of(base_values), sb = stats_of(c->second);
    // Positive `worse` means the new runs are worse, as a share of base.
    const double change = sa.median == 0 ? 0 : (sb.median - sa.median) / sa.median;
    const double worse = bd.lower_is_better ? change : -change;
    const bool all_better = bd.lower_is_better ? sb.hi < sa.lo : sb.lo > sa.hi;
    const bool all_worse = bd.lower_is_better ? sb.lo > sa.hi : sb.hi < sa.lo;
    const bool noisy = name != "setup_s" &&
                       (sa.spread() > bd.bound || sb.spread() > bd.bound);
    std::string verdict;
    if (noisy && !all_better && !all_worse) {
      verdict = "unresolved (spread above bound)";
    } else if (worse > bd.bound || (noisy && all_worse)) {
      verdict = "WORSE";
      ++regressions;
    } else if (-worse > bd.bound || (noisy && all_better)) {
      verdict = "better";
    } else {
      verdict = "same";
    }
    std::printf("%-16s %-16s %14.6g %14.6g %+8.2f%% %5.1f%%  %s\n", w.c_str(),
                name.c_str(), sa.median, sb.median, 100 * change,
                100 * bd.bound, verdict.c_str());
  }
  for (const auto& [w, attempted] : cand.attempted) {
    const auto a = base.attempted.find(w);
    if (a == base.attempted.end() || attempted == 0 || a->second == 0) continue;
    const double fa = static_cast<double>(base.failed.at(w)) /
                      static_cast<double>(a->second);
    const double fb = static_cast<double>(cand.failed.at(w)) /
                      static_cast<double>(attempted);
    if (fb > fa) {
      std::printf("%-16s failed share rose from %.3g to %.3g: WORSE\n",
                  w.c_str(), fa, fb);
      ++regressions;
    }
  }
  if (cand.incorrect != 0) {
    std::printf("%d new run(s) failed a correctness check\n", cand.incorrect);
    ++regressions;
  }
  return regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench = "BENCHMARK.json", summary_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bench" && i + 1 < argc) {
      bench = argv[++i];
    } else if (a == "--summary" && i + 1 < argc) {
      summary_path = argv[++i];
    } else {
      files.push_back(a);
    }
  }
  std::vector<std::pair<std::string, Bound>> bounds;
  if (!load_bounds(bench, bounds)) {
    std::fprintf(stderr, "cannot read end_to_end bounds from %s\n",
                 bench.c_str());
    return 2;
  }
  if (!summary_path.empty() && files.empty()) {
    Side side;
    if (!load_side(summary_path, side)) return 2;
    return summary(bounds, side);
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: lumen_bench_compare [--bench BENCHMARK.json] "
                 "(--summary runs.jsonl | base.jsonl new.jsonl)\n");
    return 2;
  }
  Side base, cand;
  if (!load_side(files[0], base) || !load_side(files[1], cand)) return 2;
  return compare(bounds, base, cand);
}
