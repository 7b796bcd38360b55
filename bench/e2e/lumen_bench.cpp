// lumen_bench: the end-to-end benchmark of the Lumen reproduction.
//
//   lumen_bench --workload {gateway_mirai|replay_synflood|stream_epochs|
//                           batch_eval|all}
//               [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//               [--out results.jsonl] [--spans spans.json] [--scratch DIR]
//
// Inputs are generated in-process from --seed. --trace 0 reports the
// end-to-end metrics; --trace 1 wraps the layers' public interfaces and
// reports per-layer metrics plus a span file. --smoke shrinks every
// workload to about a second and runs it both ways, so every correctness
// check and the ledger check run in a short test. A run with several
// workloads (all, or --smoke) runs each in its own child process so peak
// RSS is per workload. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any correctness check failed.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"

namespace {

using e2e::Outcome;
using e2e::RunConfig;

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&);
  bool live;  // runs the live path (LUMEN_THREADS=1) rather than the pool
};

constexpr Workload kWorkloads[] = {
    {"gateway_mirai", e2e::run_gateway_mirai, true},
    {"replay_synflood", e2e::run_replay_synflood, true},
    {"stream_epochs", e2e::run_stream_epochs, true},
    {"batch_eval", e2e::run_batch_eval, false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<e2e::Metric>& ms, bool samples) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + json_escape(ms[i].name) +
         "\": {\"value\": " + number(ms[i].value) + ", \"unit\": \"" +
         json_escape(ms[i].unit) + "\"";
    if (samples) s += ", \"samples\": " + std::to_string(ms[i].samples);
    s += "}";
  }
  return s + "}";
}

std::string result_line(const Outcome& o) {
  return std::string("{\"correct\": ") + (o.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) +
         ", \"metrics\": " + metrics_json(o.metrics, false) + "}";
}

void print_metrics(const char* tag, const std::vector<e2e::Metric>& ms) {
  for (const e2e::Metric& m : ms) {
    std::printf("  %-5s %-34s %16.6g %-6s", tag, m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples != 0) {
      std::printf(" (%llu samples)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
}

bool append_record(const std::string& path, const RunConfig& cfg,
                   const Outcome& o) {
  std::string failures = "[";
  for (size_t i = 0; i < o.failures.size(); ++i) {
    failures += (i == 0 ? "\"" : ", \"") + json_escape(o.failures[i]) + "\"";
  }
  failures += "]";
  const std::string rec =
      "{\"workload\": \"" + cfg.workload + "\", \"seed\": " +
      std::to_string(cfg.seed) + ", \"seconds\": " + number(cfg.seconds) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") +
      ", \"smoke\": " + (cfg.smoke ? "true" : "false") +
      ", \"correct\": " + (o.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(o.attempted) +
      ", \"failed\": " + std::to_string(o.failed) +
      ", \"metrics\": " + metrics_json(o.metrics, true) +
      ", \"extra\": " + metrics_json(o.extra, true) +
      ", \"failures\": " + failures +
      ", \"host\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) + ", \"cpu\": \"" +
      json_escape(cpu_model()) + "\"}}\n";
  std::ofstream f(path, std::ios::app);
  f << rec;
  return static_cast<bool>(f);
}

/// Run one workload in this process; returns the exit code.
int run_one(const Workload& w, const RunConfig& cfg, const std::string& out) {
  // Live workloads keep the shared pool to one worker so shards plus pool
  // threads stay within the core count; batch_eval uses every core.
  if (w.live) {
    ::setenv("LUMEN_THREADS", "1", 1);
  } else {
    ::unsetenv("LUMEN_THREADS");
  }
  std::printf("lumen_bench %s seed=%llu seconds=%g trace=%d smoke=%d "
              "nproc=%u cpu=\"%s\"\n",
              w.name, static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0,
              std::thread::hardware_concurrency(), cpu_model().c_str());
  std::fflush(stdout);
  Outcome o;
  try {
    o = w.run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lumen_bench %s: %s\n", w.name, e.what());
    return 1;
  }
  print_metrics(cfg.trace ? "layer" : "e2e", o.metrics);
  print_metrics("extra", o.extra);
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (const std::string& f : o.failures) std::printf("  FAIL: %s\n", f.c_str());
  if (!out.empty() && !append_record(out, cfg, o)) {
    std::fprintf(stderr, "lumen_bench: could not append to %s\n", out.c_str());
    return 1;
  }
  std::printf("%s\n", result_line(o).c_str());
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}

/// Run one workload in a child process (its own peak RSS).
int run_child(const Workload& w, const RunConfig& cfg, const std::string& out) {
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) return 1;
  if (pid == 0) std::_Exit(run_one(w, cfg, out));
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return 1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: lumen_bench --workload {gateway_mirai|replay_synflood|"
               "stream_epochs|batch_eval|all} [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out FILE] [--spans FILE] "
               "[--scratch DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string out, spans;
  cfg.scratch_dir = ".bench_build/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      cfg.workload = argv[++i];
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out") {
      out = argv[++i];
    } else if (a == "--spans") {
      spans = argv[++i];
    } else if (a == "--scratch") {
      cfg.scratch_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(cfg.seconds > 0.0)) return usage();
  std::vector<const Workload*> selected;
  if (cfg.workload == "all") {
    for (const Workload& w : kWorkloads) selected.push_back(&w);
  } else if (const Workload* w = find_workload(cfg.workload)) {
    selected.push_back(w);
  } else {
    return usage();
  }
  std::filesystem::create_directories(cfg.scratch_dir);
  if (cfg.smoke) cfg.seconds = 1.0;

  // One (workload, traced) run each; --smoke runs both modes.
  std::vector<std::pair<const Workload*, bool>> runs;
  for (const Workload* w : selected) {
    if (cfg.smoke) {
      runs.emplace_back(w, false);
      runs.emplace_back(w, true);
    } else {
      runs.emplace_back(w, cfg.trace);
    }
  }
  const auto config_for = [&](const Workload& w, bool traced) {
    RunConfig c = cfg;
    c.workload = w.name;
    c.trace = traced;
    c.spans_path = !spans.empty() && runs.size() == 1
                       ? spans
                       : cfg.scratch_dir + "/spans_" + w.name + ".json";
    return c;
  };
  if (runs.size() == 1) {
    return run_one(*runs[0].first, config_for(*runs[0].first, runs[0].second),
                   out);
  }
  int failures = 0;
  for (const auto& [w, traced] : runs) {
    failures += run_child(*w, config_for(*w, traced), out) != 0;
  }
  std::printf("{\"correct\": %s, \"runs\": %zu, \"failed_runs\": %d}\n",
              failures == 0 ? "true" : "false", runs.size(), failures);
  return failures == 0 ? 0 : 1;
}
