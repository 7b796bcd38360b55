// batch_eval: the paper's researcher workflow. A fresh eval::Benchmark
// (dataset_scale 1.0, seed = --seed) runs sweep_same_dataset over the 16
// surveyed algorithms and sweep_cross_dataset over {A06, A08, A13, A14} on
// the shared pool (nproc workers). It exercises the engine, ops, flow,
// features, model training, batched scoring and parallel cells, and never
// touches netio or ingest: gateway changes should show no effect here.
//
// Registry datasets are seeded by id, so --seed only changes the row
// sampling and model seeds of the evaluation, not the captures.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/telemetry.h"
#include "eval/sweep.h"
#include "layers.h"

namespace e2e {

namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

Outcome run_batch_eval(const RunConfig& cfg) {
  namespace ev = lumen::eval;
  namespace tel = lumen::telemetry;
  Outcome out;
  const std::vector<std::string> algos =
      cfg.smoke ? std::vector<std::string>{"A08", "A13", "A14"}
                : core::surveyed_algorithm_ids();
  const std::vector<std::string> cross =
      cfg.smoke ? std::vector<std::string>{"A08", "A13"}
                : std::vector<std::string>{"A06", "A08", "A13", "A14"};
  ev::Benchmark::Options bopts;
  bopts.dataset_scale = cfg.smoke ? 0.1 : 1.0;
  bopts.seed = cfg.seed;
  std::filesystem::create_directories(cfg.scratch_dir);

  std::vector<double> p999, cell_ms, f1s, peaks;
  Reps setups, rates, p50;
  SpeedClock clock;
  std::string first_csv;
  uint64_t errors = 0, cells_total = 0;
  tel::Snapshot last;
  std::unique_ptr<ev::Benchmark> bench;
  const auto set_up = [&] {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    bench = std::make_unique<ev::Benchmark>(bopts);
    for (const std::string& id : lumen::trace::all_dataset_ids()) {
      (void)bench->dataset(id);
    }
    setups.add(seconds_since(t0), clock.next());
  };
  clock.start();
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 2 || seconds_since(start) < cfg.seconds; ++rep) {
    // Set-up is dataset generation, timed three times per repetition; the
    // sweeps then start from datasets in memory with empty feature and
    // model caches.
    for (int i = 0; i < 3; ++i) set_up();
    tel::Registry::process().reset();
    reset_peak_rss();
    ev::ResultStore store;
    const Clock::time_point t0 = Clock::now();
    ev::sweep_same_dataset(*bench, algos, store);
    ev::sweep_cross_dataset(*bench, cross, store);
    const double eval_s = seconds_since(t0);
    const double speed = clock.next();
    peaks.push_back(peak_rss_mb());

    last = tel::Registry::process().snapshot();
    const uint64_t ok = last.counter_value("eval.cells");
    const uint64_t err = last.counter_value("eval.cell_errors");
    errors += err;
    cells_total += ok + err;
    rates.add(static_cast<double>(ok + err) / eval_s, speed);
    // Latency is the wait for one same-dataset cell (features, training,
    // scoring); cross-dataset cells mostly reuse the cached models.
    std::vector<double> rep_ms;
    for (const tel::SpanRecord& s : last.spans) {
      if (s.name == "eval.cell" && s.detail.find(" on ") != std::string::npos) {
        rep_ms.push_back(s.seconds * 1e3);
      }
    }
    cell_ms.insert(cell_ms.end(), rep_ms.begin(), rep_ms.end());
    const Latency lat = latency_of(std::move(rep_ms));
    p50.add(lat.p50_ms, speed);
    p999.push_back(lat.p999_ms);

    const std::string path = cfg.scratch_dir + "/batch_eval_" +
                             std::to_string(::getpid()) + ".csv";
    out.check(store.save_csv(path).ok(), "could not write " + path);
    const std::string csv = file_bytes(path);
    std::filesystem::remove(path);
    if (rep == 0) {
      first_csv = csv;
      for (const ev::ResultRow& r : store.rows()) {
        if (r.metric == "f1") f1s.push_back(r.value);
      }
      out.check(!f1s.empty(), "no evaluation cell produced an F1");
    } else {
      out.check(csv == first_csv, "result CSV differs between repetitions");
    }
  }
  out.attempted = cells_total;
  out.failed = errors;

  if (!cfg.trace) {
    double f1_sum = 0;
    for (double f : f1s) f1_sum += f;
    out.add("throughput_per_s", rates.rate(), "1/s", rates.size());
    out.add("latency_p50_ms", p50.time(), "ms", cell_ms.size());
    out.add("setup_s", setups.time(), "s", setups.size());
    out.add("peak_rss_mb", median(peaks), "MB", peaks.size());
    out.add("detect_f1", f1_sum / static_cast<double>(f1s.size()), "ratio",
            f1s.size());
    out.note("throughput_raw_per_s", rates.raw(), "1/s", rates.size());
    out.note("latency_p50_raw_ms", p50.raw(), "ms", cell_ms.size());
    out.note("latency_p999_ms", median(p999), "ms", cell_ms.size());
    out.note("setup_raw_s", setups.raw(), "s", setups.size());
  } else {
    // The live layers, measured over this workload's own packet-level
    // capture (P1, the Kitsune Mirai stand-in) as a control: batch_eval
    // does not run them, so a change to them should move these numbers
    // and none of this workload's end-to-end metrics.
    const Capture cap = from_dataset(bench->dataset("P1"), 0.45);
    const core::OnlineKitsune det = train_detector(cap);
    standalone_passes(cap, det, 2, cap.size(), out);
    SpanLog spans;
    const int64_t epoch = ledger_replay(cap, det, cap.size(), spans, out);
    if (!spans.write(cfg.spans_path, epoch)) {
      out.check(false, "could not write " + cfg.spans_path);
    }
    out.note("eval.cell_p50_s", median(cell_ms) / 1e3, "s", cell_ms.size());
    out.note("eval.cell_max_s",
             cell_ms.empty()
                 ? 0.0
                 : *std::max_element(cell_ms.begin(), cell_ms.end()) / 1e3,
             "s", cell_ms.size());
    const tel::HistogramSample* wait = last.find_histogram("pool.queue_wait_ns");
    out.note("pool.queue_wait_ns",
             wait == nullptr || wait->count == 0
                 ? 0.0
                 : wait->sum / static_cast<double>(wait->count),
             "ns", wait == nullptr ? 0 : wait->count);
    std::vector<std::pair<double, std::string>> ops;
    for (const auto& [name, ns] : span_self_ns(last, "engine.op.")) {
      ops.emplace_back(ns, name);
    }
    std::sort(ops.rbegin(), ops.rend());
    for (size_t i = 0; i < std::min<size_t>(8, ops.size()); ++i) {
      out.note(ops[i].second + "_s", ops[i].first / 1e9, "s");
    }
  }
  out.note("repetitions", static_cast<double>(rates.size()), "count");
  return out;
}

}  // namespace e2e
