// Pieces the workloads share: detector training, the sequential reference
// scorers the correctness checks compare against, the single-thread
// per-layer passes, and the per-layer metrics of a traced runtime.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/telemetry.h"
#include "core/stream.h"
#include "core/stream_op.h"
#include "ledger.h"
#include "traffic.h"

namespace e2e {

/// OnlineKitsune trained on the capture's benign prefix and compiled to an
/// f64 plan (bit-identical to the reference scoring path). The alert
/// threshold is the 0.9 quantile of the prefix's training scores.
core::OnlineKitsune train_detector(const Capture& cap);

/// Score the live frames [0, count) that parse through one sequential copy
/// of `det`, in capture order, into out[i]: every frame (the global
/// reference), or with `shard_of` set only the frames of shard `shard`
/// (that shard's part of the per-shard reference). Calls for different
/// shards write disjoint elements and may run concurrently.
void score_sequential(const core::OnlineKitsune& det, const Capture& cap,
                      size_t count, const std::vector<uint8_t>* shard_of,
                      size_t shard, std::vector<double>& out);

/// Shard of every live frame under FlowShardRouter(shards, link).
std::vector<uint8_t> shard_map(const Capture& cap, size_t shards);

/// Run `tasks` on at most `threads` threads; rethrows the first failure.
void run_tasks(std::vector<std::function<void()>> tasks, size_t threads);

/// Bitwise equality of two scores (NaN-safe).
bool same_bits(double a, double b);

/// PipelineSpec from the body of a spec list; throws on a parse error.
core::PipelineSpec parse_spec(const std::string& body);

/// The bench_stream windowed spec, in parts: the packet phase
/// (field_extract -> filter -> groupby(srcmac) -> time_slice ->
/// apply_aggregates, binding "F"), per-epoch min-max normalize ("N"), and
/// a tail that either trains a KitNET ("Model") or predicts ("Preds").
std::string windowed_features(double window);
inline constexpr const char* kNormalizeOp =
    R"({"func": "normalize", "input": ["F"], "output": "N", "kind": "minmax"},)";
inline constexpr const char* kTrainOps = R"(
    {"func": "model", "input": None, "output": "M0", "model_type": "KitNET",
     "normalize": true},
    {"func": "train", "input": ["M0", "N"], "output": "Model"},)";
inline constexpr const char* kPredictOp =
    R"({"func": "predict", "input": ["Model", "N"], "output": "Preds"},)";
core::ModelValue train_windowed(const lumen::trace::Dataset& train,
                                double window);
std::unique_ptr<core::StreamPipeline> compile_windowed(
    const core::ModelValue& model, double window,
    lumen::telemetry::Registry* registry);

/// Single-thread passes over the workload's own live frames (the first
/// `limit`): parse, route, extract, compiled-plan scoring, the sequential
/// detector, and the windowed chain. Adds the per-layer metrics
/// netio.parse_ns, ingest.route_ns, extract.ns, extract.contexts,
/// ml.plan_ns_per_row, pipeline.seq_pps and stream.push_ns.
void standalone_passes(const Capture& cap, const core::OnlineKitsune& det,
                       size_t shards, size_t limit, Outcome& out);

/// Per-layer metrics of one traced runtime run: the ledger parts, the
/// score_batch busy time per row, and the runtime's registry snapshot.
void ledger_metrics(const FrameLedger& ledger, const ScoreStats& score,
                    const lumen::telemetry::Snapshot& snap, size_t shards,
                    Outcome& out);

/// Traced one-shard unpaced replay of the capture's first `limit` frames
/// through IngestRuntime + KitsuneScorer: the ledger for workloads whose
/// own consumer body is not a PacketScorer. Adds what ledger_metrics adds
/// and the sampled frame spans; returns the first frame's release stamp.
int64_t ledger_replay(const Capture& cap, const core::OnlineKitsune& det,
                      size_t limit, SpanLog& spans, Outcome& out);

/// Self time (own duration minus the time its child spans cover) summed
/// per span name, in ns, over the snapshot's spans whose name starts with
/// `prefix`.
std::map<std::string, double> span_self_ns(
    const lumen::telemetry::Snapshot& snap, const std::string& prefix);

/// Median and tail of one repetition's latencies.
struct Latency {
  double p50_ms = 0, p999_ms = 0;  // median and 99.9th percentile
  uint64_t samples = 0;
};
Latency latency_of(std::vector<double> ms);

/// Delivered frames in [lo, hi) whose alert decision differs from the
/// global sequential detector's (`global` is indexed from lo).
uint64_t alert_flips(const FrameLedger& ledger,
                     const std::vector<double>& global, size_t lo, size_t hi,
                     double threshold);

}  // namespace e2e
