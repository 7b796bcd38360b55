// Streaming operator engine: run compiled pipeline specs continuously on
// the live path (the paper's "one description, two execution modes").
// compile_streaming lowers a spec into one fixed-shape pipeline, the only
// shape the batch type check and the linear-chain rule let through:
//
//   field_extract -> filter* -> [groupby] -> [time_slice] -> producer
//                 -> normalize* -> [predict] -> callback
//
// The producer is apply_aggregates (one row per group of a tumbling
// window) or damped_stats / packet_features (one row per packet). push()
// runs one packet through the packet stages into the producer; when the
// capture clock crosses a window boundary or a micro-batch fills, the
// producer's rows run through the row stages as one EpochBatch.
//
//   auto chain = compile_streaming(spec, opts);       // the SAME spec the
//   chain.value()->set_callback([&](EpochBatch&& e) { // batch Engine runs
//     ...per-epoch rows, scores, alerts...
//   });
//   for each live packet v: chain.value()->push(v);
//   chain.value()->finish();                          // flush open windows
//
// The packet stages reuse the batch ops' definitions (ops_common.h:
// aggregate plan and accumulator, group directory, window clock, filter
// predicate, packet_features row), so for the supported op subset (and
// time_slice with align="global") the rows a chain emits for epoch k are
// bit-identical to what the batch Engine computes for window k of the same
// trace — see tests/stream_engine_test.cpp. Batch-only ops are rejected at
// compile time with a diagnostic saying why and what to do instead.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/pipeline.h"
#include "features/table.h"
#include "netio/packet.h"

namespace lumen::core {

/// One batch of rows emitted at an epoch boundary. For windowed chains an
/// epoch is one global tumbling window (epoch k = window k of the shared
/// time origin); for per-packet chains (damped_stats / packet_features) it
/// is one micro-batch of rows and `epoch` is a sequence number.
struct EpochBatch {
  uint64_t epoch = 0;
  double window_start = 0.0;  // capture-time start of the window
  /// Per-row printable unit key ("192.168.1.12#w3"-style for grouped
  /// windowed chains; empty for per-packet chains). Aligned with table rows.
  std::vector<std::string> keys;
  /// The aggregate/feature rows of this epoch. Labels and attack tags are
  /// zero — the live path has no ground truth; unit_id carries the running
  /// row number (windowed chains) or the capture index (per-packet chains).
  features::FeatureTable table;
  /// Filled by a model-scoring stage (when the spec ends in `predict`).
  bool scored = false;
  std::vector<double> scores;   // per row
  std::vector<int> predictions; // per row, 1 = alert
};

/// Options for compile_streaming.
struct StreamingOptions {
  /// Externally-supplied bindings a deploy spec consumes — typically the
  /// trained ModelValue a batch `train` run produced (Engine::run and
  /// Engine::type_check accept the same map as their `seed` parameter, so
  /// one spec + one binding set drives both paths). Streaming rejects
  /// `model`/`train` ops: training is batch-only.
  std::map<std::string, Value> bindings;
  /// Rows per emitted batch for per-packet chains (damped_stats /
  /// packet_features) — the micro-batch size of the fused scoring path.
  size_t micro_batch = 64;
  /// Where the per-operator spans (one per producer flush, normalize and
  /// predict; siblings, none nested in another) and the chain counters
  /// land. nullptr (the default) keeps the chain uninstrumented — the
  /// cheapest mode.
  telemetry::Registry* registry = nullptr;
  /// Prepended to every instrument/span name ("<prefix>op.<func>", ...).
  std::string instrument_prefix = "stream.";
};

namespace stream_detail {
struct Stages;
}

/// A compiled chain: the stages lowered from one spec, run as straight-line
/// code. Single-threaded by design (like a PacketScorer): the ingestion
/// runtime builds one pipeline per consumer.
class StreamPipeline {
 public:
  using EpochCallback = std::function<void(EpochBatch&&)>;

  /// Aggregate chain counters (mutated on the pushing thread; read through
  /// the accessors below).
  struct Counters {
    uint64_t packets = 0, rows = 0, epochs = 0, alerts = 0, late = 0;
  };

  StreamPipeline();
  ~StreamPipeline();

  /// Invoked (on the pushing thread) for every epoch the chain completes.
  void set_callback(EpochCallback cb);

  /// Feed one parsed packet, in capture order. May synchronously invoke the
  /// epoch callback when the packet's timestamp closes a window. On the
  /// live path the frame bytes `v` describes are valid only until the
  /// consumer's next claim (see PacketScorer::score_batch): the chain
  /// copies the fields it keeps and holds no view past this call.
  void push(const netio::PacketView& v);

  /// End of stream: flush every open window/micro-batch through the chain.
  void finish();

  /// Clear all operator state for a fresh stream (group directories, window
  /// clocks, accumulators, counters). Seeded models/transforms survive.
  void reset();

  uint64_t packets() const { return counts_.packets; }
  uint64_t rows() const { return counts_.rows; }
  uint64_t epochs() const { return counts_.epochs; }
  uint64_t alerts() const { return counts_.alerts; }
  /// Packets whose timestamp fell behind the current window (clamped into
  /// it and counted — the streaming path assumes in-order capture time).
  uint64_t late_packets() const { return counts_.late; }

 private:
  friend Result<std::unique_ptr<StreamPipeline>> compile_streaming(
      const PipelineSpec& spec, StreamingOptions opts);

  /// Take the producer's rows through normalize and predict, count them,
  /// mirror the counters and hand the batch to the callback.
  void flush();

  Counters counts_;
  std::unique_ptr<stream_detail::Stages> stages_;
  EpochCallback cb_;
  bool finished_ = false;
};

/// Lower `spec` into a streaming operator chain. Type-checks with the batch
/// engine's machinery first (seeded with opts.bindings), then lowers the
/// supported subset:
///
///   field_extract, filter, groupby, time_slice (align="global" only),
///   apply_aggregates (all funcs except the batch-only "median"),
///   normalize (per-epoch refit), predict (seeded model), damped_stats,
///   packet_features
///
/// Everything else — training, flow/connection reassembly, table surgery,
/// evaluation, I/O — is rejected with a diagnostic naming the op and the
/// batch-only reason.
Result<std::unique_ptr<StreamPipeline>> compile_streaming(
    const PipelineSpec& spec, StreamingOptions opts = {});

}  // namespace lumen::core
