// Streaming operator engine: run compiled pipeline specs continuously on
// the live path (the paper's "one description, two execution modes"). A
// chain of push-based StreamOps receives one packet at a time (push),
// accumulates per-group / per-window state in FlatMap tables, and emits a
// per-epoch feature batch downstream whenever the capture clock crosses a
// tumbling-window boundary (flush_epoch).
//
//   auto chain = compile_streaming(spec, opts);       // the SAME spec the
//   chain.value()->set_callback([&](EpochBatch&& e) { // batch Engine runs
//     ...per-epoch rows, scores, alerts...
//   });
//   for each live packet v: chain.value()->push(v);
//   chain.value()->finish();                          // flush open windows
//
// The packet-phase operators reuse the batch ops' definitions (ops_common.h:
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

/// The tuple flowing between packet-phase operators: a borrowed view plus
/// the group/window coordinates assigned so far along the chain.
struct PacketTuple {
  const netio::PacketView* view = nullptr;
  uint32_t group = 0;         // group-directory id (0 when no groupby ran)
  uint64_t window = 0;        // tumbling-window index (0 when no time_slice)
  double window_start = 0.0;  // capture-time start of `window`
};

/// flush_epoch() argument meaning "flush everything still open" — sent by
/// StreamPipeline::finish() at end of stream.
inline constexpr uint64_t kFlushAll = UINT64_MAX;

/// One incremental operator. Packet-phase ops transform/route PacketTuples;
/// row-phase ops transform EpochBatches; flush_epoch is the control signal
/// that closes an epoch (originated by the time-slice stage at a window
/// boundary, or by finish() with kFlushAll). reset() clears operator state
/// for a fresh stream without recompiling (models and fitted transforms are
/// configuration, not state — they survive).
class StreamOp {
 public:
  virtual ~StreamOp() = default;

  virtual const char* name() const = 0;
  virtual void push(PacketTuple& t) { forward(t); }
  virtual void push_rows(EpochBatch&& batch) { forward_rows(std::move(batch)); }
  virtual void flush_epoch(uint64_t epoch) { forward_flush(epoch); }
  virtual void reset() {}

  void set_next(StreamOp* next) { next_ = next; }
  /// Per-operator telemetry: a Span named `span_name` is recorded around
  /// each epoch flush this operator performs (null registry = inert).
  void set_telemetry(telemetry::Registry* reg, std::string span_name) {
    reg_ = reg;
    span_name_ = std::move(span_name);
  }

 protected:
  void forward(PacketTuple& t) {
    if (next_ != nullptr) next_->push(t);
  }
  void forward_rows(EpochBatch&& batch) {
    if (next_ != nullptr) next_->push_rows(std::move(batch));
  }
  void forward_flush(uint64_t epoch) {
    if (next_ != nullptr) next_->flush_epoch(epoch);
  }

  StreamOp* next_ = nullptr;
  telemetry::Registry* reg_ = nullptr;  // nullptr = no spans
  std::string span_name_;
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
  /// Where per-operator flush spans and chain counters land. nullptr (the
  /// default) keeps the chain uninstrumented — the cheapest mode.
  telemetry::Registry* registry = nullptr;
  /// Prepended to every instrument/span name ("<prefix>op.<func>", ...).
  std::string instrument_prefix = "stream.";
};

namespace stream_detail {
class EmitOp;
}

/// A compiled operator chain. Single-threaded by design (like a
/// PacketScorer): the ingestion runtime builds one pipeline per consumer.
class StreamPipeline {
 public:
  using EpochCallback = std::function<void(EpochBatch&&)>;

  /// Aggregate chain counters (mutated by the lowered operators on the
  /// pushing thread; read through the accessors below).
  struct Counters {
    uint64_t packets = 0, rows = 0, epochs = 0, alerts = 0, late = 0;
  };

  /// Invoked (on the pushing thread) for every epoch the chain completes.
  void set_callback(EpochCallback cb);

  /// Feed one parsed packet, in capture order. May synchronously invoke the
  /// epoch callback when the packet's timestamp closes a window.
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

  Counters counts_;
  std::vector<std::unique_ptr<StreamOp>> ops_;  // chain order; [0] is entry
  StreamOp* front_ = nullptr;
  stream_detail::EmitOp* emit_ = nullptr;  // terminal (owned by ops_)
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
