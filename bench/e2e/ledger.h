// Outside-in instrumentation of the live path. Everything here wraps a
// layer's public interface from the benchmark's own code; the program under
// test carries no benchmark spans.
//
//   release ── ingress ──> offer ── handoff ──> score_batch ── sink ──> on_packet
//   (scheduled send         (FrameFeed::offer   (PacketScorer::         (AlertSink)
//    or pull from source)    that took it)       score_batch)
//
// Each frame's stamps telescope: ingress + handoff + score + sink is its
// release-to-delivery latency by construction, so a ledger that does not
// sum (a missing or out-of-order stamp) exposes broken instrumentation.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "core/ingest.h"
#include "netio/frontend.h"

namespace e2e {

namespace core = lumen::core;
namespace netio = lumen::netio;

/// Per-frame steady-clock stamps in ns (0 = never reached), indexed by
/// capture index. Threads write disjoint elements; readers wait for joins.
struct FrameLedger {
  std::vector<int64_t> release;  // scheduled send, or pull from the source
  std::vector<int64_t> sent;     // record bytes handed to send() (gateway)
  std::vector<int64_t> offered;  // traced: entry of the accepting offer()
  std::vector<int64_t> batch_start;  // traced: its score_batch call
  std::vector<int64_t> batch_end;
  std::vector<int64_t> delivered;  // AlertSink::on_packet
  std::vector<double> score;
  uint64_t duplicates = 0;  // deliveries of an already-delivered index

  void reset(size_t frames, bool traced);
};

/// One span: {name, id, start, end, parent} plus the rows it covered.
struct SpanRec {
  const char* name = "";
  uint64_t id = 0;
  int64_t start = 0;
  int64_t end = 0;
  uint64_t parent = 0;
  uint32_t rows = 0;
};

/// Fixed-capacity span buffer owned by one thread (allocated up front;
/// spans past capacity are counted, not stored).
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { recs_.reserve(capacity); }
  void add(const SpanRec& r) {
    if (recs_.size() < recs_.capacity()) {
      recs_.push_back(r);
    } else {
      ++dropped_;
    }
  }
  const std::vector<SpanRec>& records() const { return recs_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<SpanRec> recs_;
  uint64_t dropped_ = 0;
};

/// Owns every span buffer of a run and the span id sequence; writes the
/// span file once, at exit.
class SpanLog {
 public:
  SpanBuffer& buffer(size_t capacity);
  uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
  std::vector<SpanRec> all() const;
  uint64_t dropped() const;
  bool write(const std::string& path, int64_t epoch_ns) const;

 private:
  mutable std::mutex mu_;
  std::deque<SpanBuffer> buffers_;
  std::atomic<uint64_t> ids_{1};
};

/// Records each delivered frame's time and score.
class LatencySink : public core::AlertSink {
 public:
  explicit LatencySink(FrameLedger& ledger) : ledger_(ledger) {}
  void on_alert(const core::Alert&) override {}
  void on_packet(const netio::PacketView& view, double score,
                 bool alerted) override;

 private:
  FrameLedger& ledger_;
};

/// Closed-loop release stamps: the moment the driver pulls a frame.
class StampingSource : public netio::PacketSource {
 public:
  StampingSource(netio::PacketSource& inner, FrameLedger& ledger)
      : inner_(inner), ledger_(ledger) {}
  bool next(netio::SourcePacket& out) override;
  netio::LinkType link() const override { return inner_.link(); }

 private:
  netio::PacketSource& inner_;
  FrameLedger& ledger_;
};

/// Busy time of the producer side, summed over a run.
struct FeedStats {
  int64_t offer_ns = 0;  // inside offer()
  int64_t wait_ns = 0;   // inside wait_ready()
};

/// Wraps the driver a runtime runs, and through it the FrameFeed the
/// runtime hands that driver: stamps the accepting offer of every frame and
/// times offer/wait_ready.
class TracingDriver : public netio::SourceDriver {
 public:
  TracingDriver(netio::SourceDriver& inner, FrameLedger& ledger,
                SpanLog& spans)
      : inner_(inner), ledger_(ledger), spans_(spans) {}
  netio::LinkType link() const override { return inner_.link(); }
  lumen::Result<void> drive(netio::FrameFeed& feed,
                            const std::atomic<bool>& stop) override;
  const FeedStats& stats() const { return stats_; }
  int64_t drive_ns() const { return drive_ns_; }

 private:
  netio::SourceDriver& inner_;
  FrameLedger& ledger_;
  SpanLog& spans_;
  FeedStats stats_;
  int64_t drive_ns_ = 0;
};

/// Busy time and rows of every traced score_batch call of a run.
struct ScoreStats {
  std::atomic<int64_t> busy_ns{0};
  std::atomic<uint64_t> rows{0};
};

/// Wraps a consumer's PacketScorer: one span per score_batch call, and the
/// call's start/end stamped on every frame it scored.
class TracingScorer : public core::PacketScorer {
 public:
  TracingScorer(std::unique_ptr<core::PacketScorer> inner, FrameLedger& ledger,
                SpanLog& spans, ScoreStats& stats);
  double score(const netio::PacketView& view) override;
  double threshold() const override { return inner_->threshold(); }
  void score_batch(std::span<const netio::PacketView> views,
                   double* out) override;

 private:
  std::unique_ptr<core::PacketScorer> inner_;
  FrameLedger& ledger_;
  SpanLog& spans_;
  SpanBuffer& buf_;
  ScoreStats& stats_;
};

/// The per-frame ledger of a traced run, summarised over delivered frames.
/// The parts are means, so they add up to the mean latency.
struct LedgerSummary {
  uint64_t frames = 0;        // delivered frames with a complete ledger
  uint64_t incomplete = 0;    // delivered frames missing a stamp
  uint64_t out_of_order = 0;  // a negative part or a sum off by > 1%
  double ingress_ms = 0, handoff_ms = 0, score_ms = 0, sink_ms = 0,
         latency_ms = 0;
  double lag_p99_ms = 0;  // sent - release (gateway only)
};
LedgerSummary summarize_ledger(const FrameLedger& ledger);

/// Derived per-frame spans (a sample of frames) appended to the log so the
/// span file shows each sampled frame's ledger as a span tree.
void add_frame_spans(const FrameLedger& ledger, SpanLog& spans,
                     size_t every);

}  // namespace e2e
