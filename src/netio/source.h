// Packet sources for the gateway ingestion runtime: a uniform pull
// interface over "where packets come from", decoupling capture from
// detection (core/ingest.h). Shipped sources:
//
//   * TraceReplaySource — replays an in-memory Trace (e.g. a loaded pcap or
//     a synthetic trace::Dataset capture), optionally paced against the
//     capture's own inter-arrival gaps as a live gateway would see them.
//   * PcapReplaySource — owns a capture read from disk and replays it.
//   * FaultInjectingSource — wraps another source and deterministically
//     truncates, corrupts, or reorders packets, for hardening the
//     parse/score path against hostile or damaged captures.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "netio/packet.h"

namespace lumen::netio {

/// One packet pulled from a source: the raw frame plus its index in the
/// original capture (what Dataset labels are aligned with).
struct SourcePacket {
  RawPacket pkt;
  uint32_t capture_index = 0;
  /// Tenant the packet belongs to (0 = default tenant). Socket streams set
  /// this from their authenticated hello; replay sources leave it 0 unless
  /// a ReplayDriver is constructed with an explicit tenant.
  uint32_t tenant = 0;
};

/// Pull-based packet producer. Implementations are single-threaded: the
/// ingestion runtime drives one source from one producer thread.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Pull the next packet into `out`. Returns false at end of stream.
  /// `out` may be a packet recycled from an earlier frame (see
  /// FrameFeed::offer): a source overwrites its frame and reuses its
  /// buffer.
  virtual bool next(SourcePacket& out) = 0;

  /// Link type of the frames this source emits.
  virtual LinkType link() const = 0;

  /// Rewind to the beginning of the stream. Returns false when the source
  /// cannot be replayed.
  virtual bool reset() { return false; }
};

/// Pacing options for replay sources. Pacing sleeps between packets to
/// reproduce the capture's inter-arrival gaps (divided by `speed`), so the
/// runtime sees a live-like arrival process; `max_sleep` bounds any single
/// gap so pathological captures cannot stall a replay.
struct ReplayOptions {
  bool pace = false;
  double speed = 1.0;        // replay speed multiplier (2 = twice as fast)
  double max_sleep = 0.050;  // seconds; cap on any single inter-packet sleep
  size_t begin = 0;          // first raw-packet position to replay
  size_t end = SIZE_MAX;     // one past the last position (clamped to size)
};

/// Replays the raw packets of a Trace the caller keeps alive. When the
/// trace has parsed views, each packet carries its original capture index
/// (so labels survive earlier parse skips); otherwise the raw position.
class TraceReplaySource : public PacketSource {
 public:
  explicit TraceReplaySource(const Trace& trace, ReplayOptions opts = {});

  bool next(SourcePacket& out) override;
  LinkType link() const override { return trace_->link; }
  bool reset() override;

 private:
  const Trace* trace_;
  ReplayOptions opts_;
  size_t pos_ = 0;
  // Pacing baseline: wall clock at the first packet and its capture time.
  // Each later packet is released at wall0_ + (ts - ts0_) / speed.
  std::chrono::steady_clock::time_point wall0_;
  double ts0_ = 0.0;
  bool started_ = false;
};

/// Reads a classic pcap savefile and replays it.
class PcapReplaySource : public PacketSource {
 public:
  static Result<std::unique_ptr<PcapReplaySource>> open(
      const std::string& path, ReplayOptions opts = {});

  bool next(SourcePacket& out) override { return replay_.next(out); }
  LinkType link() const override { return trace_.link; }
  bool reset() override { return replay_.reset(); }

  const Trace& trace() const { return trace_; }

 private:
  PcapReplaySource(Trace trace, ReplayOptions opts);

  Trace trace_;
  TraceReplaySource replay_;
};

/// Fault model for FaultInjectingSource. Probabilities are per packet and
/// independent; the random stream is derived only from `seed`, so a given
/// (source, options) pair always produces the same faulted stream.
struct FaultOptions {
  double truncate_p = 0.0;  // chop the frame to a random prefix
  double corrupt_p = 0.0;   // flip a few random bytes in place
  double reorder_p = 0.0;   // swap delivery order with the next packet
  uint64_t seed = 1;
};

/// Wraps another source and injects transport-level damage. Truncation and
/// corruption exercise the parser's bounds checks; reordering exercises the
/// runtime's tolerance for non-monotonic timestamps.
class FaultInjectingSource : public PacketSource {
 public:
  FaultInjectingSource(PacketSource& inner, FaultOptions opts);

  bool next(SourcePacket& out) override;
  LinkType link() const override { return inner_->link(); }
  bool reset() override;

 private:
  void inject(SourcePacket& sp);

  PacketSource* inner_;
  FaultOptions opts_;
  Rng rng_;
  SourcePacket held_;  // delayed packet during a reorder, if holding_
  bool holding_ = false;
};

/// Options for LoopingSource. With period = 0 the shift between loops is
/// derived from the inner stream on the first wrap: its timestamp span plus
/// the mean inter-packet gap (so loop k+1's first packet follows loop k's
/// last by a typical gap instead of colliding with it).
struct LoopOptions {
  size_t loops = 2;     // total passes over the inner source (>= 1)
  double period = 0.0;  // seconds added to ts per loop; 0 = derive from span
};

/// Replays a resettable inner source `loops` times, shifting capture
/// timestamps forward by one period per pass so the stream looks like a
/// longer continuous capture — the soak harness for bounded-memory checks
/// on streaming chains (state must stop growing once the loop's group
/// population has been seen). Capture indices repeat across passes
/// unchanged, like a traffic generator replaying the same flows.
class LoopingSource : public PacketSource {
 public:
  LoopingSource(PacketSource& inner, LoopOptions opts);

  bool next(SourcePacket& out) override;
  LinkType link() const override { return inner_->link(); }
  bool reset() override;

 private:
  PacketSource* inner_;
  LoopOptions opts_;
  size_t loop_ = 0;
  double shift_ = 0.0;
  double period_ = 0.0;  // resolved on the first wrap when opts_.period == 0
  // First-pass observations for deriving the period.
  double first_ts_ = 0.0;
  double last_ts_ = 0.0;
  uint64_t seen_ = 0;
};

}  // namespace lumen::netio
