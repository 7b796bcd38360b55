#include "netio/source.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "netio/pcap.h"

namespace lumen::netio {

TraceReplaySource::TraceReplaySource(const Trace& trace, ReplayOptions opts)
    : trace_(&trace), opts_(opts) {
  opts_.end = std::min(opts_.end, trace.raw.size());
  opts_.begin = std::min(opts_.begin, opts_.end);
  if (opts_.speed <= 0.0) opts_.speed = 1.0;
  pos_ = opts_.begin;
}

bool TraceReplaySource::next(SourcePacket& out) {
  if (pos_ >= opts_.end) return false;
  const RawPacket& raw = trace_->raw[pos_];
  if (opts_.pace) {
    // Absolute-timeline pacing: each packet is released when the wall
    // clock reaches wall0_ + (ts - ts0_) / speed, so downstream
    // processing time and sleep overshoot are absorbed instead of
    // accumulating (per-packet relative sleeps drift badly at high rates
    // because the OS timer granularity is ~50 us). A gap that would
    // require sleeping longer than max_sleep is truncated by advancing
    // the baseline — same fast-forward semantics as clamping the gap.
    using dsec = std::chrono::duration<double>;
    const auto now = std::chrono::steady_clock::now();
    if (!started_) {
      wall0_ = now;
      ts0_ = raw.ts;
    } else {
      const auto target =
          wall0_ + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       dsec((raw.ts - ts0_) / opts_.speed));
      double wait = dsec(target - now).count();
      if (wait > opts_.max_sleep) {
        wall0_ -= std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            dsec(wait - opts_.max_sleep));
        wait = opts_.max_sleep;
      }
      // Sub-half-millisecond waits are left to accumulate into the next
      // packet's target rather than paying nanosleep overhead per packet.
      if (wait >= 0.0005) std::this_thread::sleep_for(dsec(wait));
    }
  }
  started_ = true;
  out.pkt = raw;
  // A parsed trace may have skipped malformed frames; the view keeps each
  // packet's original capture index, which is what label arrays use.
  out.capture_index = pos_ < trace_->view.size()
                          ? trace_->view[pos_].index
                          : static_cast<uint32_t>(pos_);
  ++pos_;
  return true;
}

bool TraceReplaySource::reset() {
  pos_ = opts_.begin;
  started_ = false;
  return true;
}

PcapReplaySource::PcapReplaySource(Trace trace, ReplayOptions opts)
    : trace_(std::move(trace)), replay_(trace_, opts) {}

Result<std::unique_ptr<PcapReplaySource>> PcapReplaySource::open(
    const std::string& path, ReplayOptions opts) {
  Result<Trace> trace = read_pcap(path);
  if (!trace.ok()) return trace.error();
  return std::unique_ptr<PcapReplaySource>(
      new PcapReplaySource(std::move(trace).value(), opts));
}

FaultInjectingSource::FaultInjectingSource(PacketSource& inner,
                                           FaultOptions opts)
    : inner_(&inner), opts_(opts), rng_(opts.seed) {}

void FaultInjectingSource::inject(SourcePacket& sp) {
  Bytes& data = sp.pkt.data;
  if (opts_.truncate_p > 0.0 && rng_.bernoulli(opts_.truncate_p) &&
      data.size() > 1) {
    data.resize(1 + static_cast<size_t>(rng_.below(data.size() - 1)));
  }
  if (opts_.corrupt_p > 0.0 && rng_.bernoulli(opts_.corrupt_p) &&
      !data.empty()) {
    const size_t flips = 1 + static_cast<size_t>(rng_.below(4));
    for (size_t i = 0; i < flips; ++i) {
      data[rng_.below(data.size())] ^=
          static_cast<uint8_t>(1 + rng_.below(255));
    }
  }
}

bool FaultInjectingSource::next(SourcePacket& out) {
  // Packets change places by swapping, so each keeps its buffer: a reorder
  // delivers the following packet now and the held one on the next call.
  if (holding_) {
    std::swap(out, held_);
    holding_ = false;
    return true;
  }
  if (!inner_->next(out)) return false;
  inject(out);
  if (opts_.reorder_p > 0.0 && rng_.bernoulli(opts_.reorder_p) &&
      inner_->next(held_)) {
    inject(held_);
    std::swap(out, held_);
    holding_ = true;
  }
  return true;
}

bool FaultInjectingSource::reset() {
  if (!inner_->reset()) return false;
  rng_.reseed(opts_.seed);
  holding_ = false;
  return true;
}

LoopingSource::LoopingSource(PacketSource& inner, LoopOptions opts)
    : inner_(&inner), opts_(opts) {
  if (opts_.loops == 0) opts_.loops = 1;
  period_ = opts_.period;
}

bool LoopingSource::next(SourcePacket& out) {
  while (true) {
    if (inner_->next(out)) {
      if (loop_ == 0) {
        if (seen_ == 0) first_ts_ = out.pkt.ts;
        last_ts_ = out.pkt.ts;
        ++seen_;
      }
      out.pkt.ts += shift_;
      return true;
    }
    if (loop_ + 1 >= opts_.loops || !inner_->reset()) return false;
    if (loop_ == 0 && opts_.period <= 0.0) {
      // Derive the per-loop shift from the first pass: span plus the mean
      // inter-packet gap (a typical spacing into the next pass; 1 ms when
      // the pass had fewer than two packets).
      const double span = last_ts_ - first_ts_;
      const double mean_gap =
          seen_ >= 2 ? span / static_cast<double>(seen_ - 1) : 1e-3;
      period_ = span + (mean_gap > 0.0 ? mean_gap : 1e-3);
    }
    ++loop_;
    shift_ += period_;
  }
}

bool LoopingSource::reset() {
  if (!inner_->reset()) return false;
  loop_ = 0;
  shift_ = 0.0;
  period_ = opts_.period;
  seen_ = 0;
  return true;
}

}  // namespace lumen::netio
