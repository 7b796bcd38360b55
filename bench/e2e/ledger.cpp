#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace e2e {

void FrameLedger::reset(size_t frames, bool traced) {
  const size_t traced_n = traced ? frames : 0;
  release.assign(frames, 0);
  sent.assign(frames, 0);
  offered.assign(traced_n, 0);
  batch_start.assign(traced_n, 0);
  batch_end.assign(traced_n, 0);
  delivered.assign(frames, 0);
  score.assign(frames, 0.0);
  duplicates = 0;
}

SpanBuffer& SpanLog::buffer(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.emplace_back(capacity);
}

std::vector<SpanRec> SpanLog::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRec> out;
  for (const SpanBuffer& b : buffers_) {
    out.insert(out.end(), b.records().begin(), b.records().end());
  }
  return out;
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const SpanBuffer& b : buffers_) n += b.dropped();
  return n;
}

bool SpanLog::write(const std::string& path, int64_t epoch_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<SpanRec> spans = all();
  std::fprintf(f, "{\"time_unit\": \"ns\", \"dropped\": %llu, \"spans\": [",
               static_cast<unsigned long long>(dropped()));
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"id\": %llu, \"start\": %lld, "
                 "\"end\": %lld, \"parent\": %llu, \"rows\": %u}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start - epoch_ns),
                 static_cast<long long>(s.end - epoch_ns),
                 static_cast<unsigned long long>(s.parent), s.rows);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void LatencySink::on_packet(const netio::PacketView& view, double score,
                            bool /*alerted*/) {
  const int64_t t = now_ns();
  if (view.index >= ledger_.delivered.size() ||
      ledger_.delivered[view.index] != 0) {
    ++ledger_.duplicates;
    return;
  }
  ledger_.delivered[view.index] = t;
  ledger_.score[view.index] = score;
}

bool StampingSource::next(netio::SourcePacket& out) {
  if (!inner_.next(out)) return false;
  ledger_.release[out.capture_index] = now_ns();
  return true;
}

namespace {

class TracingFeed : public netio::FrameFeed {
 public:
  TracingFeed(netio::FrameFeed& inner, FrameLedger& ledger, SpanBuffer& buf,
              SpanLog& spans, FeedStats& stats)
      : inner_(inner), ledger_(ledger), buf_(buf), spans_(spans),
        stats_(stats) {}

  netio::FeedStatus offer(netio::SourcePacket& p) override {
    const uint32_t index = p.capture_index;  // p is moved from on success
    const int64_t t0 = now_ns();
    const netio::FeedStatus s = inner_.offer(p);
    const int64_t t1 = now_ns();
    stats_.offer_ns += t1 - t0;
    if ((s == netio::FeedStatus::kAccepted || s == netio::FeedStatus::kShed) &&
        index < ledger_.offered.size()) {
      ledger_.offered[index] = t0;
    }
    return s;
  }

  bool wait_ready() override {
    const int64_t t0 = now_ns();
    const bool ready = inner_.wait_ready();
    const int64_t t1 = now_ns();
    stats_.wait_ns += t1 - t0;
    buf_.add(SpanRec{"netio.wait_ready", spans_.next_id(), t0, t1, 0, 0});
    return ready;
  }

  void account_shed(uint64_t n) override { inner_.account_shed(n); }

 private:
  netio::FrameFeed& inner_;
  FrameLedger& ledger_;
  SpanBuffer& buf_;
  SpanLog& spans_;
  FeedStats& stats_;
};

double ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

lumen::Result<void> TracingDriver::drive(netio::FrameFeed& feed,
                                         const std::atomic<bool>& stop) {
  SpanBuffer& buf = spans_.buffer(1 << 14);
  TracingFeed traced(feed, ledger_, buf, spans_, stats_);
  const int64_t t0 = now_ns();
  lumen::Result<void> r = inner_.drive(traced, stop);
  const int64_t t1 = now_ns();
  drive_ns_ = t1 - t0;
  buf.add(SpanRec{"netio.drive", spans_.next_id(), t0, t1, 0, 0});
  return r;
}

TracingScorer::TracingScorer(std::unique_ptr<core::PacketScorer> inner,
                             FrameLedger& ledger, SpanLog& spans,
                             ScoreStats& stats)
    : inner_(std::move(inner)),
      ledger_(ledger),
      spans_(spans),
      buf_(spans.buffer(1 << 14)),
      stats_(stats) {}

double TracingScorer::score(const netio::PacketView& view) {
  double out = 0.0;
  score_batch({&view, 1}, &out);
  return out;
}

void TracingScorer::score_batch(std::span<const netio::PacketView> views,
                                double* out) {
  const int64_t t0 = now_ns();
  inner_->score_batch(views, out);
  const int64_t t1 = now_ns();
  for (const netio::PacketView& v : views) {
    if (v.index < ledger_.batch_start.size()) {
      ledger_.batch_start[v.index] = t0;
      ledger_.batch_end[v.index] = t1;
    }
  }
  buf_.add(SpanRec{"ml.score_batch", spans_.next_id(), t0, t1, 0,
                   static_cast<uint32_t>(views.size())});
  stats_.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  stats_.rows.fetch_add(views.size(), std::memory_order_relaxed);
}

LedgerSummary summarize_ledger(const FrameLedger& L) {
  LedgerSummary s;
  std::vector<double> lag;
  int64_t totals[5] = {0, 0, 0, 0, 0};  // the four parts, then the whole
  const bool traced = !L.offered.empty();
  for (size_t i = 0; i < L.delivered.size(); ++i) {
    if (L.delivered[i] == 0) continue;
    if (L.sent[i] != 0) lag.push_back(ms(L.sent[i] - L.release[i]));
    if (!traced) continue;
    const int64_t stamps[5] = {L.release[i], L.offered[i], L.batch_start[i],
                               L.batch_end[i], L.delivered[i]};
    if (std::find(std::begin(stamps), std::end(stamps), 0) !=
        std::end(stamps)) {
      ++s.incomplete;
      continue;
    }
    const int64_t total = stamps[4] - stamps[0];
    int64_t sum = 0;
    bool ordered = true;
    for (int k = 0; k < 4; ++k) {
      const int64_t part = stamps[k + 1] - stamps[k];
      ordered = ordered && part >= 0;
      sum += part;
    }
    // The parts telescope, so any disagreement beyond 1% means a stamp
    // landed on the wrong frame or out of causal order.
    const bool adds_up =
        std::llabs(sum - total) * 100 <= std::max<int64_t>(total, 1);
    if (!ordered || !adds_up) {
      ++s.out_of_order;
      continue;
    }
    ++s.frames;
    for (int k = 0; k < 4; ++k) totals[k] += stamps[k + 1] - stamps[k];
    totals[4] += total;
  }
  if (!lag.empty()) s.lag_p99_ms = quantile(lag, 0.99);
  if (s.frames != 0) {
    const auto mean_ms = [&](int k) {
      return ms(totals[k]) / static_cast<double>(s.frames);
    };
    s.ingress_ms = mean_ms(0);
    s.handoff_ms = mean_ms(1);
    s.score_ms = mean_ms(2);
    s.sink_ms = mean_ms(3);
    s.latency_ms = mean_ms(4);
  }
  return s;
}

void add_frame_spans(const FrameLedger& L, SpanLog& spans, size_t every) {
  if (L.offered.empty() || every == 0) return;
  SpanBuffer& buf = spans.buffer(6 * (L.delivered.size() / every + 1));
  for (size_t i = 0; i < L.delivered.size(); i += every) {
    if (L.delivered[i] == 0 || L.offered[i] == 0 || L.batch_start[i] == 0) {
      continue;
    }
    const uint64_t root = spans.next_id();
    buf.add(SpanRec{"frame", root, L.release[i], L.delivered[i], 0, 1});
    const uint64_t ingress = spans.next_id();
    buf.add(SpanRec{"netio.ingress", ingress, L.release[i], L.offered[i],
                    root, 1});
    if (L.sent[i] != 0) {
      buf.add(SpanRec{"gen.lag", spans.next_id(), L.release[i], L.sent[i],
                      ingress, 1});
    }
    buf.add(SpanRec{"ingest.handoff", spans.next_id(), L.offered[i],
                    L.batch_start[i], root, 1});
    buf.add(SpanRec{"ml.score_batch", spans.next_id(), L.batch_start[i],
                    L.batch_end[i], root, 1});
    buf.add(SpanRec{"ingest.sink", spans.next_id(), L.batch_end[i],
                    L.delivered[i], root, 1});
  }
}

}  // namespace e2e
