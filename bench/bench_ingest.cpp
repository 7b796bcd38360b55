// Gateway ingestion micro-benchmark: the timing gates that neither ctest
// nor the end-to-end ledger (bench/e2e) measures. Each gate is a within-run
// ratio of two paths timed in interleaved pairs (gate_record.h) over the P1
// (Mirai) capture's streamed region repeated 8x, one trained OnlineKitsune
// copy per shard:
//
//   ingest.paced_4_vs_1       achieved rate, 4 shards / 1 shard, replay
//                             paced at 140k pkts/s
//   ingest.batch64_vs_batch1  KitsuneScorer::score_batch time, batches of 1
//                             / batches of 64
//   ingest.drain_4_vs_1       unpaced drain rate, 4 shards / 1 shard; only
//                             with >= 4 hardware threads
//   ingest.socket_vs_replay   drain rate over loopback TCP / in-process
//                             replay
//
// Informational: the paced alert count at 1, 2 and 4 shards, and
// accept-to-first-score latency over short connections. Correctness (alert
// identity across batch size, shard count, pacing and transport, fault
// and hot-swap accounting) is ctest's. The compiled KitNET plan is timed by
// bench_ml's ml.kitnet.batched_vs_perrow gate and the e2e ledger's
// ml.plan_ns_per_row. The last stdout line is the result record.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/stream.h"
#include "gate_record.h"
#include "netio/frontend.h"
#include "netio/source.h"

namespace {

using namespace lumen;
using e2e::Clock;
using e2e::seconds_since;

constexpr int kStreamRepeats = 8;
constexpr int kPacedPairs = 7;   // paced runs per shard count
constexpr int kDrainPairs = 15;  // unpaced runs per side
constexpr size_t kBatch = 64;
// Offered load of the paced pairs: 2.24x the 62.5k pkts/s the
// pre-refactor runtime managed with one consumer.
constexpr double kOfferedRate = 140000.0;

/// Drives `src` through a runtime with `opts` and returns its wall seconds.
/// The per-shard KitsuneScorer copies are built before the clock starts, so
/// more shards are not charged for more copies. Exits on a failed run.
template <typename Source>
double drain_seconds(const core::OnlineKitsune& proto, Source& src,
                     const core::IngestRuntime::Options& opts,
                     core::AlertSink* sink = nullptr,
                     core::IngestStats* stats_out = nullptr) {
  std::vector<std::unique_ptr<core::PacketScorer>> ready;
  for (size_t i = 0; i < opts.shards; ++i) {
    ready.push_back(std::make_unique<core::KitsuneScorer>(proto));
  }
  core::IngestRuntime rt(
      opts, [&ready](size_t i) { return std::move(ready[i]); }, sink);
  const Clock::time_point t0 = Clock::now();
  auto stats = rt.run(src);
  const double secs = seconds_since(t0);
  if (!stats.ok() || stats.value().scored == 0) {
    std::fprintf(stderr, "bench_ingest: run failed: %s\n",
                 stats.ok() ? "nothing scored"
                            : stats.error().message.c_str());
    std::exit(1);
  }
  if (stats_out != nullptr) *stats_out = stats.value();
  return secs;
}

/// Median accept-to-first-score latency (ms) over sequential short
/// connections, each carrying one slice of `big`: the clock runs from just
/// before connect() to the consumer scoring that connection's first packet.
double first_score_ms(const core::OnlineKitsune& proto,
                      const netio::Trace& big) {
  constexpr size_t kConns = 16;
  const size_t slice = big.view.size() / kConns;
  std::vector<Clock::time_point> connect_at(kConns), scored_at(kConns);
  class FirstScoreSink : public core::AlertSink {
   public:
    FirstScoreSink(size_t slice, std::vector<Clock::time_point>& at)
        : slice_(slice), at_(at) {}
    void on_alert(const core::Alert&) override {}
    void on_packet(const netio::PacketView& v, double, bool) override {
      if (v.index % slice_ == 0 && v.index / slice_ < at_.size()) {
        at_[v.index / slice_] = Clock::now();
      }
    }

   private:
    size_t slice_;
    std::vector<Clock::time_point>& at_;
  };
  netio::FrontendOptions fo;
  fo.link = big.link;
  fo.min_streams = kConns;
  telemetry::Registry fe_reg;
  fo.registry = &fe_reg;
  netio::GatewayFrontend fe(fo);
  if (!fe.bind().ok()) return 0.0;
  std::thread client([&] {
    for (size_t i = 0; i < kConns; ++i) {
      connect_at[i] = Clock::now();
      if (!netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), big, 0,
                                 i * slice, (i + 1) * slice)
               .ok()) {
        return;
      }
    }
  });
  FirstScoreSink sink(slice, scored_at);
  drain_seconds(proto, fe, core::IngestRuntime::Options{}, &sink);
  client.join();
  std::vector<double> ms;
  for (size_t i = 0; i < kConns; ++i) {
    ms.push_back(std::chrono::duration<double, std::milli>(scored_at[i] -
                                                           connect_at[i])
                     .count());
  }
  return e2e::median(std::move(ms));
}

}  // namespace

int main() {
  std::printf("bench_ingest: gateway ingestion timing gates\n\n");
  e2e::Outcome o;

  const trace::Dataset ds = trace::make_dataset("P1", 1.0);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  const netio::Trace big = bench::repeated_stream(ds, grace, kStreamRepeats);
  const size_t n = big.view.size();
  std::printf("stream: P1 streamed region x%d = %zu packets, %u hardware "
              "threads\n\n",
              kStreamRepeats, n, std::thread::hardware_concurrency());

  // Paced: every shard count should keep up with the offered line rate, so
  // adding shards must never cost sustained throughput.
  {
    netio::ReplayOptions paced;
    paced.pace = true;
    paced.speed = (big.raw.back().ts - big.raw.front().ts + 0.001) *
                  kOfferedRate / static_cast<double>(n);
    paced.max_sleep = 0.005;
    uint64_t alerts[5] = {};
    const auto achieved = [&](size_t shards) {
      netio::TraceReplaySource src(big, paced);
      core::IngestRuntime::Options opts;
      opts.shards = shards;
      opts.consumer_batch = 256;
      opts.queue_capacity = 8192;
      core::IngestStats st;
      const double secs = drain_seconds(proto, src, opts, nullptr, &st);
      alerts[shards] = st.alerted;
      return static_cast<double>(st.scored) / secs;
    };
    const double ratio = bench::paired_ratio(
        o, kPacedPairs, [&] { return achieved(4); },
        [&] { return achieved(1); });
    achieved(2);
    o.attempted += 1;
    o.add("ingest.paced_4_vs_1", ratio, "ratio");
    o.note("ingest.paced_alerts_1", static_cast<double>(alerts[1]), "count");
    o.note("ingest.paced_alerts_2", static_cast<double>(alerts[2]), "count");
    o.note("ingest.paced_alerts_4", static_cast<double>(alerts[4]), "count");
    std::printf("paced at %.0f pkts/s: 4 shards / 1 shard achieved %.4f; "
                "alerts at 1/2/4 shards %llu/%llu/%llu\n",
                kOfferedRate, ratio, static_cast<unsigned long long>(alerts[1]),
                static_cast<unsigned long long>(alerts[2]),
                static_cast<unsigned long long>(alerts[4]));
  }

  // Micro-batched scoring (what the consumer runs) against row-at-a-time:
  // two scorer copies walk the stream in step, each pair one 64-packet
  // chunk scored by one batch call on one copy and 64 single-packet calls
  // on the other.
  {
    core::KitsuneScorer batched(proto), single(proto);
    std::vector<double> out(kBatch, 0.0);
    size_t lo_single = 0, lo_batched = 0;
    const double ratio = bench::paired_ratio(
        o, static_cast<int>(n / kBatch),
        [&] {
          const Clock::time_point t0 = Clock::now();
          for (size_t i = lo_single; i < lo_single + kBatch; ++i) {
            single.score_batch({big.view.data() + i, 1}, out.data());
          }
          lo_single += kBatch;
          return seconds_since(t0);
        },
        [&] {
          const Clock::time_point t0 = Clock::now();
          batched.score_batch({big.view.data() + lo_batched, kBatch},
                              out.data());
          lo_batched += kBatch;
          return seconds_since(t0);
        });
    o.add("ingest.batch64_vs_batch1", ratio, "ratio");
    std::printf("score_batch: batch 1 / batch %zu time %.3f\n", kBatch, ratio);
  }

  // Unpaced drain: shard scaling needs cores to scale onto.
  if (std::thread::hardware_concurrency() >= 4) {
    const auto drain_rate = [&](size_t shards) {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      core::IngestRuntime::Options opts;
      opts.shards = shards;
      return static_cast<double>(n) / drain_seconds(proto, src, opts);
    };
    const double ratio = bench::paired_ratio(
        o, kDrainPairs, [&] { return drain_rate(4); },
        [&] { return drain_rate(1); });
    o.add("ingest.drain_4_vs_1", ratio, "ratio");
    std::printf("unpaced drain: 4 shards / 1 shard rate %.3f\n", ratio);
  } else {
    std::printf("ingest.drain_4_vs_1 skipped: %u hardware threads (< 4)\n",
                std::thread::hardware_concurrency());
  }

  // The same stream over loopback TCP through the gateway front-end: the
  // epoll loop, framing decode and loopback copies are the only extra work.
  {
    const auto socket_rate = [&] {
      netio::FrontendOptions fo;
      fo.link = big.link;
      telemetry::Registry fe_reg;
      fo.registry = &fe_reg;
      netio::GatewayFrontend fe(fo);
      if (!fe.bind().ok()) {
        std::fprintf(stderr, "bench_ingest: gateway bind failed\n");
        std::exit(1);
      }
      std::thread client([&] {
        (void)netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), big, 0);
      });
      const double secs =
          drain_seconds(proto, fe, core::IngestRuntime::Options{});
      client.join();
      return static_cast<double>(n) / secs;
    };
    const auto replay_rate = [&] {
      netio::TraceReplaySource src(big, netio::ReplayOptions{});
      return static_cast<double>(n) /
             drain_seconds(proto, src, core::IngestRuntime::Options{});
    };
    const double ratio =
        bench::paired_ratio(o, kDrainPairs, socket_rate, replay_rate);
    o.add("ingest.socket_vs_replay", ratio, "ratio");
    const double ms = first_score_ms(proto, big);
    o.attempted += 1;
    o.note("ingest.first_score_ms_p50", ms, "ms");
    std::printf("socket / replay drain rate %.3f; accept-to-first-score "
                "p50 %.2f ms\n\n",
                ratio, ms);
  }

  bench::print_record("bench_ingest", o);
  return 0;
}
