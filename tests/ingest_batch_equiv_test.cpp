// Golden equivalence for the micro-batched online scoring path: across the
// P1-P4 captures, fault-injected replays, and every consumer_batch size
// (which bounds each PacketScorer::score_batch call), the micro-batched
// consumer must produce bit-identical scores and alert sets to the
// row-at-a-time baseline (consumer_batch = 1). This is the contract that
// makes Options::consumer_batch a pure throughput knob — see
// OnlineKitsune::score_packets and compiled::Plan::score_rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/stream.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::CollectingSink;
using core::IngestRuntime;
using core::KitsuneScorer;
using core::OnlineKitsune;
using netio::FaultInjectingSource;
using netio::FaultOptions;
using netio::ReplayOptions;
using netio::TraceReplaySource;

/// Records every scored packet (capture index, score) and every alert, in
/// delivery order. With one consumer, delivery order is consumption order.
class RecordingSink : public core::AlertSink {
 public:
  void on_alert(const core::Alert& alert) override {
    alerts.push_back(alert.capture_index);
  }
  void on_packet(const netio::PacketView& view, double score,
                 bool /*alerted*/) override {
    packets.emplace_back(view.index, score);
  }

  std::vector<uint32_t> alerts;
  std::vector<std::pair<uint32_t, double>> packets;
};

struct RunResult {
  std::vector<uint32_t> alerts;
  std::vector<std::pair<uint32_t, double>> packets;
};

/// One single-consumer run over `source`, scoring with a fresh copy of the
/// pre-trained detector, with the given claim (and micro-batch) size.
RunResult run_once(const OnlineKitsune& proto, netio::PacketSource& source,
                   size_t consumer_batch) {
  IngestRuntime::Options opts;
  opts.consumer_batch = consumer_batch;
  RecordingSink sink;
  IngestRuntime rt(
      opts,
      [&proto](size_t) { return std::make_unique<KitsuneScorer>(proto); },
      &sink);
  auto stats = rt.run(source);
  EXPECT_TRUE(stats.ok());
  RunResult r;
  r.alerts = std::move(sink.alerts);
  r.packets = std::move(sink.packets);
  std::sort(r.alerts.begin(), r.alerts.end());
  return r;
}

void expect_bit_identical(const RunResult& got, const RunResult& baseline,
                          const char* what) {
  ASSERT_EQ(got.packets.size(), baseline.packets.size()) << what;
  for (size_t i = 0; i < got.packets.size(); ++i) {
    EXPECT_EQ(got.packets[i].first, baseline.packets[i].first)
        << what << " packet order, i=" << i;
    // Bit-identical, not merely close: EXPECT_EQ on the doubles.
    EXPECT_EQ(got.packets[i].second, baseline.packets[i].second)
        << what << " score, capture_index=" << got.packets[i].first;
  }
  EXPECT_EQ(got.alerts, baseline.alerts) << what;
}

const size_t kConsumerBatches[] = {1, 8, 16, 32, 64};

TEST(MicroBatchEquivalence, BitIdenticalAcrossCaptures) {
  size_t total_alerts = 0;
  for (const char* id : {"P1", "P2", "P3", "P4"}) {
    const trace::Dataset ds = trace::make_dataset(id, 0.05);
    const size_t grace = ds.trace.view.size() * 45 / 100;
    ASSERT_GT(grace, 0u) << id;
    OnlineKitsune proto;
    proto.train({ds.trace.view.data(), grace});

    ReplayOptions replay;
    replay.begin = grace;
    // Row-at-a-time baseline: one-packet claims, one-row score batches.
    TraceReplaySource base_src(ds.trace, replay);
    const RunResult baseline = run_once(proto, base_src, 1);
    ASSERT_FALSE(baseline.packets.empty()) << id;
    total_alerts += baseline.alerts.size();

    for (size_t cb : kConsumerBatches) {
      TraceReplaySource src(ds.trace, replay);
      const RunResult got = run_once(proto, src, cb);
      expect_bit_identical(got, baseline,
                           (std::string(id) + " consumer_batch=" +
                            std::to_string(cb))
                               .c_str());
    }
  }
  // The comparison must not be vacuous: the attack segments fire somewhere.
  EXPECT_GT(total_alerts, 0u);
}

TEST(MicroBatchEquivalence, BitIdenticalUnderFaultInjection) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.05);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});

  FaultOptions faults;
  faults.truncate_p = 0.15;
  faults.corrupt_p = 0.1;
  faults.reorder_p = 0.05;
  faults.seed = 29;
  ReplayOptions replay;
  replay.begin = grace;

  // Fault injection is deterministic per seed, so rebuilding the source
  // replays the identical (mutated) packet sequence for every run.
  auto run_faulty = [&](size_t consumer_batch) {
    TraceReplaySource inner(ds.trace, replay);
    FaultInjectingSource src(inner, faults);
    return run_once(proto, src, consumer_batch);
  };
  const RunResult baseline = run_faulty(1);
  ASSERT_FALSE(baseline.packets.empty());
  for (size_t cb : kConsumerBatches) {
    const RunResult got = run_faulty(cb);
    expect_bit_identical(
        got, baseline,
        ("faulty consumer_batch=" + std::to_string(cb)).c_str());
  }
}

// The primitive underneath the runtime contract: score_packets over one
// packet sequence must give bit-identical scores no matter how the
// sequence is split into calls.
TEST(MicroBatchEquivalence, ScorePacketsSplitInvariant) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.05);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  const std::span<const netio::PacketView> live{
      ds.trace.view.data() + grace, ds.trace.view.size() - grace};
  ASSERT_FALSE(live.empty());

  OnlineKitsune whole = proto;
  std::vector<double> whole_scores(live.size(), -1.0);
  whole.score_packets(live, whole_scores.data());

  for (size_t chunk : {size_t{1}, size_t{17}, size_t{64}}) {
    OnlineKitsune split = proto;  // fresh extractor state per chunking
    std::vector<double> split_scores(live.size(), -2.0);
    for (size_t lo = 0; lo < live.size(); lo += chunk) {
      const size_t n = std::min(chunk, live.size() - lo);
      split.score_packets(live.subspan(lo, n), split_scores.data() + lo);
    }
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(whole_scores[i], split_scores[i])
          << "chunk=" << chunk << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace lumen
