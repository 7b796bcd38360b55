// Streaming-path tests: the streaming extractor must agree exactly with the
// batch damped_stats operation, and the online detector must catch an
// attack that starts after its training prefix.
#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/stream.h"
#include "ml/metrics.h"
#include "trace/attacks.h"
#include "trace/registry.h"

namespace lumen::core {
namespace {

const trace::Dataset& p1() {
  static const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  return ds;
}

TEST(KitsuneExtractor, MatchesBatchOperationExactly) {
  // Batch path via the registry pipeline.
  auto feats = compute_features(*find_algorithm("A06"), p1());
  ASSERT_TRUE(feats.ok());
  const features::FeatureTable& batch = feats.value();

  // Streaming path, packet by packet.
  KitsuneExtractor extractor;
  ASSERT_EQ(extractor.dim(), batch.cols);
  EXPECT_EQ(extractor.feature_names(), batch.col_names);
  std::vector<double> row;
  for (size_t r = 0; r < batch.rows; ++r) {
    const auto& v = p1().trace.view[static_cast<size_t>(batch.unit_id[r])];
    extractor.process(v, row);
    for (size_t c = 0; c < batch.cols; ++c) {
      ASSERT_DOUBLE_EQ(row[c], batch.at(r, c))
          << "packet " << r << " feature " << batch.col_names[c];
    }
  }
}

TEST(KitsuneExtractor, TracksContextsAndResets) {
  KitsuneExtractor ex;
  EXPECT_EQ(ex.tracked_contexts(), 0u);
  std::vector<double> row;
  for (size_t i = 0; i < 50; ++i) {
    ex.process(p1().trace.view[i], row);
  }
  EXPECT_GT(ex.tracked_contexts(), 10u);
  ex.reset();
  EXPECT_EQ(ex.tracked_contexts(), 0u);
}

TEST(OnlineKitsune, UntrainedScoresZeroButKeepsState) {
  OnlineKitsune det;
  EXPECT_FALSE(det.trained());
  EXPECT_EQ(det.score_packet(p1().trace.view[0]), 0.0);
}

// train() installs the detector's plan, but an empty prefix fits nothing:
// the detector must still score 0 without throwing, and compile() must
// report the unfitted model instead of installing a plan.
TEST(OnlineKitsune, EmptyPrefixScoresZeroAndRefusesToCompile) {
  OnlineKitsune det;
  EXPECT_NO_THROW(det.train({}));
  EXPECT_TRUE(det.trained());
  EXPECT_EQ(det.compiled_plan(), nullptr);
  Result<void> compiled = det.compile();
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().message.find("not fitted"), std::string::npos)
      << compiled.error().message;
  EXPECT_EQ(det.compiled_plan(), nullptr);

  const std::vector<netio::PacketView>& v = p1().trace.view;
  EXPECT_EQ(det.score_packet(v[0]), 0.0);
  std::vector<double> out(8, -1.0);
  EXPECT_NO_THROW(det.score_packets({v.data() + 1, out.size()}, out.data()));
  EXPECT_EQ(out, std::vector<double>(out.size(), 0.0));
  EXPECT_FALSE(det.process(v[9]));
}

TEST(OnlineKitsune, DetectsPostTrainingAttackStream) {
  // A capture with a clean grace period: ~110s of benign camera traffic,
  // then two known devices turn into Mirai bots and flood (the canonical
  // Kitsune scenario — the infected devices' context statistics shift).
  trace::Sim sim(606060);
  trace::BenignStyle st;
  st.size_scale = 2.0;
  sim.benign_iot_traffic(0.0, 150.0, 5, st);
  const std::vector<uint32_t> bots = {sim.lan_ip(st, 0), sim.lan_ip(st, 1)};
  trace::attack_mirai_flood(sim, 110.0, 35.0, bots, sim.wan_ip(), 14.0);
  const trace::Dataset ds =
      sim.finish("ST", "stream-test", trace::Granularity::kPacket);

  // Train on the leading benign-only packets.
  std::vector<netio::PacketView> benign_prefix;
  for (const auto& v : ds.trace.view) {
    if (ds.pkt_label[v.index] != 0) break;  // stop at the first attack pkt
    benign_prefix.push_back(v);
  }
  ASSERT_GT(benign_prefix.size(), 300u);

  OnlineKitsune det;
  det.train(benign_prefix);
  ASSERT_TRUE(det.trained());
  EXPECT_GT(det.threshold(), 0.0);

  // Stream the remainder live and measure ranking quality.
  std::vector<int> y_true;
  std::vector<double> scores;
  for (size_t i = benign_prefix.size(); i < ds.trace.view.size(); ++i) {
    y_true.push_back(ds.pkt_label[i]);
    scores.push_back(det.score_packet(ds.trace.view[i]));
  }
  EXPECT_GT(ml::auc(y_true, scores), 0.8);
}

// Pin the online scoring contract: score_packet rides the same compiled
// plan as score_packets (a one-row block), so scoring packets one at a
// time, in micro-batches of 64, or in ragged chunks yields bit-identical
// scores (EXPECT_EQ on doubles — not merely near). This is what lets the
// ingestion runtime chop the stream into arbitrary batches without the
// alert set depending on the chop.
TEST(OnlineKitsune, SinglePacketMatchesMicroBatchedExactly) {
  const trace::Dataset& ds = p1();
  const size_t grace = ds.trace.view.size() * 45 / 100;
  ASSERT_GT(grace, 300u);
  const std::span<const netio::PacketView> prefix(ds.trace.view.data(),
                                                  grace);
  const std::span<const netio::PacketView> live(ds.trace.view.data() + grace,
                                                ds.trace.view.size() - grace);

  const auto run = [&](size_t chunk) {
    OnlineKitsune det;
    det.train(prefix);
    EXPECT_TRUE(det.trained());
    std::vector<double> scores(live.size(), 0.0);
    if (chunk == 1) {
      for (size_t i = 0; i < live.size(); ++i) {
        scores[i] = det.score_packet(live[i]);
      }
    } else {
      for (size_t lo = 0; lo < live.size(); lo += chunk) {
        const size_t n = std::min(chunk, live.size() - lo);
        det.score_packets(live.subspan(lo, n), scores.data() + lo);
      }
    }
    return scores;
  };

  const std::vector<double> one_by_one = run(1);
  const std::vector<double> batched = run(64);
  const std::vector<double> ragged = run(7);
  ASSERT_EQ(one_by_one.size(), batched.size());
  for (size_t i = 0; i < one_by_one.size(); ++i) {
    EXPECT_EQ(one_by_one[i], batched[i]) << "packet " << i;
    EXPECT_EQ(one_by_one[i], ragged[i]) << "packet " << i;
  }
}

}  // namespace
}  // namespace lumen::core
