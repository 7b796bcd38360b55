// Online anomaly detection: the gateway-side runtime. Kitsune is an online
// system — it trains and detects packet by packet. OnlineKitsune wires the
// streaming feature extractor to an incrementally-trained KitNET:
//
//   OnlineKitsune det(train_packets);           // grace period
//   for each live packet p: if (det.process(p)) alert();
//
// The detector never sees the future: statistics, the feature map, the
// autoencoders, and the threshold all come from the stream prefix.
#pragma once

#include "common/result.h"
#include "core/kitsune_extractor.h"
#include "ml/compiled.h"
#include "ml/kitnet.h"

namespace lumen::core {

class OnlineKitsune {
 public:
  struct Options {
    std::vector<double> lambdas;     // empty = Kitsune defaults
    ml::KitNet::Config kitnet;       // ensemble configuration
    double threshold_quantile = 0.97;
    /// Contexts each extractor table keeps (0 = unbounded). A table past
    /// the cap evicts its lowest-weight contexts down to 3/4 of it (see
    /// KitsuneExtractor). The cap is per detector, so a sharded runtime
    /// bounds each shard's copy. The registry captures peak at 1551
    /// contexts per table, so 4096 never evicts there, while a
    /// spoofed-source flood stays at about 4.6 MB of context state.
    size_t max_contexts = 4096;
  };

  OnlineKitsune() : OnlineKitsune(Options{}) {}
  explicit OnlineKitsune(Options opts);

  /// Feed the (benign) training prefix, in capture order. Trains the
  /// feature map and the autoencoder ensemble, calibrates the threshold,
  /// and installs the detector's f64 plan as the scoring path. An empty
  /// prefix leaves no plan: every packet then scores 0.
  void train(std::span<const netio::PacketView> packets);

  bool trained() const { return trained_; }
  double threshold() const { return threshold_; }

  /// Process one live packet: updates the streaming statistics, scores the
  /// packet, and returns its anomaly score (RMSE of the output AE). Scores
  /// through the same plan as score_packets (a one-row block), so
  /// single-packet and micro-batched scoring are bit-identical.
  double score_packet(const netio::PacketView& v);

  /// Micro-batched hot path: extract each packet in capture order (the
  /// streaming statistics update sequentially, exactly as score_packet
  /// would), stage the feature rows into one contiguous block, and score
  /// it with a single Plan::score_rows call. out must hold packets.size()
  /// scores. Guarantee: splitting the same packet sequence into different
  /// batch sizes yields bit-identical scores (the Plan::score_rows
  /// contract), so alert sets do not depend on how the consumer chops the
  /// stream — pinned by stream_test's single-vs-micro-batch case.
  void score_packets(std::span<const netio::PacketView> packets, double* out);

  /// Convenience: score and compare against the calibrated threshold.
  bool process(const netio::PacketView& v) {
    return score_packet(v) > threshold_;
  }

  const KitsuneExtractor& extractor() const { return extractor_; }

  /// The trained detector (for benches that want to time the model alone).
  const ml::KitNet& detector() const { return detector_; }

  /// Check that train() installed a plan (the detector's f64 plan, the
  /// only one); the installed plan is left as it is. The plan is immutable
  /// and shared by copies of this detector. Errors before train() and after
  /// training on an empty prefix. The parameter has one value and is kept
  /// only for existing callers.
  Result<void> compile(
      ml::compiled::Precision precision = ml::compiled::Precision::kF64);

  /// The active scoring plan (null until trained on a non-empty prefix).
  const ml::compiled::PlanPtr& compiled_plan() const { return plan_; }

 private:
  Options opts_;
  KitsuneExtractor extractor_;
  ml::KitNet detector_;
  double threshold_ = 0.0;
  bool trained_ = false;
  std::vector<double> row_;
  std::vector<double> rows_block_;  // staged m x dim block for score_packets
  ml::compiled::PlanPtr plan_;          // null = scores 0
  ml::compiled::Scratch plan_scratch_;  // per-instance (copies get their own)
};

}  // namespace lumen::core
