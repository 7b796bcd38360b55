#include "core/stream.h"

namespace lumen::core {

OnlineKitsune::OnlineKitsune(Options opts)
    : opts_(std::move(opts)), extractor_(opts_.lambdas, opts_.max_contexts) {
  ml::KitNet::Config cfg = opts_.kitnet;
  cfg.quantile = opts_.threshold_quantile;
  detector_ = ml::KitNet(cfg);
}

void OnlineKitsune::train(std::span<const netio::PacketView> packets) {
  // Extract the training prefix's features with the SAME extractor state
  // that will keep running at detection time — the statistics roll straight
  // from training into detection, as in the original system.
  features::FeatureTable table =
      features::FeatureTable::make(packets.size(), extractor_.feature_names());
  for (size_t r = 0; r < packets.size(); ++r) {
    extractor_.process(packets[r], row_);
    std::copy(row_.begin(), row_.end(),
              table.data.begin() + static_cast<std::ptrdiff_t>(r * table.cols));
    table.unit_time[r] = packets[r].ts;
  }
  // All training rows are treated as benign (the grace-period assumption).
  detector_.fit(table);
  threshold_ = detector_.threshold();
  plan_ = detector_.plan();
  trained_ = true;
}

Result<void> OnlineKitsune::compile(ml::compiled::Precision) {
  if (!trained_) {
    return Error::make("OnlineKitsune", "compile() requires a trained detector");
  }
  if (plan_ == nullptr) {
    return Error::make("OnlineKitsune",
                       "KitNet is not fitted (empty training prefix)");
  }
  return {};
}

double OnlineKitsune::score_packet(const netio::PacketView& v) {
  extractor_.process(v, row_);
  // A one-row block through the same plan score_packets uses, so a packet
  // scores bit-identically whether it arrives alone or in a micro-batch.
  double out = 0.0;
  if (plan_ != nullptr) {
    plan_->score_rows(row_.data(), 1, extractor_.dim(), &out, plan_scratch_);
  }
  return out;
}

void OnlineKitsune::score_packets(std::span<const netio::PacketView> packets,
                                  double* out) {
  const size_t m = packets.size();
  if (m == 0) return;
  // Stage: extraction is inherently sequential (every packet mutates the
  // streaming statistics), so run it row by row into a contiguous block.
  // The staging stride rounds the feature width up to the dense-kernel
  // vector block (8 doubles = one cache line), so every staged row starts
  // cache-line aligned relative to the block base no matter the batch size
  // — mid-size batches used to land rows on odd 16-byte offsets and score
  // measurably slower than both neighbours in the batch-size sweep.
  // score_rows takes an explicit row stride, so scores are unchanged.
  const size_t dim = extractor_.dim();
  const size_t ld = (dim + 7) & ~size_t{7};
  rows_block_.resize(m * ld);
  for (size_t i = 0; i < m; ++i) {
    extractor_.process(packets[i], row_);
    std::copy(row_.begin(), row_.end(),
              rows_block_.begin() + static_cast<std::ptrdiff_t>(i * ld));
  }
  if (plan_ == nullptr) {
    std::fill(out, out + m, 0.0);
    return;
  }
  plan_->score_rows(rows_block_.data(), m, ld, out, plan_scratch_);
}

}  // namespace lumen::core
