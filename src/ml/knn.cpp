#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "ml/dense.h"

namespace lumen::ml {

void Knn::fit(const FeatureTable& X) {
  if (X.rows <= cfg_.max_train_rows) {
    std::vector<size_t> all(X.rows);
    std::iota(all.begin(), all.end(), 0);
    train_ = X.select_rows(all);
  } else {
    // Deterministic subsample without replacement.
    std::vector<size_t> idx(X.rows);
    std::iota(idx.begin(), idx.end(), 0);
    Rng rng(cfg_.seed);
    rng.shuffle(idx);
    idx.resize(cfg_.max_train_rows);
    std::sort(idx.begin(), idx.end());
    train_ = X.select_rows(idx);
  }
  train_sqnorm_.resize(train_.rows);
  dense::row_sq_norms(train_.rows, train_.cols, train_.data.data(),
                      train_.cols, train_sqnorm_.data());
}

namespace {

/// The batched k-nearest scan over one block of m <= dense::kScoreBlock
/// query rows (stride ldx): select the k smallest (squared distance, label)
/// pairs over the training matrix and write the mean selected label to
/// out[i]. Distances come from dense::sq_dist_batch — `train_sqnorm`
/// passes the fit-time ||t||^2 vector straight through as its yn — and
/// selection uses the same pair comparison as score_perrow, so the chosen
/// neighbour multiset (hence the score) matches the reference scan's.
/// `dist` and `heap` are caller-owned scratch (the block distance matrix
/// and the current k best).
void knn_score_rows_batched(const double* x, size_t m, size_t ldx,
                            const double* train, size_t n_train, size_t cols,
                            const int* labels, const double* train_sqnorm,
                            size_t k, double* out, std::vector<double>& dist,
                            std::vector<std::pair<double, int>>& heap) {
  dist.resize(m * n_train);
  dense::sq_dist_batch(m, n_train, cols, x, ldx, train, cols,
                       /*xn=*/nullptr, train_sqnorm, dist.data(), n_train);
  for (size_t i = 0; i < m; ++i) {
    const double* di = dist.data() + i * n_train;
    // Max-heap of the k best (distance, label) pairs — the same pair
    // ordering score_perrow's partial_sort uses, label tie-breaks included,
    // so the selected multiset matches the reference scan.
    heap.clear();
    for (size_t t = 0; t < n_train; ++t) {
      const std::pair<double, int> p{di[t], labels[t]};
      if (heap.size() < k) {
        heap.push_back(p);
        std::push_heap(heap.begin(), heap.end());
      } else if (p < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = p;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    double pos = 0.0;
    for (const auto& p : heap) pos += p.second;
    out[i] = pos / static_cast<double>(k);
  }
}

}  // namespace

std::vector<double> Knn::score(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  // An unfitted model, or a table narrower than the training rows, scores
  // zeros; a wider table is read through its row stride.
  if (train_.rows == 0 || X.cols < train_.cols) return out;
  const size_t k = std::min(cfg_.k, train_.rows);
  const size_t nblocks =
      (X.rows + dense::kScoreBlock - 1) / dense::kScoreBlock;
  parallel_for(
      0, nblocks,
      [&](size_t blk) {
        const size_t lo = blk * dense::kScoreBlock;
        const size_t hi = std::min(X.rows, lo + dense::kScoreBlock);
        thread_local std::vector<double> dist;
        thread_local std::vector<std::pair<double, int>> heap;
        knn_score_rows_batched(X.data.data() + lo * X.cols, hi - lo, X.cols,
                               train_.data.data(), train_.rows, train_.cols,
                               train_.labels.data(), train_sqnorm_.data(), k,
                               out.data() + lo, dist, heap);
      },
      /*min_parallel=*/2);
  return out;
}

std::vector<double> Knn::score_perrow(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  if (train_.rows == 0) return out;
  const size_t k = std::min(cfg_.k, train_.rows);
  parallel_for(
      0, X.rows,
      [&](size_t r) {
        thread_local std::vector<std::pair<double, int>> dist;
        dist.resize(train_.rows);
        const auto x = X.row(r);
        for (size_t t = 0; t < train_.rows; ++t) {
          const auto y = train_.row(t);
          double d = 0.0;
          for (size_t j = 0; j < train_.cols; ++j) {
            const double diff = x[j] - y[j];
            d += diff * diff;
          }
          dist[t] = {d, train_.labels[t]};
        }
        std::partial_sort(dist.begin(),
                          dist.begin() + static_cast<std::ptrdiff_t>(k),
                          dist.end());
        double pos = 0.0;
        for (size_t i = 0; i < k; ++i) pos += dist[i].second;
        out[r] = pos / static_cast<double>(k);
      },
      /*min_parallel=*/16);
  return out;
}

}  // namespace lumen::ml
