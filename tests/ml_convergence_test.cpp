// Learning-theory sanity properties of the model zoo:
//  * CART trees are invariant to strictly monotone feature transforms;
//  * label-shuffled training yields chance-level AUC (no leakage anywhere);
//  * autoencoders converge on fixed inputs and freeze at zero learning rate;
//  * more epochs don't hurt training fit;
//  * class weighting handles heavy imbalance.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace lumen::ml {
namespace {

FeatureTable blobs(size_t n_per_class, size_t dims, double gap,
                   uint64_t seed) {
  std::vector<std::string> names;
  for (size_t d = 0; d < dims; ++d) {
    names.push_back(std::string("f").append(std::to_string(d)));
  }
  FeatureTable t = FeatureTable::make(2 * n_per_class, names);
  Rng rng(seed);
  for (size_t i = 0; i < t.rows; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    for (size_t d = 0; d < dims; ++d) {
      t.at(i, d) = rng.normal(label * gap, 1.0);
    }
    t.labels[i] = label;
  }
  return t;
}

/// x -> exp(x/3): strictly increasing, wildly non-linear.
FeatureTable monotone_transform(const FeatureTable& t) {
  FeatureTable u = t;
  for (double& v : u.data) v = std::exp(v / 3.0);
  return u;
}

TEST(TreeInvariance, MonotoneFeatureTransformPreservesPredictions) {
  const FeatureTable train = blobs(150, 3, 2.0, 101);
  const FeatureTable test = blobs(80, 3, 2.0, 102);
  DecisionTree a, b;
  a.fit(train);
  b.fit(monotone_transform(train));
  // Axis-aligned splits depend only on feature ORDER, so the transformed
  // tree must classify the transformed test set identically.
  EXPECT_EQ(a.predict(test), b.predict(monotone_transform(test)));
}

TEST(ForestInvariance, MonotoneFeatureTransformPreservesPredictions) {
  const FeatureTable train = blobs(120, 3, 2.0, 103);
  const FeatureTable test = blobs(60, 3, 2.0, 104);
  RandomForest a, b;  // same seed -> same bootstrap/feature draws
  a.fit(train);
  b.fit(monotone_transform(train));
  EXPECT_EQ(a.predict(test), b.predict(monotone_transform(test)));
}

TEST(NoLeakage, ShuffledLabelsGiveChanceAuc) {
  FeatureTable train = blobs(250, 4, 3.0, 105);
  Rng rng(106);
  rng.shuffle(train.labels);  // destroy the feature-label relationship
  const FeatureTable test = blobs(200, 4, 3.0, 107);
  RandomForest rf;
  rf.fit(train);
  // On FRESH data there is nothing to have learned: AUC ~ 0.5.
  EXPECT_NEAR(auc(test.labels, rf.score(test)), 0.5, 0.12);
}

TEST(AutoEncoderCore, ConvergesOnAFixedInput) {
  AutoEncoderCore ae(5, 0.75, 0.3, 7);
  const std::vector<double> x = {0.2, 0.9, 0.5, 0.1, 0.7};
  // Prime the normalizer range so the input isn't degenerate.
  const std::vector<double> lo(5, 0.0), hi(5, 1.0);
  ae.train_sample(lo);
  ae.train_sample(hi);
  for (int i = 0; i < 600; ++i) ae.train_sample(x);
  EXPECT_LT(ae.score_sample(x), 0.02);
}

TEST(AutoEncoderCore, ZeroLearningRateIsFrozen) {
  AutoEncoderCore ae(4, 0.75, 0.0, 9);
  Rng rng(11);
  std::vector<double> x(4);
  for (double& v : x) v = rng.uniform();
  ae.train_sample(x);  // initializes the normalizer
  const double before = ae.score_sample(x);
  for (int i = 0; i < 200; ++i) ae.train_sample(x);
  EXPECT_DOUBLE_EQ(ae.score_sample(x), before);
}

TEST(Mlp, MoreEpochsDoNotHurtTrainingFit) {
  const FeatureTable train = blobs(150, 3, 1.5, 113);
  MlpConfig few;
  few.epochs = 2;
  MlpConfig many;
  many.epochs = 40;
  Mlp a(few), b(many);
  a.fit(train);
  b.fit(train);
  const double f1_few = f1(confusion(train.labels, a.predict(train)));
  const double f1_many = f1(confusion(train.labels, b.predict(train)));
  EXPECT_GE(f1_many, f1_few - 0.05);
  EXPECT_GT(f1_many, 0.8);
}

TEST(LinearSvm, ClassWeightingHandlesImbalance) {
  // 95/5 imbalance: without class weighting the SVM would predict the
  // majority class; ours must still find the minority.
  FeatureTable t = FeatureTable::make(600, {"x", "y"});
  Rng rng(115);
  for (size_t i = 0; i < t.rows; ++i) {
    const bool rare = i >= 570;
    t.at(i, 0) = rng.normal(rare ? 4.0 : 0.0, 1.0);
    t.at(i, 1) = rng.normal(rare ? 4.0 : 0.0, 1.0);
    t.labels[i] = rare ? 1 : 0;
  }
  LinearSvm svm;
  svm.fit(t);
  const Confusion c = confusion(t.labels, svm.predict(t));
  EXPECT_GT(recall(c), 0.6);
  EXPECT_GT(precision(c), 0.5);
}

}  // namespace
}  // namespace lumen::ml
