// Supervised model tests: each classifier must separate well-separated
// Gaussian blobs; trees respect structural limits; the parameterized suite
// sweeps every supervised model over several blob geometries.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "ml/automl.h"
#include "ml/bayes.h"
#include "ml/ensemble.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace lumen::ml {
namespace {

/// Two Gaussian blobs in `dims` dimensions separated by `gap` stddevs.
FeatureTable blobs(size_t n_per_class, size_t dims, double gap,
                   uint64_t seed) {
  std::vector<std::string> names;
  for (size_t d = 0; d < dims; ++d) {
    names.push_back(std::string("f").append(std::to_string(d)));
  }
  FeatureTable t = FeatureTable::make(2 * n_per_class, names);
  Rng rng(seed);
  for (size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    for (size_t d = 0; d < dims; ++d) {
      t.at(i, d) = rng.normal(label == 0 ? 0.0 : gap, 1.0);
    }
    t.labels[i] = label;
    t.unit_id[i] = static_cast<int64_t>(i);
    t.unit_time[i] = static_cast<double>(i);
  }
  return t;
}

double train_test_f1(Model& m, double gap, size_t dims, uint64_t seed) {
  const FeatureTable train = blobs(150, dims, gap, seed);
  const FeatureTable test = blobs(80, dims, gap, seed + 1);
  m.fit(train);
  return f1(confusion(test.labels, m.predict(test)));
}

struct ModelCase {
  std::string name;
  std::function<ModelPtr()> make;
};

class SupervisedBlobs
    : public ::testing::TestWithParam<std::tuple<ModelCase, double>> {};

TEST_P(SupervisedBlobs, SeparatesBlobs) {
  const auto& [mc, gap] = GetParam();
  ModelPtr m = mc.make();
  const double score = train_test_f1(*m, gap, 4, 77);
  // Wide gap -> near perfect; moderate gap -> clearly better than chance.
  EXPECT_GT(score, gap >= 4.0 ? 0.95 : 0.75) << mc.name << " gap=" << gap;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, SupervisedBlobs,
    ::testing::Combine(
        ::testing::Values(
            ModelCase{"tree", [] { return std::make_shared<DecisionTree>(); }},
            ModelCase{"forest", [] { return std::make_shared<RandomForest>(); }},
            ModelCase{"nb", [] { return std::make_shared<GaussianNB>(); }},
            ModelCase{"knn", [] { return std::make_shared<Knn>(); }},
            ModelCase{"svm", [] { return std::make_shared<LinearSvm>(); }},
            ModelCase{"logreg",
                      [] { return std::make_shared<LogisticRegression>(); }},
            ModelCase{"mlp",
                      [] {
                        MlpConfig cfg;
                        cfg.hidden = {16};
                        cfg.epochs = 40;
                        return std::make_shared<Mlp>(cfg);
                      }}),
        ::testing::Values(2.5, 4.0)),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_gap" +
             (std::get<1>(info.param) >= 4.0 ? "wide" : "narrow");
    });

TEST(DecisionTree, RespectsMaxDepth) {
  TreeConfig cfg;
  cfg.max_depth = 3;
  DecisionTree t(cfg);
  t.fit(blobs(200, 6, 1.0, 5));
  EXPECT_LE(t.depth(), 3);
  EXPECT_GT(t.node_count(), 1u);
}

TEST(DecisionTree, PureNodeIsLeaf) {
  FeatureTable t = blobs(50, 2, 3.0, 6);
  for (int& l : t.labels) l = 0;  // all one class
  DecisionTree tree;
  tree.fit(t);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 0);
}

TEST(DecisionTree, DeterministicForFixedSeed) {
  const FeatureTable data = blobs(100, 4, 2.0, 9);
  DecisionTree a, b;
  a.fit(data);
  b.fit(data);
  const FeatureTable test = blobs(50, 4, 2.0, 10);
  EXPECT_EQ(a.predict(test), b.predict(test));
}

TEST(RandomForest, HasConfiguredTreeCount) {
  ForestConfig cfg;
  cfg.n_trees = 7;
  RandomForest rf(cfg);
  rf.fit(blobs(60, 3, 2.0, 11));
  EXPECT_EQ(rf.tree_count(), 7u);
}

TEST(RandomForest, ScoresAreProbabilities) {
  RandomForest rf;
  const FeatureTable data = blobs(100, 3, 2.0, 13);
  rf.fit(data);
  for (double s : rf.score(data)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(GaussianNB, SingleClassTrainingDoesNotCrash) {
  FeatureTable t = blobs(30, 2, 1.0, 15);
  for (int& l : t.labels) l = 0;
  GaussianNB nb;
  nb.fit(t);
  const std::vector<int> pred = nb.predict(t);
  for (int p : pred) EXPECT_EQ(p, 0);
}

TEST(Knn, CapsTrainingRows) {
  KnnConfig cfg;
  cfg.k = 3;
  cfg.max_train_rows = 50;
  Knn knn(cfg);
  // Must still classify well after the reservoir cap.
  EXPECT_GT(train_test_f1(knn, 4.0, 3, 17), 0.9);
}

TEST(VotingEnsemble, MajorityBeatsWorstMember) {
  std::vector<ModelPtr> members = {
      std::make_shared<RandomForest>(),
      std::make_shared<GaussianNB>(),
      std::make_shared<DecisionTree>(),
  };
  VotingEnsemble ens(members);
  EXPECT_GT(train_test_f1(ens, 3.0, 4, 19), 0.85);
  EXPECT_EQ(ens.member_count(), 3u);
}

TEST(AutoMl, PicksAWinnerAndRefits) {
  AutoMl am;
  const double score = train_test_f1(am, 4.0, 4, 21);
  EXPECT_GT(score, 0.9);
  EXPECT_NE(am.winner(), "none");
  EXPECT_GE(am.winner_validation_f1(), 0.0);
}

TEST(AutoMl, TinyTrainingSetFallsBack) {
  AutoMl am;
  const FeatureTable tiny = blobs(3, 2, 4.0, 23);
  am.fit(tiny);  // < 8 rows: trains the first candidate without validation
  EXPECT_EQ(am.predict(tiny).size(), tiny.rows);
}

}  // namespace
}  // namespace lumen::ml
