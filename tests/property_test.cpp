// Property-based sweeps across module boundaries:
//  * every aggregate function against an independent naive reference over
//    randomized packet groups;
//  * parser robustness under random byte mutations of valid frames;
//  * JSON parser robustness on arbitrary byte strings;
//  * structural invariants of FeatureTable operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/json.h"
#include "core/ops_common.h"
#include "netio/builder.h"
#include "netio/parse.h"
#include "eval/benchmark.h"
#include "trace/sim.h"

namespace lumen {
namespace {

/// A small random (but deterministic) dataset for aggregate checks.
const trace::Dataset& random_traffic() {
  static const trace::Dataset ds = [] {
    trace::Sim sim(777);
    trace::BenignStyle st;
    sim.benign_iot_traffic(0.0, 40.0, 4, st);
    return sim.finish("PT", "property-test", trace::Granularity::kPacket);
  }();
  return ds;
}

/// The packet fields the aggregate property reads, read directly rather
/// than through the operators' field table.
double naive_field(const netio::PacketView& v, const std::string& field) {
  if (field == "len") return v.wire_len;
  if (field == "sport") return v.src_port;
  if (field == "ttl") return v.ttl;
  ADD_FAILURE() << "naive_field: no field " << field;
  return 0.0;
}

/// Naive reference for the aggregate accumulator, written independently.
double naive_agg(const trace::Dataset& ds, const std::vector<uint32_t>& idx,
                 const std::string& field, const std::string& func) {
  std::vector<double> xs;
  if (field == "iat") {
    for (size_t i = 1; i < idx.size(); ++i) {
      xs.push_back(ds.trace.view[idx[i]].ts - ds.trace.view[idx[i - 1]].ts);
    }
  } else {
    for (uint32_t p : idx) xs.push_back(naive_field(ds.trace.view[p], field));
  }
  const double dur =
      idx.size() >= 2
          ? ds.trace.view[idx.back()].ts - ds.trace.view[idx.front()].ts
          : 0.0;
  if (func == "count") return static_cast<double>(idx.size());
  if (func == "duration") return dur;
  if (func == "rate") {
    return dur > 1e-9 ? static_cast<double>(idx.size()) / dur : 0.0;
  }
  if (func == "bytes_rate") {
    double bytes = 0.0;
    for (uint32_t p : idx) bytes += ds.trace.view[p].wire_len;
    return dur > 1e-9 ? bytes / dur : 0.0;
  }
  if (xs.empty()) return 0.0;
  if (func == "sum") {
    double s = 0.0;
    for (double x : xs) s += x;
    return s;
  }
  if (func == "mean") {
    double s = 0.0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
  }
  if (func == "std") {
    double m = 0.0;
    for (double x : xs) m += x;
    m /= static_cast<double>(xs.size());
    double v = 0.0;
    for (double x : xs) v += (x - m) * (x - m);
    // RunningStats uses the sample variance (n-1).
    return xs.size() > 1 ? std::sqrt(v / static_cast<double>(xs.size() - 1))
                         : 0.0;
  }
  if (func == "min") return *std::min_element(xs.begin(), xs.end());
  if (func == "max") return *std::max_element(xs.begin(), xs.end());
  if (func == "range") {
    return *std::max_element(xs.begin(), xs.end()) -
           *std::min_element(xs.begin(), xs.end());
  }
  if (func == "first") return xs.front();
  if (func == "last") return xs.back();
  if (func == "median") {
    std::sort(xs.begin(), xs.end());
    const double rank = 0.5 * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] * (1.0 - (rank - lo)) + xs[hi] * (rank - lo);
  }
  if (func == "distinct") {
    return static_cast<double>(std::set<double>(xs.begin(), xs.end()).size());
  }
  if (func == "entropy") {
    std::map<double, double> counts;
    for (double x : xs) counts[x] += 1.0;
    double h = 0.0;
    for (auto& [k, n] : counts) {
      const double p = n / static_cast<double>(xs.size());
      h -= p * std::log2(p);
    }
    return h;
  }
  if (func == "change_rate") {
    size_t changes = 0;
    for (size_t i = 1; i < xs.size(); ++i) changes += xs[i] != xs[i - 1];
    return dur > 1e-9 ? static_cast<double>(changes) / dur
                      : static_cast<double>(changes);
  }
  ADD_FAILURE() << "reference missing for " << func;
  return 0.0;
}

class AggProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(AggProperty, MatchesNaiveReference) {
  const auto& [field, func] = GetParam();
  const trace::Dataset& ds = random_traffic();
  Rng rng(Rng::seed_from(field + func));
  for (int trial = 0; trial < 25; ++trial) {
    // Random contiguous-ish group of packets.
    const size_t n = 1 + rng.below(60);
    const size_t start = rng.below(ds.packets() - n);
    std::vector<uint32_t> idx;
    for (size_t i = 0; i < n; ++i) {
      idx.push_back(static_cast<uint32_t>(start + i));
    }
    auto plan = core::AggPlan::build({core::AggSpec{field, func}}, "test");
    ASSERT_TRUE(plan.ok()) << plan.error().message;
    core::AggAccumulator acc(plan.value());
    for (const uint32_t p : idx) acc.feed(ds.trace.view[p]);
    const double got = acc.finalize(0);
    const double want = naive_agg(ds, idx, field, func);
    ASSERT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want)))
        << field << "/" << func << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFuncs, AggProperty,
    ::testing::Combine(
        ::testing::Values("len", "iat", "sport", "ttl"),
        ::testing::Values("mean", "std", "min", "max", "median", "sum",
                          "count", "rate", "duration", "bytes_rate",
                          "distinct", "entropy", "first", "last", "range",
                          "change_rate")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(ParserFuzz, RandomMutationsNeverCrash) {
  // Take valid frames and flip random bytes/truncate; parsing must either
  // succeed or fail cleanly — never crash or read out of bounds (ASAN-
  // friendly by construction: ByteReader bounds-checks).
  const trace::Dataset& ds = random_traffic();
  Rng rng(4242);
  size_t parsed = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto& base = ds.trace.raw[rng.below(ds.packets())];
    netio::RawPacket pkt = base;
    // Mutate 1-8 random bytes.
    const size_t flips = 1 + rng.below(8);
    for (size_t f = 0; f < flips && !pkt.data.empty(); ++f) {
      pkt.data[rng.below(pkt.data.size())] =
          static_cast<uint8_t>(rng.below(256));
    }
    // Occasionally truncate.
    if (rng.bernoulli(0.3) && !pkt.data.empty()) {
      pkt.data.resize(rng.below(pkt.data.size()) + 1);
    }
    auto res = netio::parse_packet(pkt, netio::LinkType::kEthernet, 0);
    if (res.ok()) ++parsed; else ++rejected;
  }
  // Both outcomes occur; neither dominates absurdly.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 10u);
}

TEST(JsonFuzz, RandomStringsNeverCrash) {
  Rng rng(987);
  const char alphabet[] = "{}[]\",:'0123456789.eE+-truefalsnN \n\t#";
  for (int trial = 0; trial < 5000; ++trial) {
    std::string s;
    const size_t len = rng.below(64);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    auto r = core::Json::parse(s);
    if (r.ok()) {
      // Whatever parsed must dump and re-parse to the same canonical form.
      auto r2 = core::Json::parse(r.value().dump());
      ASSERT_TRUE(r2.ok()) << s;
      EXPECT_EQ(r.value().dump(), r2.value().dump());
    }
  }
}

TEST(TableProperty, SelectAllRowsIsIdentity) {
  features::FeatureTable t = features::FeatureTable::make(10, {"a", "b"});
  Rng rng(5);
  for (double& v : t.data) v = rng.uniform();
  for (size_t r = 0; r < t.rows; ++r) t.unit_time[r] = rng.uniform();
  std::vector<size_t> all(t.rows);
  for (size_t i = 0; i < t.rows; ++i) all[i] = i;
  const features::FeatureTable u = t.select_rows(all);
  EXPECT_EQ(u.data, t.data);
  EXPECT_EQ(u.unit_time, t.unit_time);
}

TEST(TableProperty, SplitIsAPartitionForAnyFraction) {
  features::FeatureTable t = features::FeatureTable::make(97, {"x"});
  Rng rng(6);
  for (size_t r = 0; r < t.rows; ++r) {
    t.at(r, 0) = rng.uniform();
    t.unit_time[r] = rng.uniform(0.0, 100.0);
    t.unit_id[r] = static_cast<int64_t>(r);
  }
  for (double frac : {0.0, 0.1, 0.33, 0.5, 0.77, 1.0}) {
    auto [train, test] = lumen::eval::Benchmark::split_by_time(t, frac);
    EXPECT_EQ(train.rows + test.rows, t.rows) << frac;
    std::set<int64_t> seen;
    for (int64_t id : train.unit_id) EXPECT_TRUE(seen.insert(id).second);
    for (int64_t id : test.unit_id) EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(seen.size(), t.rows);
  }
}

}  // namespace
}  // namespace lumen
