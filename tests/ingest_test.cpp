// Ingestion runtime tests: packet sources (replay, pacing, fault
// injection), end-to-end runtime runs over one or more shards, per-tenant
// scoring isolation, and the paced-vs-unpaced determinism the gateway story
// depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "core/stream_op.h"
#include "netio/builder.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::CollectingSink;
using core::FnScorer;
using core::IngestRuntime;
using core::IngestStats;
using core::OverflowPolicy;
using netio::Bytes;
using netio::FaultInjectingSource;
using netio::FaultOptions;
using netio::MacAddr;
using netio::RawPacket;
using netio::ReplayOptions;
using netio::SourcePacket;
using netio::Trace;
using netio::TraceReplaySource;

const MacAddr kMacA{2, 0, 0, 0, 0, 1};
const MacAddr kMacB{2, 0, 0, 0, 0, 2};

// n valid TCP packets, 10 ms apart, payload size cycling 0..6, spread
// round-robin over `flows` source addresses (so over shards).
Trace make_trace(size_t n, uint32_t flows = 1) {
  Trace t;
  for (size_t i = 0; i < n; ++i) {
    netio::TcpOpts tcp;
    tcp.seq = static_cast<uint32_t>(i);
    const uint32_t src_ip =
        0x0a000001 + static_cast<uint32_t>(i % flows) * 0x100;
    t.raw.push_back(RawPacket{
        100.0 + 0.01 * static_cast<double>(i),
        netio::build_tcp(kMacA, kMacB, src_ip, 0x0a000002, 1234, 80, tcp,
                         Bytes(i % 7, 0x61))});
  }
  netio::parse_trace(t);
  return t;
}

TEST(Source, TraceReplayYieldsAllPacketsInOrder) {
  Trace t = make_trace(10);
  TraceReplaySource src(t);
  SourcePacket p;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(src.next(p));
    EXPECT_EQ(p.capture_index, i);
    EXPECT_EQ(p.pkt.data, t.raw[i].data);
  }
  EXPECT_FALSE(src.next(p));
  ASSERT_TRUE(src.reset());
  ASSERT_TRUE(src.next(p));
  EXPECT_EQ(p.capture_index, 0u);
}

TEST(Source, TraceReplayHonorsRange) {
  Trace t = make_trace(10);
  ReplayOptions opts;
  opts.begin = 4;
  opts.end = 7;
  TraceReplaySource src(t, opts);
  SourcePacket p;
  size_t n = 0;
  uint32_t first = 0;
  while (src.next(p)) {
    if (n == 0) first = p.capture_index;
    ++n;
  }
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(first, 4u);
}

TEST(Source, ReplayKeepsOriginalCaptureIndexAfterSkips) {
  Trace t = make_trace(5);
  // Wreck packet 2 so parse_trace drops it, then replay the compacted trace.
  t.raw[2].data.resize(6);
  ASSERT_EQ(netio::parse_trace(t), 1u);
  ASSERT_EQ(t.raw.size(), 4u);
  TraceReplaySource src(t);
  SourcePacket p;
  std::vector<uint32_t> seen;
  while (src.next(p)) seen.push_back(p.capture_index);
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 3, 4}));
}

TEST(Source, FaultInjectionIsDeterministicPerSeed) {
  Trace t = make_trace(200);
  FaultOptions faults;
  faults.truncate_p = 0.2;
  faults.corrupt_p = 0.2;
  faults.reorder_p = 0.1;
  faults.seed = 42;

  auto collect = [&] {
    TraceReplaySource inner(t);
    FaultInjectingSource src(inner, faults);
    std::vector<SourcePacket> out;
    SourcePacket p;
    while (src.next(p)) out.push_back(p);
    return out;
  };
  const auto a = collect();
  const auto b = collect();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), t.raw.size());  // reorder never loses packets
  size_t mutated = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].capture_index, b[i].capture_index);
    EXPECT_EQ(a[i].pkt.data, b[i].pkt.data);
    if (a[i].pkt.data != t.raw[a[i].capture_index].data) ++mutated;
  }
  EXPECT_GT(mutated, 0u);
}

TEST(Source, FaultSourceResetReplaysIdentically) {
  Trace t = make_trace(50);
  TraceReplaySource inner(t);
  FaultOptions faults;
  faults.truncate_p = 0.3;
  faults.seed = 7;
  FaultInjectingSource src(inner, faults);
  std::vector<Bytes> first;
  SourcePacket p;
  while (src.next(p)) first.push_back(p.pkt.data);
  ASSERT_TRUE(src.reset());
  size_t i = 0;
  while (src.next(p)) {
    ASSERT_LT(i, first.size());
    EXPECT_EQ(p.pkt.data, first[i++]);
  }
  EXPECT_EQ(i, first.size());
}

// A trivial deterministic scorer: alert on any payload-carrying packet.
core::ScorerFactory payload_scorer() {
  return [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.payload_len);
        },
        0.5);
  };
}

TEST(Runtime, ScoresEveryPacketAndCountsAlerts) {
  Trace t = make_trace(21);  // payload sizes cycle 0..6: 18 of 21 non-empty
  TraceReplaySource src(t);
  CollectingSink sink;
  IngestRuntime rt(IngestRuntime::Options{}, payload_scorer(), &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().enqueued, 21u);
  EXPECT_EQ(stats.value().scored, 21u);
  EXPECT_EQ(stats.value().parse_skipped, 0u);
  EXPECT_EQ(stats.value().dropped, 0u);
  EXPECT_EQ(stats.value().alerted, 18u);
  EXPECT_EQ(sink.alerts().size(), 18u);
  EXPECT_GE(stats.value().queue_high_water, 1u);
}

TEST(Runtime, MultiConsumerConservesPackets) {
  Trace t = make_trace(400, 8);
  for (size_t shards : {2u, 4u}) {
    TraceReplaySource src(t);
    IngestRuntime::Options opts;
    opts.shards = shards;
    CollectingSink sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    const IngestStats& s = stats.value();
    EXPECT_EQ(s.enqueued, 400u);
    EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued - s.dropped);
    // The scorer is stateless, so alerts are partition-independent.
    EXPECT_EQ(s.alerted, 400u * 6 / 7);
  }
}

TEST(Runtime, FaultySourceSkipsUnparseableKeepsRest) {
  Trace t = make_trace(300);
  TraceReplaySource inner(t);
  FaultOptions faults;
  faults.truncate_p = 0.3;
  faults.seed = 11;
  FaultInjectingSource src(inner, faults);
  CollectingSink sink;
  IngestRuntime rt(IngestRuntime::Options{}, payload_scorer(), &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.enqueued, 300u);
  EXPECT_GT(s.parse_skipped, 0u);
  EXPECT_EQ(s.scored + s.parse_skipped, 300u);
}

// Every scored packet of a run, in delivery order, and its alerts.
struct PacketRecord {
  uint32_t index = 0;
  double score = 0.0;
  bool alerted = false;
  bool operator==(const PacketRecord&) const = default;
};

class PacketRecorder : public core::AlertSink {
 public:
  void on_alert(const core::Alert& a) override { alerts.push_back(a); }
  void on_packet(const netio::PacketView& v, double score,
                 bool alerted) override {
    recs.push_back(PacketRecord{v.index, score, alerted});
  }
  std::vector<PacketRecord> recs;
  std::vector<core::Alert> alerts;
};

TEST(Runtime, PacedAndUnpacedReplayAlertIdentically) {
  Trace t = make_trace(150);
  auto run_with = [&](bool pace) {
    ReplayOptions opts;
    opts.pace = pace;
    opts.speed = 200.0;  // 10 ms gaps replay as 50 µs
    opts.max_sleep = 0.001;
    TraceReplaySource src(t, opts);
    CollectingSink sink;
    IngestRuntime rt(IngestRuntime::Options{}, payload_scorer(), &sink);
    auto stats = rt.run(src);
    EXPECT_TRUE(stats.ok());
    return sink.alerts().size();
  };
  EXPECT_EQ(run_with(false), run_with(true));

  // Full records from a trained KitsuneScorer on a P1 slice: pacing only
  // changes arrival timing, never a score or an alert flag.
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  auto records = [&](bool pace) {
    ReplayOptions opts;
    opts.begin = grace;
    opts.pace = pace;
    opts.speed = 2000.0;
    opts.max_sleep = 0.0005;
    TraceReplaySource src(ds.trace, opts);
    PacketRecorder sink;
    IngestRuntime rt(
        IngestRuntime::Options{},
        [&proto](size_t) {
          return std::make_unique<core::KitsuneScorer>(proto);
        },
        &sink);
    EXPECT_TRUE(rt.run(src).ok());
    EXPECT_EQ(sink.alerts.size(),
              static_cast<size_t>(std::count_if(
                  sink.recs.begin(), sink.recs.end(),
                  [](const PacketRecord& r) { return r.alerted; })));
    return sink.recs;
  };
  const std::vector<PacketRecord> unpaced = records(false);
  ASSERT_EQ(unpaced.size(), ds.trace.view.size() - grace);
  EXPECT_EQ(unpaced, records(true));
}

TEST(Runtime, KitsuneScorerDetectsOnTheStream) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});

  ReplayOptions replay;
  replay.begin = grace;
  TraceReplaySource src(ds.trace, replay);
  CollectingSink sink;
  IngestRuntime rt(
      IngestRuntime::Options{},
      [&proto](size_t) { return std::make_unique<core::KitsuneScorer>(proto); },
      &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().scored, ds.trace.view.size() - grace);
  // The detector must fire on the Mirai segment of the capture.
  EXPECT_GT(stats.value().alerted, 0u);
  for (const core::Alert& a : sink.alerts()) {
    EXPECT_GT(a.score, a.threshold);
    EXPECT_GE(a.capture_index, grace);
    EXPECT_LT(a.capture_index, ds.trace.view.size());
  }
}

// Replays a trace's frames from `begin`, tagging each with tag(capture
// index) — by default tenant 1 or 2 by a fixed rule. `only` != 0 keeps
// just that tenant's sub-stream. hold(at, resume) holds the frames from
// position `at` on until `resume` turns true: a fixed mid-stream point
// for a deploy.
uint32_t tenant_of(uint32_t capture_index) {
  return capture_index % 3 == 0 ? 2 : 1;
}

class TenantTaggingDriver : public netio::SourceDriver {
 public:
  TenantTaggingDriver(const Trace& t, size_t begin, uint32_t only,
                      std::function<uint32_t(uint32_t)> tag = tenant_of)
      : t_(t), begin_(begin), only_(only), tag_(std::move(tag)) {}
  void hold(size_t at, const std::atomic<bool>& resume) {
    hold_at_ = at;
    resume_ = &resume;
  }
  netio::LinkType link() const override { return t_.link; }
  Result<void> drive(netio::FrameFeed& feed,
                     const std::atomic<bool>& stop) override {
    for (size_t i = begin_; i < t_.raw.size() && !stop.load(); ++i) {
      while (i == hold_at_ && !resume_->load() && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      SourcePacket sp;
      sp.pkt = t_.raw[i];
      sp.capture_index = t_.view[i].index;
      sp.tenant = tag_(sp.capture_index);
      if (only_ != 0 && sp.tenant != only_) continue;
      for (;;) {
        const netio::FeedStatus st = feed.offer(sp);
        if (st == netio::FeedStatus::kAccepted ||
            st == netio::FeedStatus::kShed)
          break;
        if (st == netio::FeedStatus::kClosed || !feed.wait_ready()) return {};
      }
    }
    return {};
  }

 private:
  const Trace& t_;
  size_t begin_;
  uint32_t only_;
  std::function<uint32_t(uint32_t)> tag_;
  size_t hold_at_ = SIZE_MAX;
  const std::atomic<bool>* resume_ = nullptr;
};

// Two tenants interleaved in every claimed batch, each scored by its own
// stateful KitsuneScorer, must score exactly as if each tenant's traffic
// had been replayed alone: per-tenant partitions keep each scorer's
// packets in arrival order and its threshold its own.
TEST(Runtime, InterleavedTenantsMatchSoloRuns) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  // Distinct models per tenant, so a scorer or threshold mix-up shows.
  core::OnlineKitsune proto1, proto2;
  proto1.train({ds.trace.view.data(), grace});
  proto2.train({ds.trace.view.data(), grace * 2 / 3});
  ASSERT_NE(proto1.threshold(), proto2.threshold());

  const auto run = [&](uint32_t only) {
    IngestRuntime::Options opts;
    opts.registry = nullptr;
    PacketRecorder sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    EXPECT_TRUE(rt.register_tenant(1, [&proto1](size_t) {
      return std::make_unique<core::KitsuneScorer>(proto1);
    }));
    EXPECT_TRUE(rt.register_tenant(2, [&proto2](size_t) {
      return std::make_unique<core::KitsuneScorer>(proto2);
    }));
    TenantTaggingDriver driver(ds.trace, grace, only);
    EXPECT_TRUE(rt.run(driver).ok());
    return sink;
  };
  const PacketRecorder mixed = run(0);
  ASSERT_EQ(mixed.recs.size(), ds.trace.view.size() - grace);

  size_t total_alerts = 0;
  for (const uint32_t t : {1u, 2u}) {
    SCOPED_TRACE(t);
    const PacketRecorder solo = run(t);
    ASSERT_FALSE(solo.recs.empty());
    std::vector<PacketRecord> got;
    for (const PacketRecord& r : mixed.recs) {
      if (tenant_of(r.index) == t) got.push_back(r);
    }
    EXPECT_EQ(got, solo.recs);  // bit-identical scores, order and flags
    std::vector<core::Alert> got_alerts;
    for (const core::Alert& a : mixed.alerts) {
      EXPECT_EQ(a.tenant, tenant_of(a.capture_index));
      if (a.tenant == t) got_alerts.push_back(a);
    }
    ASSERT_EQ(got_alerts.size(), solo.alerts.size());
    for (size_t i = 0; i < got_alerts.size(); ++i) {
      EXPECT_EQ(got_alerts[i].capture_index, solo.alerts[i].capture_index);
      EXPECT_EQ(got_alerts[i].score, solo.alerts[i].score);
      EXPECT_EQ(got_alerts[i].threshold, solo.alerts[i].threshold);
    }
    total_alerts += solo.alerts.size();
  }
  // The comparison must not be vacuous: the Mirai segment fires.
  EXPECT_GT(total_alerts, 0u);
}

// Tenant ids come straight off the wire, so an unregistered id must not
// cost a scorer: every unregistered id scores through the default
// tenant's scorer on its shard, bit-identically to the same frames sent as
// tenant 0, while each alert keeps the packet's own id.
TEST(Runtime, UnregisteredTenantsShareTheDefaultScorer) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  const auto spoofed = [](uint32_t i) { return 1000 + i % 50; };

  const auto run = [&](std::function<uint32_t(uint32_t)> tag,
                       size_t* built) {
    IngestRuntime::Options opts;
    opts.shards = 2;
    opts.registry = nullptr;
    PacketRecorder sink;
    std::atomic<size_t> calls{0};
    IngestRuntime rt(
        opts,
        [&](size_t) {
          calls.fetch_add(1);
          return std::make_unique<core::KitsuneScorer>(proto);
        },
        &sink);
    TenantTaggingDriver driver(ds.trace, grace, 0, std::move(tag));
    EXPECT_TRUE(rt.run(driver).ok());
    *built = calls.load();
    // Two shards interleave delivery; capture indices are unique.
    const auto by_index = [](const auto& a, const auto& b) {
      return a.index < b.index;
    };
    std::sort(sink.recs.begin(), sink.recs.end(), by_index);
    std::sort(sink.alerts.begin(), sink.alerts.end(),
              [](const core::Alert& a, const core::Alert& b) {
                return a.capture_index < b.capture_index;
              });
    return sink;
  };
  size_t built_default = 0, built_spoofed = 0;
  const PacketRecorder want = run([](uint32_t) { return 0u; }, &built_default);
  const PacketRecorder got = run(spoofed, &built_spoofed);
  EXPECT_EQ(built_default, 2u);
  EXPECT_EQ(built_spoofed, 2u);  // once per shard, however many ids
  ASSERT_EQ(got.recs.size(), ds.trace.view.size() - grace);
  EXPECT_EQ(got.recs, want.recs);  // bit-identical scores and flags
  ASSERT_GT(want.alerts.size(), 0u);
  ASSERT_EQ(got.alerts.size(), want.alerts.size());
  for (size_t i = 0; i < got.alerts.size(); ++i) {
    EXPECT_EQ(got.alerts[i].capture_index, want.alerts[i].capture_index);
    EXPECT_EQ(got.alerts[i].score, want.alerts[i].score);
    EXPECT_EQ(got.alerts[i].tenant, spoofed(got.alerts[i].capture_index));
  }
}

/// Polls `counter` in `reg` until it reaches `n` (false after 10 s).
bool wait_for(telemetry::Registry& reg, const std::string& counter,
              uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reg.counter(counter).value() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A factory that returns null fails the run: before the stream starts as
// an Error naming the consumer, for scorer and pipeline factories alike,
// and after a mid-run deploy as an exception rethrown from run().
TEST(Runtime, NullFactoryFailsTheRun) {
  const Trace t = make_trace(200, 8);
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.registry = nullptr;
  {
    IngestRuntime rt(
        opts,
        [](size_t c) -> std::unique_ptr<core::PacketScorer> {
          return c == 1 ? nullptr : payload_scorer()(c);
        },
        nullptr);
    TraceReplaySource src(t);
    const auto r = rt.run(src);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("consumer 1"), std::string::npos)
        << r.error().message;
  }
  {
    IngestRuntime rt(
        opts,
        [](size_t) -> std::unique_ptr<core::StreamPipeline> { return nullptr; },
        nullptr);
    TraceReplaySource src(t);
    const auto r = rt.run(src);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("consumer 0"), std::string::npos)
        << r.error().message;
  }
  {
    telemetry::Registry reg;
    opts.registry = &reg;
    IngestRuntime rt(opts, payload_scorer(), nullptr);
    std::atomic<bool> resume{false};
    TenantTaggingDriver driver(t, 0, 0, [](uint32_t) { return 0u; });
    driver.hold(100, resume);
    std::thread runner(
        [&] { EXPECT_THROW((void)rt.run(driver), std::runtime_error); });
    const bool half_scored = wait_for(reg, "ingest.scored", 100);
    rt.deploy([](size_t) -> std::unique_ptr<core::PacketScorer> {
      return nullptr;
    });
    resume = true;
    runner.join();
    EXPECT_TRUE(half_scored);
  }
}

/// Every scorer instance a factory built (in build order) and its score
/// and finish() calls, in one global order.
class Lifelog {
 public:
  struct Owner {
    size_t consumer = 0;
    uint32_t tenant = 0;
  };
  size_t born(size_t consumer, uint32_t tenant) {
    std::lock_guard<std::mutex> lock(mu_);
    owners.push_back(Owner{consumer, tenant});
    return owners.size() - 1;
  }
  void log(size_t instance, char what) {
    std::lock_guard<std::mutex> lock(mu_);
    events.emplace_back(instance, what);
  }
  core::ScorerFactory factory(uint32_t tenant);

  std::vector<Owner> owners;                    // by instance id
  std::vector<std::pair<size_t, char>> events;  // 's'core or 'f'inish

 private:
  std::mutex mu_;
};

class LoggingScorer : public core::PacketScorer {
 public:
  LoggingScorer(Lifelog& log, size_t consumer, uint32_t tenant)
      : log_(log), id_(log.born(consumer, tenant)) {}
  double score(const netio::PacketView&) override {
    log_.log(id_, 's');
    return 0.0;
  }
  double threshold() const override { return 1.0; }
  void finish() override { log_.log(id_, 'f'); }

 private:
  Lifelog& log_;
  size_t id_;
};

core::ScorerFactory Lifelog::factory(uint32_t tenant) {
  return [this, tenant](size_t consumer) {
    return std::make_unique<LoggingScorer>(*this, consumer, tenant);
  };
}

// The finish() contract: the consumer finish()es every scorer it retires
// exactly once — at end of stream, or on a hot swap before the
// replacement scores its first packet — for the default tenant and for a
// registered tenant swapped alone with deploy(tenant, ...).
TEST(Runtime, RetiredScorersFinishOnceBeforeTheirReplacement) {
  const Trace t = make_trace(400, 8);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.consumer_batch = 16;
  opts.registry = &reg;
  Lifelog life;
  IngestRuntime rt(opts, life.factory(0), nullptr);
  ASSERT_TRUE(rt.register_tenant(1, life.factory(1)));
  ASSERT_TRUE(rt.register_tenant(2, life.factory(2)));
  std::atomic<bool> resume{false};
  TenantTaggingDriver driver(t, 0, 0, [](uint32_t i) { return i % 3; });
  driver.hold(200, resume);
  std::thread runner([&] { EXPECT_TRUE(rt.run(driver).ok()); });
  const bool half_scored = wait_for(reg, "ingest.scored", 200);
  EXPECT_TRUE(rt.deploy(1, life.factory(1)));
  rt.deploy(life.factory(0));
  resume = true;
  runner.join();
  ASSERT_TRUE(half_scored);

  // Both deploys landed, and tenant 2 was never rebuilt.
  EXPECT_GE(reg.counter("ingest.tenant1.swaps_applied").value(), 1u);
  EXPECT_GT(reg.counter("ingest.swaps_applied").value(),
            reg.counter("ingest.tenant1.swaps_applied").value());
  EXPECT_EQ(reg.counter("ingest.tenant2.swaps_applied").value(), 0u);

  const size_t n = life.owners.size();
  std::vector<size_t> finishes(n, 0);
  std::vector<size_t> first_score(n, SIZE_MAX), finish_at(n, SIZE_MAX);
  for (size_t k = 0; k < life.events.size(); ++k) {
    const auto [who, what] = life.events[k];
    if (what == 'f') {
      ++finishes[who];
      finish_at[who] = k;
    } else {
      EXPECT_EQ(finishes[who], 0u) << "instance " << who << " scored after "
                                   << "finish()";
      first_score[who] = std::min(first_score[who], k);
    }
  }
  // Instances of one (consumer, tenant) context, in build order.
  std::map<std::pair<size_t, uint32_t>, std::vector<size_t>> lineage;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(finishes[i], 1u) << "instance " << i;
    lineage[{life.owners[i].consumer, life.owners[i].tenant}].push_back(i);
  }
  size_t replacements = 0;
  for (const auto& [ctx, line] : lineage) {
    for (size_t j = 1; j < line.size(); ++j) {
      EXPECT_LT(finish_at[line[j - 1]], first_score[line[j]])
          << "consumer " << ctx.first << " tenant " << ctx.second;
      ++replacements;
    }
  }
  EXPECT_EQ(replacements, reg.counter("ingest.swaps_applied").value());
}

TEST(Runtime, RequestStopWindsDownGracefully) {
  Trace t = make_trace(5000);
  TraceReplaySource src(t);
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.queue_capacity = 8;
  IngestRuntime rt(opts, payload_scorer(), nullptr);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt.request_stop();
  });
  auto stats = rt.run(src);
  stopper.join();
  ASSERT_TRUE(stats.ok());
  // Everything accepted was accounted for, even though we stopped early.
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued - s.dropped);
}

// The exact alert set must not depend on the batching knob: batch size
// only changes hand-off amortization, never which packets alert.
TEST(Runtime, BatchedAlertFlushPreservesAlertSet) {
  Trace t = make_trace(300);

  // Ground truth: score the parsed views directly, packet at a time.
  std::vector<uint32_t> expected;
  for (const auto& v : t.view) {
    if (v.payload_len > 0.5) expected.push_back(v.index);
  }

  for (size_t batch : {1u, 7u, 64u, 1024u}) {
    TraceReplaySource src(t);
    IngestRuntime::Options opts;
    opts.consumer_batch = batch;
    CollectingSink sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    std::vector<uint32_t> got;
    for (const core::Alert& a : sink.alerts()) got.push_back(a.capture_index);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "consumer_batch=" << batch;
    EXPECT_EQ(stats.value().alerted, expected.size());
    EXPECT_EQ(stats.value().scored, 300u);
  }
}

TEST(Runtime, MultiConsumerBatchedFlushConservesAlerts) {
  Trace t = make_trace(500, 8);
  size_t expected_alerts = 0;
  for (const auto& v : t.view) expected_alerts += v.payload_len > 0 ? 1 : 0;
  for (size_t shards : {2u, 4u}) {
    TraceReplaySource src(t);
    IngestRuntime::Options opts;
    opts.shards = shards;
    opts.consumer_batch = 16;
    CollectingSink sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().scored, 500u);
    EXPECT_EQ(sink.alerts().size(), stats.value().alerted);
    EXPECT_EQ(stats.value().alerted, expected_alerts);
  }
}

// The IngestStats façade must read back exactly what the registry holds:
// same run, same numbers, whether consumed through stats() or a Snapshot.
TEST(Runtime, StatsRoundTripThroughTelemetrySnapshot) {
  Trace t = make_trace(210, 8);
  TraceReplaySource src(t);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.consumer_batch = 16;
  opts.registry = &reg;
  opts.instrument_prefix = "t.";
  CollectingSink sink;
  IngestRuntime rt(opts, payload_scorer(), &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.enqueued, 210u);
  EXPECT_EQ(s.scored, 210u);

  const telemetry::Snapshot snap = rt.registry().snapshot();
  EXPECT_EQ(snap.counter_value("t.enqueued"), s.enqueued);
  EXPECT_EQ(snap.counter_value("t.dropped"), s.dropped);
  EXPECT_EQ(snap.counter_value("t.parse_skipped"), s.parse_skipped);
  EXPECT_EQ(snap.counter_value("t.scored"), s.scored);
  EXPECT_EQ(snap.counter_value("t.alerted"), s.alerted);
  EXPECT_EQ(static_cast<size_t>(snap.gauge_value("t.queue.high_water")),
            s.queue_high_water);
  // Per-stage latency histograms saw the run (one sample per batch).
  for (const char* name :
       {"t.stage.parse_ns", "t.stage.score_ns", "t.stage.flush_ns"}) {
    const telemetry::HistogramSample* h = snap.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
}

// Consecutive runs on one runtime must each report per-run numbers even
// though the underlying registry counters are cumulative.
TEST(Runtime, StatsAreDeltasPerRun) {
  Trace t = make_trace(140);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.registry = &reg;
  IngestRuntime rt(opts, payload_scorer(), nullptr);
  for (int run = 0; run < 2; ++run) {
    TraceReplaySource src(t);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().enqueued, 140u);
    EXPECT_EQ(stats.value().scored, 140u);
  }
  // The registry itself is cumulative across both runs.
  EXPECT_EQ(reg.snapshot().counter_value("ingest.scored"), 280u);
}

// Regression: back-to-back runs against one shared registry used to leak
// the previous run's queue.high_water gauge (and with it the stats façade's
// queue numbers) into the next run, because gauges — unlike counters — are
// absolute and were never re-zeroed between runs. Force drops in every run
// (a slow consumer behind a tiny ring) and check each run's accounting
// closes on its own numbers.
TEST(Runtime, TwoRunsOneRegistryKeepDropAccountingExact) {
  Trace t = make_trace(160);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.queue_capacity = 4;
  opts.overflow = OverflowPolicy::kDropNewest;
  opts.registry = &reg;
  opts.instrument_prefix = "shared.";
  auto slow = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView&) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return 0.0;
        },
        1.0);
  };

  // Same runtime, reused; then a second runtime on the same registry and
  // prefix (the "fleet of gateways sharing one exporter" shape).
  uint64_t total_enqueued = 0, total_dropped = 0, total_scored = 0,
           total_skipped = 0;
  IngestStats last{};
  IngestRuntime reused(opts, slow, nullptr);
  for (int run = 0; run < 2; ++run) {
    TraceReplaySource src(t);
    auto stats = reused.run(src);
    ASSERT_TRUE(stats.ok());
    const IngestStats& s = stats.value();
    EXPECT_EQ(s.enqueued, 160u) << "run " << run;
    EXPECT_EQ(s.scored + s.parse_skipped + s.dropped, s.enqueued)
        << "run " << run;
    EXPECT_GT(s.dropped, 0u) << "run " << run;  // the tiny ring overflowed
    EXPECT_LE(s.queue_high_water, 4u) << "run " << run;
    total_enqueued += s.enqueued;
    total_dropped += s.dropped;
    total_scored += s.scored;
    total_skipped += s.parse_skipped;
    last = s;
  }
  {
    IngestRuntime second(opts, slow, nullptr);
    TraceReplaySource src(t);
    auto stats = second.run(src);
    ASSERT_TRUE(stats.ok());
    const IngestStats& s = stats.value();
    EXPECT_EQ(s.scored + s.parse_skipped + s.dropped, s.enqueued);
    EXPECT_GT(s.dropped, 0u);
    total_enqueued += s.enqueued;
    total_dropped += s.dropped;
    total_scored += s.scored;
    total_skipped += s.parse_skipped;
    last = s;
  }

  // The shared registry accumulated across all three runs; the gauge is
  // absolute and must reflect only the LAST run (the regression fixed).
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("shared.enqueued"), total_enqueued);
  EXPECT_EQ(snap.counter_value("shared.dropped"), total_dropped);
  EXPECT_EQ(snap.counter_value("shared.scored"), total_scored);
  EXPECT_EQ(snap.counter_value("shared.parse_skipped"), total_skipped);
  EXPECT_EQ(static_cast<size_t>(snap.gauge_value("shared.queue.high_water")),
            last.queue_high_water);
}

TEST(Runtime, ConsumerExceptionPropagatesToCaller) {
  Trace t = make_trace(50);
  TraceReplaySource src(t);
  auto throwing = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView&) -> double {
          throw std::runtime_error("scorer blew up");
        },
        1.0);
  };
  IngestRuntime rt(IngestRuntime::Options{}, throwing, nullptr);
  EXPECT_THROW((void)rt.run(src), std::runtime_error);
}

}  // namespace
}  // namespace lumen
