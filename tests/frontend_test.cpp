// Gateway front-end tests: loopback TCP/UDP ingestion must score
// bit-identically to local trace replay (one shard and several), the
// malformed-frame corpus must be rejected with exact protocol-error
// accounting while later good streams keep working, slow clients must be
// evicted by the low-and-slow defense, per-tenant deploy() must swap
// exactly one tenant's scorer, backpressure must be lossless on the TCP
// path, kDropNewest must shed incoming frames and keep admitted ones, and
// the event loop must leak no file descriptors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "netio/builder.h"
#include "netio/event_loop.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::Alert;
using core::FnScorer;
using core::IngestRuntime;
using core::OverflowPolicy;
using netio::FrontendOptions;
using netio::GatewayFrontend;
using netio::SourcePacket;
using netio::Trace;
using netio::TraceReplaySource;
using netio::WireFormat;

// ---------------------------------------------------------------------------
// Helpers

struct ScoreRecord {
  uint32_t index = 0;
  double score = 0.0;
  bool alerted = false;
  bool operator==(const ScoreRecord&) const = default;
};

class Recorder : public core::AlertSink {
 public:
  void on_alert(const Alert& a) override { alerts.push_back(a); }
  void on_packet(const netio::PacketView& v, double s, bool a) override {
    recs.push_back(ScoreRecord{v.index, s, a});
  }
  std::vector<ScoreRecord> recs;
  std::vector<Alert> alerts;
};

// Deterministic scorer with per-instance streaming state (a mod-7 phase
// counter): identical scores require identical per-consumer packet order,
// which is exactly what the socket-vs-replay identity claim is about.
core::ScorerFactory stateful_factory(double threshold) {
  return [threshold](size_t) {
    auto phase = std::make_shared<uint64_t>(0);
    return std::make_unique<FnScorer>(
        [phase](const netio::PacketView& v) {
          const double k = static_cast<double>((*phase)++ % 7);
          return static_cast<double>(v.index % 97) + 0.01 * k;
        },
        threshold);
  };
}

// Stateless variant for UDP, where loopback delivery order is not
// contractual: scores depend only on the packet, so records can be
// compared after sorting by capture index.
core::ScorerFactory stateless_factory(double threshold) {
  return [threshold](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.index % 97);
        },
        threshold);
  };
}

void sort_by_index(std::vector<ScoreRecord>& recs) {
  std::sort(recs.begin(), recs.end(),
            [](const ScoreRecord& a, const ScoreRecord& b) {
              return a.index < b.index;
            });
}

std::vector<uint32_t> alert_indices(const std::vector<Alert>& alerts) {
  std::vector<uint32_t> idx;
  idx.reserve(alerts.size());
  for (const Alert& a : alerts) idx.push_back(a.capture_index);
  std::sort(idx.begin(), idx.end());
  return idx;
}

// Replay-path reference run (the pre-redesign pull pipeline).
Recorder replay_run(const Trace& trace, size_t shards,
                    core::ScorerFactory factory) {
  netio::TraceReplaySource src(trace, {});
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.shards = shards;
  Recorder sink;
  IngestRuntime rt(o, std::move(factory), &sink);
  auto st = rt.run(src);
  EXPECT_TRUE(st.ok());
  return sink;
}

// Socket-path run: gateway on an ephemeral loopback port, one client
// thread replaying the trace over TCP.
Recorder socket_run(const Trace& trace, size_t shards,
                    core::ScorerFactory factory, telemetry::Registry* fe_reg) {
  FrontendOptions fo;
  fo.link = trace.link;
  fo.registry = fe_reg;
  telemetry::Registry local;
  if (fo.registry == nullptr) fo.registry = &local;
  GatewayFrontend fe(fo);
  auto bound = fe.bind();
  EXPECT_TRUE(bound.ok());
  std::thread client([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), trace, 0);
    EXPECT_TRUE(sent.ok());
  });
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.shards = shards;
  Recorder sink;
  IngestRuntime rt(o, std::move(factory), &sink);
  auto st = rt.run(fe);
  client.join();
  EXPECT_TRUE(st.ok());
  return sink;
}

// Raw loopback client for the malformed-frame corpus and the slow-client
// test (send_trace_tcp only speaks the valid protocol).
int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_raw(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

// n synthetic TCP packets, 10 ms apart, alternating between two flows so
// sharded runs exercise more than one shard.
Trace make_trace(size_t n) {
  const netio::MacAddr mac_a{2, 0, 0, 0, 0, 1};
  const netio::MacAddr mac_b{2, 0, 0, 0, 0, 2};
  Trace t;
  for (size_t i = 0; i < n; ++i) {
    netio::TcpOpts tcp;
    tcp.seq = static_cast<uint32_t>(i);
    const uint16_t sport = i % 2 == 0 ? 1234 : 4321;
    t.raw.push_back(netio::RawPacket{
        100.0 + 0.01 * static_cast<double>(i),
        netio::build_tcp(mac_a, mac_b, 0x0a000001, 0x0a000002, sport, 80, tcp,
                         netio::Bytes(i % 7, 0x61))});
  }
  netio::parse_trace(t);
  return t;
}

size_t count_open_fds() {
  size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

// ---------------------------------------------------------------------------
// Identity: socket ingest must reproduce local replay bit for bit.

TEST(FrontendIdentity, TcpMatchesReplayOnBenchmarkCaptures) {
  for (const char* id : {"P1", "P2", "P3", "P4"}) {
    SCOPED_TRACE(id);
    const trace::Dataset ds = trace::make_dataset(id, 0.2);
    const Recorder ref = replay_run(ds.trace, 1, stateful_factory(50.0));
    const Recorder got = socket_run(ds.trace, 1, stateful_factory(50.0),
                                    nullptr);
    ASSERT_EQ(ref.recs.size(), got.recs.size());
    EXPECT_EQ(ref.recs, got.recs);  // scores, order, and alert flags
    EXPECT_EQ(alert_indices(ref.alerts), alert_indices(got.alerts));
  }
}

TEST(FrontendIdentity, TcpMatchesReplaySharded) {
  for (const char* id : {"P1", "P4"}) {
    SCOPED_TRACE(id);
    const trace::Dataset ds = trace::make_dataset(id, 0.2);
    Recorder ref = replay_run(ds.trace, 2, stateful_factory(50.0));
    Recorder got = socket_run(ds.trace, 2, stateful_factory(50.0), nullptr);
    ASSERT_EQ(ref.recs.size(), got.recs.size());
    // Two consumers interleave sink delivery; the per-packet scores are
    // still deterministic because the flow partition (and therefore each
    // consumer's packet order) is identical in both runs.
    sort_by_index(ref.recs);
    sort_by_index(got.recs);
    EXPECT_EQ(ref.recs, got.recs);
    EXPECT_EQ(alert_indices(ref.alerts), alert_indices(got.alerts));
  }
}

TEST(FrontendIdentity, UdpMatchesReplay) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.2);
  Recorder ref = replay_run(ds.trace, 1, stateless_factory(50.0));

  FrontendOptions fo;
  fo.link = ds.trace.link;
  fo.tcp = false;
  fo.udp = true;
  fo.udp_rcvbuf = 8 << 20;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    // Paced sender + large receive buffer: loopback UDP must not shed.
    auto sent = netio::send_trace_udp("127.0.0.1", fe.udp_port(), ds.trace, 0,
                                      0, SIZE_MAX, /*pace_every=*/64,
                                      /*pace_us=*/500);
    EXPECT_TRUE(sent.ok());
  });
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 1 << 16;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(50.0), &sink);
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  ASSERT_EQ(ref.recs.size(), sink.recs.size());
  sort_by_index(ref.recs);
  sort_by_index(sink.recs);
  EXPECT_EQ(ref.recs, sink.recs);
  EXPECT_EQ(alert_indices(ref.alerts), alert_indices(sink.alerts));
  EXPECT_EQ(0u, reg.snapshot().counter_value("frontend.shed"));
}

// ---------------------------------------------------------------------------
// Malformed-frame corpus

TEST(FrontendProtocol, MalformedStreamsRejectedGoodStreamSurvives) {
  const Trace trace = make_trace(3);
  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 1;  // the one good stream
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::thread client([&] {
    // 1. Bad magic in the hello.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> bad(WireFormat::kHelloBytes, 0xEE);
      send_raw(fd, bad);
      ::close(fd);
    }
    // 2. Oversized frame: incl_len beyond max_frame_bytes.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> buf;
      netio::append_hello(buf, 0, trace.link);
      netio::append_record(buf, trace.raw[0], 0);
      // Patch incl_len (record offset 20) to a huge value.
      const size_t rec = WireFormat::kHelloBytes;
      buf[rec + 20] = 0xFF;
      buf[rec + 21] = 0xFF;
      buf[rec + 22] = 0xFF;
      buf[rec + 23] = 0x0F;
      send_raw(fd, buf);
      ::close(fd);
    }
    // 3. Mid-record disconnect: valid hello, then half a record header.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> buf;
      netio::append_hello(buf, 0, trace.link);
      std::vector<uint8_t> rec;
      netio::append_record(rec, trace.raw[0], 0);
      buf.insert(buf.end(), rec.begin(), rec.begin() + 9);  // truncated
      send_raw(fd, buf);
      ::close(fd);
    }
    // 4. A good stream afterwards must still ingest cleanly. Give the
    // gateway a beat to process the malformed connections first so the
    // drain goal (1 good stream) cannot outrun their accepts.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto sent = netio::send_trace_tcp("127.0.0.1", port, trace, 0);
    EXPECT_TRUE(sent.ok());
  });

  IngestRuntime::Options o;
  o.registry = nullptr;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  EXPECT_EQ(trace.raw.size(), sink.recs.size());
  EXPECT_EQ(3u, reg.snapshot().counter_value("frontend.protocol_errors"));
  // The façade invariant must span the socket path.
  const core::IngestStats stats = rt.stats();
  EXPECT_EQ(stats.enqueued - stats.dropped, stats.scored + stats.parse_skipped);

  size_t protocol_closes = 0;
  for (const netio::ConnReport& r : fe.connections()) {
    if (r.close_reason == netio::CloseReason::kProtocolError)
      ++protocol_closes;
  }
  EXPECT_EQ(3u, protocol_closes);
}

// A frame record whose timestamp is not finite and in [0, 2^32) s is a
// protocol error at decode, like a bad record kind: the TCP stream that
// carries it aborts, a datagram that carries it is counted and dropped, and
// a good stream afterwards still ingests every frame.
TEST(FrontendProtocol, BadRecordTimestampsRejected) {
  const Trace trace = make_trace(3);
  const double bad_ts[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0,
                           1e300};
  const auto hello_and_record = [&](double ts) {
    std::vector<uint8_t> buf;
    netio::append_hello(buf, 0, trace.link);
    netio::RawPacket pkt = trace.raw[0];
    pkt.ts = ts;
    netio::append_record(buf, pkt, 0);
    return buf;
  };
  for (const bool udp : {false, true}) {
    SCOPED_TRACE(udp ? "udp" : "tcp");
    FrontendOptions fo;
    fo.link = trace.link;
    fo.tcp = !udp;
    fo.udp = udp;
    fo.min_streams = 1;  // the one good stream
    telemetry::Registry reg;
    fo.registry = &reg;
    GatewayFrontend fe(fo);
    ASSERT_TRUE(fe.bind().ok());

    std::thread client([&] {
      for (const double ts : bad_ts) {
        const std::vector<uint8_t> buf = hello_and_record(ts);
        if (udp) {
          const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
          ASSERT_GE(fd, 0);
          sockaddr_in sa{};
          sa.sin_family = AF_INET;
          sa.sin_port = htons(fe.udp_port());
          ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
          EXPECT_EQ(::sendto(fd, buf.data(), buf.size(), 0,
                             reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
                    static_cast<ssize_t>(buf.size()));
          ::close(fd);
        } else {
          const int fd = connect_loopback(fe.tcp_port());
          ASSERT_GE(fd, 0);
          send_raw(fd, buf);
          ::close(fd);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      auto sent = udp ? netio::send_trace_udp("127.0.0.1", fe.udp_port(),
                                              trace, 0)
                      : netio::send_trace_tcp("127.0.0.1", fe.tcp_port(),
                                              trace, 0);
      EXPECT_TRUE(sent.ok());
    });

    IngestRuntime::Options o;
    o.registry = nullptr;
    Recorder sink;
    IngestRuntime rt(o, stateless_factory(1e9), &sink);
    auto st = rt.run(fe);
    client.join();
    ASSERT_TRUE(st.ok());

    ASSERT_EQ(trace.raw.size(), sink.recs.size());
    sort_by_index(sink.recs);  // loopback UDP order is not contractual
    for (size_t i = 0; i < sink.recs.size(); ++i) {
      EXPECT_EQ(sink.recs[i].index, trace.view[i].index);
    }
    EXPECT_EQ(4u, reg.snapshot().counter_value("frontend.protocol_errors"));
  }
}

// A record longer than the event loop's per-connection buffer could never
// complete, so max_frame_bytes is clamped to the largest frame whose record
// fits: a frame of exactly that size is delivered, and a header announcing
// one byte more closes its connection as one protocol error before any
// frame bytes arrive.
TEST(FrontendProtocol, MaxFrameBytesFitsTheConnectionBuffer) {
  const size_t cap =
      netio::EventLoop::kMaxConnBuffer - WireFormat::kRecordBytes;
  FrontendOptions big;
  big.max_frame_bytes = size_t{4} << 20;
  std::string diag;
  EXPECT_EQ(FrontendOptions::normalized(big, &diag).max_frame_bytes, cap);
  EXPECT_NE(diag.find("max_frame_bytes"), std::string::npos) << diag;

  const Trace trace = make_trace(3);
  netio::RawPacket at_cap = trace.raw[0];
  at_cap.data.resize(cap, 0);  // zero trailer after the packet
  netio::RawPacket over = at_cap;
  over.data.resize(cap + 1, 0);

  FrontendOptions fo = big;
  fo.link = trace.link;
  fo.min_streams = 1;  // the good stream
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::thread client([&] {
    // Hello and the oversized record's header only: the gateway must close
    // the connection without waiting for the frame.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> buf;
      netio::append_hello(buf, 0, trace.link);
      netio::append_record(buf, over, 0);
      buf.resize(WireFormat::kHelloBytes + WireFormat::kRecordBytes);
      ASSERT_TRUE(send_raw(fd, buf));
      timeval tv{5, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      uint8_t byte = 0;
      EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
      EXPECT_NE(errno, EAGAIN) << "the gateway waited for the frame";
      ::close(fd);
    }
    // The good stream: the frame at the cap, then the trace, then a FIN.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf;
    netio::append_hello(buf, 0, trace.link);
    netio::append_record(buf, at_cap, 0);
    for (size_t i = 0; i < trace.raw.size(); ++i) {
      netio::append_record(buf, trace.raw[i], static_cast<uint32_t>(i + 1));
    }
    netio::append_fin(buf);
    EXPECT_TRUE(send_raw(fd, buf));
    ::close(fd);
  });

  IngestRuntime::Options o;
  o.registry = nullptr;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(1u, snap.counter_value("frontend.protocol_errors"));
  EXPECT_EQ(trace.raw.size() + 1, snap.counter_value("frontend.frames"));
  const std::vector<netio::ConnReport> conns = fe.connections();
  ASSERT_EQ(2u, conns.size());
  EXPECT_EQ(netio::CloseReason::kProtocolError, conns[0].close_reason);
  EXPECT_EQ(0u, conns[0].frames);
  EXPECT_EQ(0u, conns[0].bytes);
  EXPECT_EQ(trace.raw.size() + 1, conns[1].frames);
  EXPECT_TRUE(conns[1].fin);
  uint64_t trace_bytes = 0;
  for (const netio::RawPacket& p : trace.raw) trace_bytes += p.data.size();
  EXPECT_EQ(cap + trace_bytes, conns[1].bytes);
  const core::IngestStats stats = rt.stats();
  EXPECT_EQ(trace.raw.size() + 1, stats.enqueued);
}

// ---------------------------------------------------------------------------
// Slow-client defense

TEST(FrontendTimeout, SlowClientEvicted) {
  const Trace trace = make_trace(4);
  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 1;
  fo.loop.idle_timeout = 0.5;
  fo.loop.min_bytes_per_sec = 64 * 1024;  // far above a dribbling client
  fo.loop.rate_window = 0.2;
  fo.drain_grace = 5.0;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    const int fd = connect_loopback(port);
    if (fd < 0) {
      slow_done = true;
      return;
    }
    std::vector<uint8_t> hello;
    netio::append_hello(hello, 0, trace.link);
    send_raw(fd, hello);
    // Dribble one byte every 80 ms: alive, but far below the rate floor.
    const uint8_t byte = 0;
    for (int i = 0; i < 40; ++i) {
      if (::send(fd, &byte, 1, MSG_NOSIGNAL) <= 0) break;  // evicted
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    ::close(fd);
    slow_done = true;
  });
  std::thread good([&] {
    // Give the slow client a head start so its eviction happens mid-run.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto sent = netio::send_trace_tcp("127.0.0.1", port, trace, 0);
    EXPECT_TRUE(sent.ok());
  });

  IngestRuntime::Options o;
  o.registry = nullptr;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  auto st = rt.run(fe);
  good.join();
  slow.join();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(slow_done.load());
  EXPECT_EQ(trace.raw.size(), sink.recs.size());

  const telemetry::Snapshot snap = reg.snapshot();
  const uint64_t evicted = snap.counter_value("frontend.conn.slow_closed") +
                           snap.counter_value("frontend.conn.idle_closed");
  EXPECT_GE(evicted, 1u);
  bool saw_eviction = false;
  for (const netio::ConnReport& r : fe.connections()) {
    if (r.close_reason == netio::CloseReason::kSlowClient ||
        r.close_reason == netio::CloseReason::kIdleTimeout)
      saw_eviction = true;
  }
  EXPECT_TRUE(saw_eviction);
}

// ---------------------------------------------------------------------------
// Per-tenant routing and hot swap

TEST(FrontendTenants, DeploySwapsExactlyOneTenant) {
  const Trace trace = make_trace(60);
  const size_t half = trace.raw.size() / 2;

  telemetry::Registry rt_reg;
  IngestRuntime::Options o;
  o.registry = &rt_reg;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  const auto never_alerts = stateless_factory(1e9);
  // Post-swap factory: every packet alerts.
  const auto always_alerts = stateless_factory(-1.0);
  ASSERT_TRUE(rt.register_tenant(1, never_alerts));
  ASSERT_TRUE(rt.register_tenant(2, never_alerts));
  EXPECT_FALSE(rt.register_tenant(2, never_alerts));  // duplicate
  EXPECT_FALSE(rt.register_tenant(0, never_alerts));  // default slot

  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 2;
  telemetry::Registry fe_reg;
  fo.registry = &fe_reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::atomic<bool> resume_tenant2{false};
  std::thread tenant1([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", port, trace, 1);
    EXPECT_TRUE(sent.ok());
  });
  std::thread tenant2([&] {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf;
    netio::append_hello(buf, 2, trace.link);
    for (size_t i = 0; i < half; ++i) {
      netio::append_record(buf, trace.raw[i],
                           static_cast<uint32_t>(trace.view[i].index));
    }
    ASSERT_TRUE(send_raw(fd, buf));
    while (!resume_tenant2.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    buf.clear();
    for (size_t i = half; i < trace.raw.size(); ++i) {
      netio::append_record(buf, trace.raw[i],
                           static_cast<uint32_t>(trace.view[i].index));
    }
    netio::append_fin(buf);
    ASSERT_TRUE(send_raw(fd, buf));
    ::close(fd);
  });
  std::thread runner([&] {
    auto st = rt.run(fe);
    EXPECT_TRUE(st.ok());
  });

  // Wait until tenant 2's first half has been scored under the original
  // (never-alerting) scorer, swap that tenant alone, then release the
  // second half.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt_reg.snapshot().counter_value("ingest.tenant2.scored") < half) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(rt.deploy(2, always_alerts));
  EXPECT_FALSE(rt.deploy(7, always_alerts));  // never registered
  resume_tenant2 = true;

  tenant1.join();
  tenant2.join();
  runner.join();

  // Exactly tenant 2's second half alerted; tenant 1 was untouched.
  ASSERT_EQ(trace.raw.size() - half, sink.alerts.size());
  for (const Alert& a : sink.alerts) {
    EXPECT_EQ(2u, a.tenant);
    EXPECT_GE(a.capture_index, half);
  }
  const telemetry::Snapshot snap = rt_reg.snapshot();
  EXPECT_EQ(trace.raw.size(), snap.counter_value("ingest.tenant1.scored"));
  EXPECT_EQ(trace.raw.size(), snap.counter_value("ingest.tenant2.scored"));
  EXPECT_EQ(0u, snap.counter_value("ingest.tenant1.alerted"));
  EXPECT_EQ(trace.raw.size() - half,
            snap.counter_value("ingest.tenant2.alerted"));
  EXPECT_EQ(1u, snap.counter_value("ingest.tenant2.swaps_applied"));
  EXPECT_EQ(0u, snap.counter_value("ingest.tenant1.swaps_applied"));
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(FrontendBackpressure, TcpPauseIsLossless) {
  const Trace trace = make_trace(3000);
  // Tiny ring + per-packet claims force sustained kBusy at the feed: the
  // gateway must stage, pause the socket, and deliver every frame anyway.
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 8;
  o.consumer_batch = 1;
  Recorder sink;
  IngestRuntime rt(o, stateful_factory(50.0), &sink);

  FrontendOptions fo;
  fo.link = trace.link;
  fo.pending_frames = 64;
  fo.loop.poll_interval_ms = 1;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), trace, 0);
    EXPECT_TRUE(sent.ok());
  });
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  ASSERT_EQ(trace.raw.size(), sink.recs.size());
  Recorder ref = replay_run(trace, 1, stateful_factory(50.0));
  EXPECT_EQ(ref.recs, sink.recs);
  EXPECT_EQ(0u, reg.snapshot().counter_value("frontend.shed"));
}

TEST(FrontendBackpressure, ShedModeAccountsEveryFrame) {
  const Trace trace = make_trace(2000);
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 4;
  o.consumer_batch = 1;
  Recorder sink;
  // A deliberately slow scorer so the feed saturates.
  auto slow_factory = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          return static_cast<double>(v.index % 97);
        },
        1e9);
  };
  IngestRuntime rt(o, slow_factory, &sink);

  FrontendOptions fo;
  fo.link = trace.link;
  fo.pending_frames = 8;
  fo.shed_when_saturated = true;
  fo.loop.poll_interval_ms = 1;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), trace, 0);
    EXPECT_TRUE(sent.ok());
  });
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  // Exact per-connection accounting: every frame the wire carried is
  // either scored or counted shed, and the runtime's conservation
  // invariant spans the socket path.
  uint64_t frames = 0, shed = 0;
  for (const netio::ConnReport& r : fe.connections()) {
    frames += r.frames;
    shed += r.shed;
  }
  EXPECT_EQ(trace.raw.size(), frames);
  EXPECT_EQ(shed, reg.snapshot().counter_value("frontend.shed"));
  const core::IngestStats stats = rt.stats();
  EXPECT_EQ(trace.raw.size(), stats.enqueued);
  EXPECT_EQ(shed, stats.dropped);
  EXPECT_EQ(stats.enqueued - stats.dropped,
            stats.scored + stats.parse_skipped);
  EXPECT_EQ(trace.raw.size() - shed, sink.recs.size());
}

// ---------------------------------------------------------------------------
// Resource hygiene

TEST(FrontendHygiene, NoLeakedFileDescriptors) {
  const Trace trace = make_trace(50);
  // Warm-up run absorbs lazily-created process-wide fds.
  socket_run(trace, 1, stateless_factory(1e9), nullptr);
  const size_t before = count_open_fds();
  for (int i = 0; i < 3; ++i) {
    socket_run(trace, 1, stateless_factory(1e9), nullptr);
  }
  EXPECT_EQ(before, count_open_fds());
}

// ---------------------------------------------------------------------------
// Overflow policy: kDropNewest sheds the incoming frame, never the head

// Offers frame 0, waits until the consumer holds it (blocked inside its
// scorer), then offers the rest into the full ring and opens the gate.
class GatedDriver : public netio::SourceDriver {
 public:
  GatedDriver(const Trace& t, std::atomic<bool>& holding,
              std::atomic<bool>& gate)
      : t_(t), holding_(holding), gate_(gate) {}
  netio::LinkType link() const override { return t_.link; }
  Result<void> drive(netio::FrameFeed& feed,
                     const std::atomic<bool>& /*stop*/) override {
    for (size_t i = 0; i < t_.raw.size(); ++i) {
      SourcePacket sp;
      sp.pkt = t_.raw[i];
      sp.capture_index = static_cast<uint32_t>(t_.view[i].index);
      EXPECT_NE(netio::FeedStatus::kBusy, feed.offer(sp));
      while (i == 0 && !holding_.load()) std::this_thread::yield();
    }
    gate_.store(true);
    return {};
  }

 private:
  const Trace& t_;
  std::atomic<bool>& holding_;
  std::atomic<bool>& gate_;
};

TEST(OverflowPolicyTest, DropNewestKeepsOldest) {
  const Trace trace = make_trace(10);
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 2;
  o.consumer_batch = 1;
  o.overflow = OverflowPolicy::kDropNewest;
  std::atomic<bool> holding{false}, gate{false};
  Recorder sink;
  IngestRuntime rt(
      o,
      [&](size_t) {
        return std::make_unique<FnScorer>(
            [&](const netio::PacketView& v) {
              holding.store(true);
              while (!gate.load()) std::this_thread::yield();
              return static_cast<double>(v.index);
            },
            1e9);
      },
      &sink);
  GatedDriver driver(trace, holding, gate);
  auto st = rt.run(driver);
  ASSERT_TRUE(st.ok());

  // Frame 0 was in the consumer's hands and frames 1-2 filled the ring;
  // everything after was shed, and the admitted frames were all scored.
  std::vector<uint32_t> scored;
  for (const ScoreRecord& r : sink.recs) scored.push_back(r.index);
  EXPECT_EQ((std::vector<uint32_t>{0, 1, 2}), scored);
  EXPECT_EQ(trace.raw.size(), st.value().enqueued);
  EXPECT_EQ(trace.raw.size() - 3, st.value().dropped);
  EXPECT_EQ(st.value().enqueued - st.value().dropped,
            st.value().scored + st.value().parse_skipped);
}

}  // namespace
}  // namespace lumen
