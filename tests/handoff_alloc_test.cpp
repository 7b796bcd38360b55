// The live hand-off recycles frame buffers through the shard rings: once
// every slot has carried a frame, moving a frame from a replay source or a
// socket to its shard consumer allocates nothing. Each check drains a
// benign capture looped 2k times, which opens no new extractor context
// after its first pass, and counts the heap allocations made between the
// consumer scoring the last frame of loop k and the last frame of loop 2k:
// at most one per 1000 frames. The count is taken within one drain because
// how many times the buffers grow while they warm up depends on which
// frame lands in which buffer, so two drains differ by dozens of
// allocations when the threads' interleaving changes. A buffer an
// oversized frame grew is not kept by the ring.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "core/ingest.h"
#include "netio/frontend.h"
#include "netio/source.h"
#include "trace/sim.h"

// Every heap allocation in this binary goes through the replaced global
// operator new / new[] below, which counts it and the live bytes (the
// usable size of each block). The whole unaligned family is replaced,
// nothrow forms included, so every block is allocated with malloc and
// released with free.
namespace {
std::atomic<size_t> g_allocs{0};
std::atomic<size_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) {
    g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace lumen::core {
namespace {

using netio::RawPacket;
using netio::Trace;

constexpr size_t kLoops = 16;  // k; each drain runs 2k loops

// Benign traffic from a few devices: after one pass every context exists.
const trace::Dataset& benign() {
  static const trace::Dataset ds = [] {
    trace::Sim sim(77);
    trace::BenignStyle st;
    sim.benign_iot_traffic(0.0, 120.0, 12, st);
    return sim.finish("benign", "benign IoT traffic",
                      trace::Granularity::kPacket);
  }();
  return ds;
}

const OnlineKitsune& detector() {
  static const OnlineKitsune det = [] {
    OnlineKitsune d;
    const std::vector<netio::PacketView>& v = benign().trace.view;
    d.train(std::span(v).first(v.size() / 3));
    return d;
  }();
  return det;
}

/// Counts the frames the consumer scored and reads the allocation count
/// after the last frame of each half of a 2k-loop drain. It allocates
/// nothing itself.
class SplitSink : public AlertSink {
 public:
  explicit SplitSink(uint64_t half) : half_(half) {}
  void on_alert(const Alert&) override {}
  void on_packet(const netio::PacketView&, double, bool) override {
    ++scored;
    if (scored == half_) at_half = g_allocs.load();
    if (scored == 2 * half_) at_end = g_allocs.load();
  }
  uint64_t scored = 0;
  size_t at_half = 0;
  size_t at_end = 0;

 private:
  uint64_t half_;
};

IngestRuntime::Options options() {
  IngestRuntime::Options o;
  o.queue_capacity = 64;
  o.registry = nullptr;
  return o;
}

std::unique_ptr<PacketScorer> kitsune(size_t) {
  return std::make_unique<KitsuneScorer>(detector());
}

/// Frames in the k loops of each half of a drain.
uint64_t half_frames() { return kLoops * benign().trace.size(); }

/// Drains `driver`, 2k loops of the capture, and returns the allocations
/// made while its consumer scored the second k loops.
size_t second_half_allocs(netio::SourceDriver& driver) {
  SplitSink sink(half_frames());
  IngestRuntime rt(options(), kitsune, &sink);
  Result<IngestStats> stats = rt.run(driver);
  EXPECT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(sink.scored, 2 * half_frames());
  return sink.at_end - sink.at_half;
}

/// Allowed allocations over the second k loops: one per 1000 frames.
double allowance() { return static_cast<double>(half_frames()) / 1000.0; }

TEST(HandoffAlloc, ReplayAllocatesNothingPerFrameOnceWarm) {
  netio::TraceReplaySource replay(benign().trace);
  netio::LoopingSource looped(replay, netio::LoopOptions{2 * kLoops});
  netio::ReplayDriver driver(looped);
  const size_t allocs = second_half_allocs(driver);
  EXPECT_LE(static_cast<double>(allocs), allowance())
      << allocs << " allocations over loops " << kLoops + 1 << " to "
      << 2 * kLoops << " of " << benign().trace.size() << " frames";
}

/// LUM1 stream of `loops` passes over the capture, each pass shifted by
/// the capture's span plus one second, like LoopingSource with a period.
std::vector<uint8_t> encode_loops(size_t loops) {
  const Trace& t = benign().trace;
  const double period = t.duration() + 1.0;
  std::vector<uint8_t> wire;
  netio::append_hello(wire, 0, t.link);
  for (size_t l = 0; l < loops; ++l) {
    for (size_t i = 0; i < t.size(); ++i) {
      RawPacket p = t.raw[i];
      p.ts += static_cast<double>(l) * period;
      netio::append_record(wire, p, t.view[i].index);
    }
  }
  netio::append_fin(wire);
  return wire;
}

/// Connects to the gateway and writes `wire` (no allocation after the
/// thread starts), then closes.
void send_wire(uint16_t port, const std::vector<uint8_t>& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t w =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    ASSERT_GT(w, 0);
    off += static_cast<size_t>(w);
  }
  ::close(fd);
}

TEST(HandoffAlloc, GatewayAllocatesNothingPerFrameOnceWarm) {
  const std::vector<uint8_t> wire = encode_loops(2 * kLoops);
  telemetry::Registry reg;
  netio::FrontendOptions fo;
  fo.registry = &reg;
  // The sender outruns the consumer, so frames are staged while the ring
  // is full, and the staging queue's packets join the buffers in
  // circulation. A short queue keeps them few, so each has grown to the
  // capture's largest frames well within the first k loops.
  fo.pending_frames = 16;
  netio::GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client(send_wire, fe.tcp_port(), std::cref(wire));
  const size_t allocs = second_half_allocs(fe);
  client.join();
  EXPECT_LE(static_cast<double>(allocs), allowance())
      << allocs << " allocations over loops " << kLoops + 1 << " to "
      << 2 * kLoops << " of " << benign().trace.size() << " frames";
}

/// Live heap, relative to the start of the drain, when the consumer scores
/// the last frame of `t`.
double live_at_last_frame(const Trace& t) {
  const uint32_t last = static_cast<uint32_t>(t.size() - 1);
  double reading = 0.0;
  size_t start = 0;
  IngestRuntime rt(
      options(),
      [&](size_t) {
        return std::make_unique<FnScorer>(
            [&](const netio::PacketView& v) {
              if (v.index == last) {
                reading = static_cast<double>(g_live_bytes.load()) -
                          static_cast<double>(start);
              }
              return 0.0;
            },
            1.0);
      },
      nullptr);
  netio::TraceReplaySource replay(t);
  netio::ReplayDriver driver(replay);
  start = g_live_bytes.load();
  EXPECT_TRUE(rt.run(driver).ok());
  return reading;
}

TEST(HandoffAlloc, OversizedFrameBufferIsNotKept) {
  // A 512 KiB frame, then more small frames than it takes the producer to
  // get the big frame's buffer back: the first claim takes at most
  // queue_capacity frames, the next one returns the buffer to the slot of
  // the frame after them, and the producer refills that slot
  // queue_capacity frames later. The last small frame is pushed after that.
  const size_t cap = options().queue_capacity;
  const Trace& src = benign().trace;
  Trace small, with_big;
  small.link = with_big.link = src.link;
  for (size_t i = 0; i < 2 * cap + 1; ++i) small.raw.push_back(src.raw[i]);
  RawPacket big = src.raw[0];
  big.data.resize(512 * 1024);
  with_big.raw.push_back(big);
  with_big.raw.insert(with_big.raw.end(), small.raw.begin(), small.raw.end());
  const double without = live_at_last_frame(small);
  const double with = live_at_last_frame(with_big);
  EXPECT_LT(with - without, 512.0 * 1024.0)
      << "live heap at the last frame: " << with << " bytes after a 512 KiB "
      << "frame, " << without << " without it";
}

}  // namespace
}  // namespace lumen::core
