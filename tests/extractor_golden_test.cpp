// Golden-equivalence tests for the packed-key KitsuneExtractor: the hot
// path must emit feature vectors bit-identical to the retired string-keyed
// implementation (kitsune_extractor_ref.h) on every packet of every
// corpus trace — including non-IP frames and a spoofed-source flood whose
// context tables span many storage chunks — and the context-eviction cap
// must bound the tracked state without changing the rows of contexts that
// survive it, and without allocating once a table is full.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/kitsune_extractor.h"
#include "core/stream.h"
#include "netio/builder.h"
#include "netio/parse.h"
#include "trace/attacks.h"
#include "trace/registry.h"

#include "kitsune_extractor_ref.h"

// Every heap allocation in this binary goes through the replaced global
// operator new / new[] below, which counts it
// (ExtractorEviction.SaturatedCapAllocatesNothing). The whole unaligned
// family is replaced, nothrow forms included, so every block is allocated
// with malloc and released with free.
namespace {
std::atomic<size_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lumen::core {
namespace {

using netio::Bytes;
using netio::MacAddr;
using netio::RawPacket;
using netio::Trace;

void expect_bit_identical(const Trace& trace, std::vector<double> lambdas = {},
                          const char* what = "") {
  KitsuneExtractor packed(lambdas);
  ReferenceKitsuneExtractor ref(lambdas);
  ASSERT_EQ(packed.dim(), ref.dim());
  std::vector<double> a, b;
  for (size_t i = 0; i < trace.view.size(); ++i) {
    packed.process(trace.view[i], a);
    ref.process(trace.view[i], b);
    ASSERT_EQ(a.size(), b.size());
    // Bit-level comparison: the refactor must not change a single ULP
    // (memcmp also distinguishes -0.0 from 0.0, which == would not).
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what << ": packet " << i << " of " << trace.view.size();
  }
  EXPECT_EQ(packed.tracked_contexts(), ref.tracked_contexts()) << what;
}

TEST(ExtractorGolden, P1MiraiCapture) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.15);
  ASSERT_GT(ds.trace.view.size(), 500u);
  expect_bit_identical(ds.trace, {}, "P1");
}

TEST(ExtractorGolden, P2Dot11Capture) {
  // 802.11 capture: exercises the non-IP (management/control frame) path
  // on a full synthetic dataset.
  const trace::Dataset ds = trace::make_dataset("P2", 0.15);
  ASSERT_GT(ds.trace.view.size(), 100u);
  size_t non_ip = 0;
  for (const auto& v : ds.trace.view) non_ip += v.has_ip ? 0 : 1;
  EXPECT_GT(non_ip, 0u) << "P2 should contain non-IP frames";
  expect_bit_identical(ds.trace, {}, "P2");
}

TEST(ExtractorGolden, P3SynDosCapture) {
  const trace::Dataset ds = trace::make_dataset("P3", 0.15);
  ASSERT_GT(ds.trace.view.size(), 500u);
  expect_bit_identical(ds.trace, {}, "P3");
}

TEST(ExtractorGolden, P4SsdpFuzzingCapture) {
  const trace::Dataset ds = trace::make_dataset("P4", 0.15);
  expect_bit_identical(ds.trace, {}, "P4");
}

// Hand-built Ethernet trace interleaving TCP/UDP with ARP (non-IP) frames,
// port-sharing across IP pairs, both channel directions, and repeated
// timestamps — the corners where key packing could diverge from the
// string keys.
Trace mixed_trace() {
  const MacAddr m1{2, 0, 0, 0, 0, 1}, m2{2, 0, 0, 0, 0, 2},
      m3{2, 0, 0, 0, 0, 3};
  const uint32_t a = 0x0a000001, b = 0x0a000002, c = 0xc0a80101;
  Trace t;
  double ts = 50.0;
  auto add = [&](Bytes frame, double dt) {
    ts += dt;
    t.raw.push_back(RawPacket{ts, std::move(frame)});
  };
  netio::TcpOpts tcp;
  for (int round = 0; round < 40; ++round) {
    add(netio::build_tcp(m1, m2, a, b, 1234, 80, tcp, Bytes(round % 9, 'x')),
        0.002);
    // Reverse direction of the same channel and socket.
    add(netio::build_tcp(m2, m1, b, a, 80, 1234, tcp, Bytes(round % 5, 'y')),
        0.0);  // repeated timestamp: zero inter-arrival jitter
    // ARP probe: non-IP frame between IP packets.
    add(netio::build_arp(m1, m2, 1, m1, a, MacAddr{}, b), 0.001);
    // Same IP pair, different ports -> same channel, distinct socket.
    add(netio::build_udp(m1, m2, a, b, 5353, 5353, Bytes(4, 'z')), 0.003);
    // Same ports on a different pair; src > dst exercises reverse canon.
    add(netio::build_tcp(m3, m1, c, a, 1234, 80, tcp, Bytes(2, 'q')), 0.004);
  }
  netio::parse_trace(t);
  return t;
}

TEST(ExtractorGolden, MixedArpTcpUdpTrace) {
  const Trace t = mixed_trace();
  ASSERT_EQ(t.view.size(), 200u);
  size_t non_ip = 0;
  for (const auto& v : t.view) non_ip += v.has_ip ? 0 : 1;
  EXPECT_EQ(non_ip, 40u);
  expect_bit_identical(t, {}, "mixed");
}

TEST(ExtractorGolden, NonDefaultLambdas) {
  const Trace t = mixed_trace();
  expect_bit_identical(t, {2.0, 0.5}, "lambdas{2,0.5}");
  expect_bit_identical(t, {1.0}, "lambdas{1}");
}

// A spoofed-source SYN flood over a little benign traffic: every flood
// frame opens new source, channel and socket contexts, so each IP context
// table grows through dozens of 256-context storage chunks.
const trace::Dataset& spoofed_flood() {
  static const trace::Dataset ds = [] {
    trace::Sim sim(1313);
    trace::BenignStyle st;
    sim.benign_iot_traffic(0.0, 14.0, 4, st);
    trace::attack_syn_flood(sim, 1.0, 12.0, sim.lan_ip(st, 1), 80, 1000.0,
                            trace::AttackType::kSynFlood);
    return sim.finish("flood", "spoofed SYN flood",
                      trace::Granularity::kPacket);
  }();
  return ds;
}

TEST(ExtractorGolden, SpoofedFloodAcrossManyChunks) {
  const Trace& t = spoofed_flood().trace;
  expect_bit_identical(t, {}, "flood");
  KitsuneExtractor ex;
  std::vector<double> row;
  for (const auto& v : t.view) ex.process(v, row);
  const auto counts = ex.context_counts();
  EXPECT_GT(counts.src, 10000u);
  EXPECT_GT(counts.chan, 10000u);
  EXPECT_GT(counts.sock, 10000u);
}

TEST(ExtractorGolden, CopyMidFloodMatchesOriginal) {
  // Copies taken halfway (a KitsuneScorer copies its trained detector) must
  // own their state: all extractors then see the rest of the flood and must
  // emit identical rows while each keeps growing its own chunks. The capped
  // extractor has evicted many times by then, so its copies start from
  // tables with freed blocks.
  const Trace& t = spoofed_flood().trace;
  for (const size_t cap : {size_t{0}, size_t{1000}}) {
    KitsuneExtractor ex({}, cap);
    std::vector<double> a, b, c;
    const size_t half = t.view.size() / 2;
    for (size_t i = 0; i < half; ++i) ex.process(t.view[i], a);
    KitsuneExtractor copy = ex;
    KitsuneExtractor assigned;
    assigned.process(t.view[0], c);
    assigned = ex;
    EXPECT_EQ(assigned.max_contexts(), cap);
    for (size_t i = half; i < t.view.size(); ++i) {
      ex.process(t.view[i], a);
      copy.process(t.view[i], b);
      assigned.process(t.view[i], c);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << "cap " << cap << " copy, packet " << i << " of "
          << t.view.size();
      ASSERT_EQ(std::memcmp(a.data(), c.data(), a.size() * sizeof(double)), 0)
          << "cap " << cap << " assigned, packet " << i << " of "
          << t.view.size();
    }
    EXPECT_EQ(copy.tracked_contexts(), ex.tracked_contexts()) << cap;
    EXPECT_EQ(assigned.tracked_contexts(), ex.tracked_contexts()) << cap;
  }
}

// The frames of `t` permuted inside consecutive windows of 8 by one fixed
// permutation (a short tail keeps its order), so the timestamp goes
// backwards inside every window, then a run of 16 frames from the middle
// set to one timestamp. Each context keeps one clock per decay level in
// the reference, so this is where a shared clock could drift from it.
Trace reordered(const Trace& t) {
  static constexpr size_t kPerm[8] = {3, 0, 6, 1, 7, 2, 5, 4};
  Trace r;
  r.link = t.link;
  const size_t full = t.view.size() / 8 * 8;
  for (size_t w = 0; w < full; w += 8) {
    for (size_t p : kPerm) r.view.push_back(t.view[w + p]);
  }
  r.view.insert(r.view.end(), t.view.begin() + full, t.view.end());
  const size_t mid = r.view.size() / 2;
  for (size_t i = mid; i < std::min(mid + 16, r.view.size()); ++i) {
    r.view[i].ts = r.view[mid].ts;
  }
  return r;
}

const Trace& reordered_p1() {
  static const Trace t = reordered(trace::make_dataset("P1", 0.15).trace);
  return t;
}

const Trace& reordered_p3() {
  static const Trace t = reordered(trace::make_dataset("P3", 0.15).trace);
  return t;
}

TEST(ExtractorGolden, OutOfOrderTimestamps) {
  for (const Trace* t : {&reordered_p1(), &reordered_p3()}) {
    size_t backwards = 0;
    for (size_t i = 1; i < t->view.size(); ++i) {
      backwards += t->view[i].ts < t->view[i - 1].ts ? 1 : 0;
    }
    EXPECT_GT(backwards, t->view.size() / 8);
  }
  expect_bit_identical(reordered_p1(), {}, "P1 reordered");
  expect_bit_identical(reordered_p3(), {}, "P3 reordered");
  expect_bit_identical(reordered_p3(), {2.0, 0.5}, "P3 reordered {2,0.5}");
}

/// FNV-1a over the bit patterns of every row, then tracked_contexts().
uint64_t row_digest(const Trace& t, std::vector<double> lambdas = {},
                    size_t max_contexts = 0) {
  KitsuneExtractor ex(std::move(lambdas), max_contexts);
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  std::vector<double> row;
  for (const auto& v : t.view) {
    ex.process(v, row);
    mix(row.data(), row.size() * sizeof(double));
  }
  const uint64_t tracked = ex.tracked_contexts();
  mix(&tracked, sizeof tracked);
  return h;
}

// Digests frozen from the per-statistic implementation. The reference
// above shares features/stats.h with the extractor, so these also catch an
// edit there, and they cover eviction, which the reference cannot.
TEST(ExtractorGolden, FrozenRowDigests) {
  const auto p = [](const char* name) {
    return trace::make_dataset(name, 0.15).trace;
  };
  const struct {
    const char* name;
    Trace trace;
    std::vector<double> lambdas;
    size_t max_contexts;
    uint64_t digest;
  } cases[] = {
      {"P1", p("P1"), {}, 0, 0x5d8ab6b57b59b26eull},
      {"P2", p("P2"), {}, 0, 0xb771795f3762443cull},
      {"P3", p("P3"), {}, 0, 0x54f85aae304eb19bull},
      {"P4", p("P4"), {}, 0, 0xf559c8c52839365eull},
      {"flood", spoofed_flood().trace, {}, 0, 0xd7be52f41fa90eeaull},
      {"P1 reordered", reordered_p1(), {}, 0, 0x25e6c26d45a3cf29ull},
      {"P3 reordered", reordered_p3(), {}, 0, 0xcca4ee9da6a9f907ull},
      {"P3 reordered {2,0.5}", reordered_p3(), {2.0, 0.5}, 0,
       0xf8fb9315753f4ba9ull},
      {"P1 {2,0.5}", p("P1"), {2.0, 0.5}, 0, 0x76625d1adb0b6ab6ull},
      {"flood reordered", reordered(spoofed_flood().trace), {}, 0,
       0x3f46a86c6f8882dfull},
      {"flood reordered cap 200", reordered(spoofed_flood().trace), {}, 200,
       0x55a1fa0d1372c69cull},
      {"flood cap 1000", spoofed_flood().trace, {}, 1000,
       0xb254e1f4524aa5daull},
      {"flood cap 4096", spoofed_flood().trace, {}, 4096,
       0x30fdee8774cda11cull},
  };
  for (const auto& c : cases) {
    const uint64_t got = row_digest(c.trace, c.lambdas, c.max_contexts);
    EXPECT_EQ(got, c.digest) << c.name << " 0x" << std::hex << got;
  }
}

TEST(ExtractorGolden, FeatureNames) {
  const KitsuneExtractor ex;
  const std::vector<std::string>& names = ex.feature_names();
  ASSERT_EQ(names.size(), 115u);
  EXPECT_EQ(names[0], "l5.00_mac_w");
  EXPECT_EQ(names[1], "l5.00_mac_mean");
  EXPECT_EQ(names[12], "l5.00_chan_mag");
  EXPECT_EQ(names[23], "l3.00_mac_w");
  EXPECT_EQ(names[114], "l0.01_jit_std");
  const KitsuneExtractor two({2.0, 0.5});
  EXPECT_EQ(two.feature_names()[0], "l2.00_mac_w");
  EXPECT_EQ(two.feature_names()[23], "l0.50_mac_w");
}

TEST(ExtractorEviction, CapBoundsTrackedContexts) {
  // A scan-like stream: every packet a fresh source IP/MAC/socket, far
  // more distinct contexts than the cap.
  const size_t kCap = 64;
  KitsuneExtractor ex({}, kCap);
  EXPECT_EQ(ex.max_contexts(), kCap);
  std::vector<double> row;
  const MacAddr dst{2, 0, 0, 0, 0, 2};
  for (uint32_t i = 0; i < 2000; ++i) {
    MacAddr src{2, 0, 1, 0, 0, 0};
    src[4] = static_cast<uint8_t>(i >> 8);
    src[5] = static_cast<uint8_t>(i & 0xff);
    Bytes frame = netio::build_tcp(src, dst, 0x0a010000 + i, 0x0a000002,
                                   static_cast<uint16_t>(1024 + i), 80,
                                   netio::TcpOpts{}, Bytes(8, 'x'));
    RawPacket raw{100.0 + 0.001 * i, std::move(frame)};
    auto parsed = netio::parse_packet(raw, netio::LinkType::kEthernet, i);
    ASSERT_TRUE(parsed.ok());
    ex.process(parsed.value(), row);
    const auto counts = ex.context_counts();
    EXPECT_LE(counts.mac, kCap);
    EXPECT_LE(counts.src, kCap);
    EXPECT_LE(counts.chan, kCap);
    EXPECT_LE(counts.sock, kCap);
  }
  // tracked_contexts sums 5 statistics per lambda per context.
  EXPECT_LE(ex.tracked_contexts(), 5 * kCap * ex.lambdas().size());
  EXPECT_GT(ex.tracked_contexts(), 0u);
}

TEST(ExtractorEviction, ActiveContextSurvivesGc) {
  // One hot channel plus a flood of one-shot scanners: after eviction the
  // hot channel's statistics must keep their accumulated weight (the GC
  // keeps the highest decayed-weight contexts).
  const size_t kCap = 32;
  KitsuneExtractor ex({}, kCap);
  const MacAddr hot_src{2, 0, 0, 0, 0, 1}, dst{2, 0, 0, 0, 0, 2};
  std::vector<double> row;
  double ts = 100.0;
  auto feed = [&](const Bytes& frame, uint32_t idx) {
    RawPacket raw{ts, frame};
    auto parsed = netio::parse_packet(raw, netio::LinkType::kEthernet, idx);
    ASSERT_TRUE(parsed.ok());
    ex.process(parsed.value(), row);
  };
  for (uint32_t i = 0; i < 500; ++i) {
    ts += 0.001;
    feed(netio::build_tcp(hot_src, dst, 0x0a000001, 0x0a000002, 1234, 80,
                          netio::TcpOpts{}, Bytes(8, 'x')),
         i);
    MacAddr scan{2, 1, 0, 0, 0, 0};
    scan[4] = static_cast<uint8_t>(i >> 8);
    scan[5] = static_cast<uint8_t>(i & 0xff);
    ts += 0.0001;
    feed(netio::build_udp(scan, dst, 0x0b000000 + i, 0x0a000002,
                          static_cast<uint16_t>(2000 + (i % 60000)), 53,
                          Bytes(2, 's')),
         1000 + i);
  }
  // The hot channel's mac weight (first feature, fastest lambda) reflects
  // hundreds of inserts; a freshly-recreated context would sit near 1.
  ts += 0.001;
  feed(netio::build_tcp(hot_src, dst, 0x0a000001, 0x0a000002, 1234, 80,
                        netio::TcpOpts{}, Bytes(8, 'x')),
       9999);
  EXPECT_GT(row[0], 2.0) << "hot context was evicted";
}

TEST(ExtractorEviction, CapAcrossChunksKeepsRowsOfRecurringContexts) {
  // A cap spanning several storage chunks, one-shot scanners and a few hot
  // flows. A scanner's contexts never recur and eviction runs after the
  // row is written, while the hot flows always outweigh the scanners, so
  // every row must equal an uncapped extractor's row bit for bit.
  const size_t kCap = 1000;
  KitsuneExtractor capped({}, kCap);
  KitsuneExtractor uncapped;
  const MacAddr dst{2, 0, 0, 0, 0, 0xfe};
  std::vector<double> a, b;
  double ts = 100.0;
  uint32_t scanner = 0;
  for (uint32_t i = 0; i < 6000; ++i) {
    ts += 0.0005;
    Bytes frame;
    if (i % 8 == 0) {
      const uint32_t h = (i / 8) % 3;
      const MacAddr src{2, 0, 0, 0, 0, static_cast<uint8_t>(1 + h)};
      frame = netio::build_tcp(src, dst, 0x0a000001 + h, 0x0a0000fe,
                               static_cast<uint16_t>(4000 + h), 80,
                               netio::TcpOpts{}, Bytes(8 + h, 'h'));
    } else {
      ++scanner;
      const MacAddr src{2, 1, 0, static_cast<uint8_t>(scanner >> 16),
                        static_cast<uint8_t>(scanner >> 8),
                        static_cast<uint8_t>(scanner)};
      frame = netio::build_udp(src, dst, 0x0b000000 + scanner, 0x0a0000fe,
                               static_cast<uint16_t>(2000 + scanner % 60000),
                               53, Bytes(2, 's'));
    }
    RawPacket raw{ts, std::move(frame)};
    auto parsed = netio::parse_packet(raw, netio::LinkType::kEthernet, i);
    ASSERT_TRUE(parsed.ok());
    capped.process(parsed.value(), a);
    uncapped.process(parsed.value(), b);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "packet " << i;
    const auto counts = capped.context_counts();
    ASSERT_LE(counts.mac, kCap) << "packet " << i;
    ASSERT_LE(counts.src, kCap) << "packet " << i;
    ASSERT_LE(counts.chan, kCap) << "packet " << i;
    ASSERT_LE(counts.sock, kCap) << "packet " << i;
  }
  // The cap was exercised: the uncapped tables hold every scanner.
  EXPECT_GT(uncapped.context_counts().src, 5 * kCap);
}

// `n` TCP frames like CapBoundsTrackedContexts's, each from a fresh source
// MAC, IP and port to one server, so every frame opens a new context in
// every table.
Trace spoofed_sources(uint32_t n) {
  const MacAddr dst{2, 0, 0, 0, 0, 2};
  Trace t;
  for (uint32_t i = 0; i < n; ++i) {
    const MacAddr src{2, 0, 1, static_cast<uint8_t>(i >> 16),
                      static_cast<uint8_t>(i >> 8), static_cast<uint8_t>(i)};
    t.raw.push_back(RawPacket{
        100.0 + 0.001 * i,
        netio::build_tcp(src, dst, 0x0a010000 + i, 0x0a000002,
                         static_cast<uint16_t>(1024 + i), 80, netio::TcpOpts{},
                         Bytes(8, 'x'))});
  }
  netio::parse_trace(t);
  return t;
}

TEST(ExtractorEviction, SaturatedCapAllocatesNothing) {
  // Once every table has evicted twice, its chunks, index, free list and
  // eviction scratch have all reached their largest: new contexts reuse
  // evicted blocks, so 20k more of them make no heap allocation.
  const size_t kCap = 512;
  const size_t kMeasured = 20000;
  const Trace t = spoofed_sources(22000);
  ASSERT_EQ(t.view.size(), 22000u);
  KitsuneExtractor ex({}, kCap);
  std::vector<double> row;
  // Evictions seen per table (mac, src, chan, sock): its count went down.
  size_t evictions[4] = {};
  auto prev = ex.context_counts();
  size_t i = 0;
  while (i < t.view.size() && *std::min_element(evictions, evictions + 4) < 2) {
    ex.process(t.view[i++], row);
    const auto now = ex.context_counts();
    evictions[0] += now.mac < prev.mac ? 1 : 0;
    evictions[1] += now.src < prev.src ? 1 : 0;
    evictions[2] += now.chan < prev.chan ? 1 : 0;
    evictions[3] += now.sock < prev.sock ? 1 : 0;
    prev = now;
  }
  ASSERT_LE(i + kMeasured, t.view.size());
  const size_t before = g_heap_allocs.load();
  for (const size_t end = i + kMeasured; i < end; ++i) {
    ex.process(t.view[i], row);
  }
  EXPECT_EQ(g_heap_allocs.load() - before, 0u);
  const auto counts = ex.context_counts();
  EXPECT_LE(std::max({counts.mac, counts.src, counts.chan, counts.sock}),
            kCap);
}

TEST(ExtractorEviction, DefaultCapKeepsRegistryRows) {
  // The live detector's default cap sits well above the largest context
  // table of every registry capture, so capped rows equal uncapped ones.
  const size_t cap = OnlineKitsune::Options{}.max_contexts;
  ASSERT_GT(cap, 0u);
  for (const char* id : {"P0", "P1", "P2", "P3", "P4"}) {
    const Trace& t = trace::dataset_cache(id).trace;
    KitsuneExtractor capped({}, cap);
    KitsuneExtractor uncapped;
    std::vector<double> a, b;
    for (size_t i = 0; i < t.view.size(); ++i) {
      capped.process(t.view[i], a);
      uncapped.process(t.view[i], b);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << id << ": packet " << i << " of " << t.view.size();
    }
    const auto c = uncapped.context_counts();
    EXPECT_LT(std::max({c.mac, c.src, c.chan, c.sock}), cap / 2) << id;
    EXPECT_EQ(capped.tracked_contexts(), uncapped.tracked_contexts()) << id;
  }
}

}  // namespace
}  // namespace lumen::core
