// The unified gateway front-end API: every way packets can enter the
// ingest runtime — trace replay, pcap files, fault-injected streams, live
// TCP fan-in, UDP datagrams — is a SourceDriver pushing SourcePackets into
// a FrameFeed.
//
// Before this redesign the runtime could only PULL from a PacketSource
// (`while (source.next(p)) queue.push(p)`), which cannot express an event
// loop multiplexing dozens of sockets: a socket has no next(); it has
// readiness. Inverting the API to push fixes that, and the pull world
// still fits — ReplayDriver adapts any PacketSource onto a feed with
// byte-identical semantics, so IngestRuntime::run(PacketSource&) survives
// as a thin wrapper.
//
// Backpressure contract (the part both sides must honor):
//   - FrameFeed::offer() NEVER blocks. It returns kAccepted (taken),
//     kShed (taken and intentionally dropped under a drop policy — counted
//     enqueued AND dropped so conservation holds), kBusy (not taken, try
//     again after wait_ready()), or kClosed (downstream gone, stop).
//   - A driver that can wait (replay) calls wait_ready() on kBusy — that
//     reproduces the old blocking-push semantics exactly. A driver that
//     must not block (the event loop) pauses the offending connection
//     instead: the kernel TCP window closes and the *client* feels the
//     backpressure, losslessly. Past a bounded per-connection staging
//     buffer the front-end sheds newest frames with exact per-connection
//     accounting via account_shed().
//
// Wire format (TCP stream and UDP datagrams share the record layout):
//   hello   := magic u32 "LUM1" | tenant u32 | link u32        (12 bytes, LE)
//   record  := kind u8 | reserved u8 | reserved u16 | index u32
//            | ts f64 | orig_len u32 | incl_len u32
//            | frame bytes[incl_len]                           (24 + n)
//   kind    := 0 frame, 1 fin (end of stream, no payload)
// The timestamp travels as the full IEEE754 double (not pcap's sec/usec
// pair): feature extraction keys on exact capture time, so the timestamp
// must round-trip bit-exactly for socket ingest to score identically.
// A TCP connection sends one hello then records back-to-back; a UDP
// datagram is self-contained: hello + one record. The record carries the
// original capture index and timestamp so a socket-ingested trace scores
// bit-identically to local replay — alerts key on (ts, capture_index).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/telemetry.h"
#include "netio/event_loop.h"
#include "netio/source.h"

namespace lumen::netio {

/// Outcome of a non-blocking hand-off into the runtime's conduits.
enum class FeedStatus : uint8_t {
  kAccepted = 0,  // taken; counted enqueued
  kShed,          // taken and dropped by policy; counted enqueued + dropped
  kBusy,          // not taken: conduit full under a blocking policy
  kClosed,        // not taken: downstream stopped; stop driving
};

/// Downstream half of the front-end API. IngestRuntime implements this
/// over its flow-hash shard router and per-shard rings; drivers never see
/// the shards.
class FrameFeed {
 public:
  virtual ~FrameFeed() = default;
  /// Non-blocking hand-off. On kBusy the packet is NOT consumed and the
  /// caller decides: wait_ready() (replay) or stage-and-pause (sockets).
  virtual FeedStatus offer(SourcePacket& packet) = 0;
  /// Block until the conduit that last returned kBusy has room again.
  /// Returns false if the feed closed while waiting.
  virtual bool wait_ready() = 0;
  /// Account `n` frames shed upstream of the feed (per-connection staging
  /// overflow): they count enqueued + dropped so the runtime's
  /// conservation invariant (scored + skipped == enqueued - dropped)
  /// spans the socket path too.
  virtual void account_shed(uint64_t n) = 0;
};

/// Active half of the front-end API: pushes packets into a feed until the
/// stream ends, the stop flag rises, or the feed closes.
class SourceDriver {
 public:
  virtual ~SourceDriver() = default;
  virtual LinkType link() const = 0;
  virtual Result<void> drive(FrameFeed& feed,
                             const std::atomic<bool>& stop) = 0;
};

/// Pull-to-push adapter for the existing PacketSource family (replay,
/// pcap, fault injection, looping). offer()+wait_ready() reproduces the
/// old blocking producer loop exactly, packet for packet.
class ReplayDriver : public SourceDriver {
 public:
  explicit ReplayDriver(PacketSource& source, uint32_t tenant = 0)
      : source_(source), tenant_(tenant) {}
  LinkType link() const override { return source_.link(); }
  Result<void> drive(FrameFeed& feed, const std::atomic<bool>& stop) override;

 private:
  PacketSource& source_;
  uint32_t tenant_;
};

// ---------------------------------------------------------------------------
// Wire format helpers (shared by the gateway, the test clients, and the
// example walkthrough).

struct WireFormat {
  static constexpr uint32_t kMagic = 0x314D554C;  // "LUM1" little-endian
  static constexpr size_t kHelloBytes = 12;
  static constexpr size_t kRecordBytes = 24;
  enum Kind : uint8_t { kFrame = 0, kFin = 1 };
};

/// Append a 12-byte hello (magic, tenant, link) to `out`.
void append_hello(std::vector<uint8_t>& out, uint32_t tenant, LinkType link);

/// Append a 24-byte record header + frame bytes for `pkt` to `out`.
void append_record(std::vector<uint8_t>& out, const RawPacket& pkt,
                   uint32_t capture_index);

/// Append a FIN record (end-of-stream marker, no payload).
void append_fin(std::vector<uint8_t>& out);

/// Blocking loopback client used by tests, the bench, and the example:
/// connects, sends hello + every packet of `trace` in [begin, end) with its
/// original capture index, then a FIN, then closes. Pure client-side
/// socket code — runs on the caller's thread.
Result<void> send_trace_tcp(const std::string& addr, uint16_t port,
                            const Trace& trace, uint32_t tenant,
                            size_t begin = 0, size_t end = SIZE_MAX);

/// Same stream as UDP datagrams (hello + one record each). `pace_every` /
/// `pace_us`: sleep pace_us microseconds every pace_every datagrams so a
/// fast sender cannot overrun the receiver's kernel buffer on loopback.
Result<void> send_trace_udp(const std::string& addr, uint16_t port,
                            const Trace& trace, uint32_t tenant,
                            size_t begin = 0, size_t end = SIZE_MAX,
                            size_t pace_every = 256, unsigned pace_us = 500);

// ---------------------------------------------------------------------------
// Gateway front-end

struct FrontendOptions {
  std::string bind_address = "127.0.0.1";
  /// Enable the TCP listener (length-prefixed record stream per conn).
  bool tcp = true;
  uint16_t tcp_port = 0;  // 0 = ephemeral; read back via tcp_port()
  /// Enable the UDP datagram socket (one self-contained record each).
  bool udp = false;
  uint16_t udp_port = 0;
  size_t udp_rcvbuf = 4 << 20;
  /// Link type every stream must declare in its hello.
  LinkType link = LinkType::kEthernet;
  /// Reject records whose incl_len exceeds this (oversized-frame guard).
  /// At most EventLoop::kMaxConnBuffer - WireFormat::kRecordBytes, the
  /// largest record a connection's buffer can complete.
  size_t max_frame_bytes = 256 * 1024;
  /// Frames staged per connection while the feed reports kBusy before the
  /// connection is paused (TCP) or frames are shed (UDP / shed mode).
  size_t pending_frames = 1024;
  /// false: pause the socket on sustained kBusy — lossless, the client's
  /// TCP window closes. true: shed newest frames past pending_frames with
  /// per-connection accounting — bounded latency, lossy.
  bool shed_when_saturated = false;
  /// Return from drive() once every expected stream finished: at least
  /// `min_streams` streams seen (TCP connections closed cleanly or FIN
  /// records received) and no connection still open. false: serve until
  /// the stop flag rises.
  bool stop_when_drained = true;
  size_t min_streams = 1;
  /// Seconds granted to established connections to finish after a stop is
  /// requested, before they are aborted.
  double drain_grace = 2.0;
  EventLoop::Options loop;
  telemetry::Registry* registry = nullptr;  // nullptr = process registry
  std::string instrument_prefix = "frontend.";

  static FrontendOptions normalized(FrontendOptions opts,
                                    std::string* diagnostic);
};

/// Post-run accounting for one connection/stream — the "exact
/// per-connection accounting" half of the backpressure contract.
struct ConnReport {
  uint64_t id = 0;
  std::string peer;
  uint32_t tenant = 0;
  uint64_t frames = 0;   // decoded and offered (accepted or shed downstream)
  uint64_t shed = 0;     // dropped by this front-end's staging overflow
  uint64_t bytes = 0;    // payload bytes decoded
  bool fin = false;      // saw a FIN record
  CloseReason close_reason = CloseReason::kPeerClosed;
};

/// Event-driven socket ingestion: binds TCP/UDP listeners, multiplexes
/// every connection through one epoll loop on the driving thread, decodes
/// the record framing, authenticates each stream to a tenant, and pushes
/// frames into the runtime's feed under the backpressure contract above.
class GatewayFrontend : public SourceDriver, private EventLoop::Protocol {
 public:
  explicit GatewayFrontend(FrontendOptions opts);
  ~GatewayFrontend() override;

  /// Bind listeners (resolves ephemeral ports). Idempotent.
  Result<void> bind();
  uint16_t tcp_port() const { return tcp_port_; }
  uint16_t udp_port() const { return udp_port_; }

  LinkType link() const override { return opts_.link; }
  /// Runs the event loop on the calling thread (the runtime's producer
  /// thread) until drained / stopped / feed closed. Graceful shutdown:
  /// listeners close first, established connections drain.
  Result<void> drive(FrameFeed& feed, const std::atomic<bool>& stop) override;

  /// Per-connection accounting, valid after drive() returns.
  std::vector<ConnReport> connections() const { return reports_; }

 private:
  struct ConnState {
    bool hello_done = false;
    uint32_t tenant = 0;
    std::deque<SourcePacket> staged;  // decoded frames awaiting the feed
    ConnReport report;
    double accepted_at = 0;
  };

  // EventLoop::Protocol
  bool on_open(uint64_t conn, const std::string& peer) override;
  size_t on_data(uint64_t conn, const uint8_t* data, size_t n) override;
  void on_datagram(uint64_t sock, const uint8_t* data, size_t n) override;
  void on_close(uint64_t conn, CloseReason reason) override;

  /// Decode as many complete records as `data` holds; returns bytes
  /// consumed or EventLoop::kAbort on a malformed stream.
  size_t decode_records(uint64_t conn, ConnState& st, const uint8_t* data,
                        size_t n);
  /// Push one decoded frame toward the feed (direct, staged, or shed).
  void route_frame(uint64_t conn, ConnState& st, SourcePacket&& sp);
  /// Drain staged frames into the feed; resumes paused connections whose
  /// staging emptied. Returns false once the feed reports closed.
  bool flush_staged();
  bool stream_goal_met() const;
  void finalize_conn(uint64_t conn, ConnState& st, CloseReason reason);

  FrontendOptions opts_;
  EventLoop loop_;
  FrameFeed* feed_ = nullptr;  // valid only inside drive()
  uint16_t tcp_port_ = 0;
  uint16_t udp_port_ = 0;
  uint64_t tcp_listener_ = 0;
  uint64_t udp_sock_ = 0;
  bool bound_ = false;
  bool feed_closed_ = false;
  std::unordered_map<uint64_t, ConnState> conns_;
  ConnState udp_state_;  // staging + accounting for the datagram socket
  /// Frames whose connection closed before the feed had room; still owed.
  std::deque<SourcePacket> orphaned_;
  std::vector<ConnReport> reports_;
  uint64_t streams_finished_ = 0;  // clean TCP closes + FIN records
  uint64_t udp_fins_ = 0;

  // Telemetry (resolved once in the constructor).
  telemetry::Registry* registry_ = nullptr;
  telemetry::Counter* conns_accepted_ = nullptr;
  telemetry::Counter* conns_closed_ = nullptr;
  telemetry::Counter* conns_timeout_ = nullptr;
  telemetry::Counter* conns_slow_ = nullptr;
  telemetry::Counter* protocol_errors_ = nullptr;
  telemetry::Counter* frames_ = nullptr;
  telemetry::Counter* fins_ = nullptr;
  telemetry::Counter* bytes_ = nullptr;
  telemetry::Counter* shed_ = nullptr;
  telemetry::Counter* datagrams_ = nullptr;
  telemetry::Gauge* open_conns_ = nullptr;
  telemetry::Gauge* staged_depth_ = nullptr;
  telemetry::Gauge* staged_high_water_ = nullptr;
  size_t staged_total_ = 0;
};

}  // namespace lumen::netio
