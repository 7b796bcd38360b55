#include "netio/frontend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/options.h"

namespace lumen::netio {

namespace {

double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void put_f64(std::vector<uint8_t>& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<uint8_t>(bits >> (8 * i)));
}

uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

double get_f64(const uint8_t* p) {
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<uint64_t>(p[i]) << (8 * i);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// The header checks of one record, for the TCP and the datagram decoder:
/// a known kind, a frame within `max_frame`, and a frame timestamp that is
/// finite and in [0, 2^32) s, pcap's range (else it overflows the window
/// index or reads as a damped statistic's unset clock).
bool record_ok(const uint8_t* h, uint32_t max_frame) {
  const double ts = get_f64(h + 8);
  return h[0] <= WireFormat::kFin && get_u32(h + 20) <= max_frame &&
         (h[0] == WireFormat::kFin || (ts >= 0.0 && ts < 4294967296.0));
}

/// Write the packet a frame record that passed record_ok carries into
/// `sp`, reusing its buffer.
void decode_frame(const uint8_t* h, uint32_t tenant, SourcePacket& sp) {
  sp.capture_index = get_u32(h + 4);
  sp.tenant = tenant;
  sp.pkt.ts = get_f64(h + 8);
  sp.pkt.orig_len = get_u32(h + 16);
  const uint8_t* frame = h + WireFormat::kRecordBytes;
  sp.pkt.data.assign(frame, frame + get_u32(h + 20));
}

Error sys_error(const char* where, const char* what) {
  return Error::make(where, std::string(what) + ": " + std::strerror(errno));
}

/// Blocking connect to addr:port; returns the fd or -1.
int connect_tcp(const std::string& addr, uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire format + client helpers

void append_hello(std::vector<uint8_t>& out, uint32_t tenant, LinkType link) {
  put_u32(out, WireFormat::kMagic);
  put_u32(out, tenant);
  put_u32(out, static_cast<uint32_t>(link));
}

void append_record(std::vector<uint8_t>& out, const RawPacket& pkt,
                   uint32_t capture_index) {
  out.push_back(WireFormat::kFrame);
  out.push_back(0);
  put_u16(out, 0);
  put_u32(out, capture_index);
  put_f64(out, pkt.ts);
  put_u32(out, pkt.orig_len);
  put_u32(out, static_cast<uint32_t>(pkt.data.size()));
  out.insert(out.end(), pkt.data.begin(), pkt.data.end());
}

void append_fin(std::vector<uint8_t>& out) {
  out.push_back(WireFormat::kFin);
  out.push_back(0);
  put_u16(out, 0);
  put_u32(out, 0);
  put_f64(out, 0.0);
  put_u32(out, 0);
  put_u32(out, 0);
}

Result<void> send_trace_tcp(const std::string& addr, uint16_t port,
                            const Trace& trace, uint32_t tenant, size_t begin,
                            size_t end) {
  const int fd = connect_tcp(addr, port);
  if (fd < 0) return sys_error("send_trace_tcp", "connect");
  std::vector<uint8_t> buf;
  buf.reserve(1 << 20);
  append_hello(buf, tenant, trace.link);
  const size_t stop = end < trace.raw.size() ? end : trace.raw.size();
  bool ok = true;
  for (size_t i = begin; i < stop && ok; ++i) {
    // Mirror TraceReplaySource: a parsed trace keeps each packet's original
    // capture index in the view (what label arrays align with).
    const uint32_t idx = i < trace.view.size() ? trace.view[i].index
                                               : static_cast<uint32_t>(i);
    append_record(buf, trace.raw[i], idx);
    if (buf.size() >= (1 << 20)) {
      ok = send_all(fd, buf.data(), buf.size());
      buf.clear();
    }
  }
  if (ok) {
    append_fin(buf);
    ok = send_all(fd, buf.data(), buf.size());
  }
  ::close(fd);
  if (!ok) return sys_error("send_trace_tcp", "send");
  return {};
}

Result<void> send_trace_udp(const std::string& addr, uint16_t port,
                            const Trace& trace, uint32_t tenant, size_t begin,
                            size_t end, size_t pace_every, unsigned pace_us) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1)
    return Error::make("send_trace_udp", "bad address: " + addr);
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("send_trace_udp", "socket");
  std::vector<uint8_t> dgram;
  const size_t stop = end < trace.raw.size() ? end : trace.raw.size();
  size_t sent = 0;
  for (size_t i = begin; i <= stop; ++i) {
    dgram.clear();
    append_hello(dgram, tenant, trace.link);
    if (i < stop)
      append_record(dgram, trace.raw[i],
                    i < trace.view.size() ? trace.view[i].index
                                          : static_cast<uint32_t>(i));
    else
      append_fin(dgram);
    for (;;) {
      const ssize_t w =
          ::sendto(fd, dgram.data(), dgram.size(), 0,
                   reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
      if (w >= 0) break;
      if (errno == EINTR) continue;
      ::close(fd);
      return sys_error("send_trace_udp", "sendto");
    }
    if (pace_every != 0 && ++sent % pace_every == 0 && pace_us != 0) {
      timespec nap{0, static_cast<long>(pace_us) * 1000};
      nanosleep(&nap, nullptr);
    }
  }
  ::close(fd);
  return {};
}

// ---------------------------------------------------------------------------
// ReplayDriver

Result<void> ReplayDriver::drive(FrameFeed& feed,
                                 const std::atomic<bool>& stop) {
  SourcePacket sp;
  while (!stop.load(std::memory_order_relaxed) && source_.next(sp)) {
    sp.tenant = tenant_;
    for (;;) {
      const FeedStatus s = feed.offer(sp);
      if (s == FeedStatus::kAccepted || s == FeedStatus::kShed) break;
      if (s == FeedStatus::kClosed) return {};
      if (!feed.wait_ready()) return {};  // kBusy: block like the old push
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// FrontendOptions

FrontendOptions FrontendOptions::normalized(FrontendOptions opts,
                                            std::string* diagnostic) {
  OptionNormalizer norm("frontend");
  norm.default_if_empty(opts.bind_address, "bind_address", "127.0.0.1");
  norm.default_if_empty(opts.instrument_prefix, "instrument_prefix",
                        "frontend.");
  // A record (header and frame) must fit the loop's per-connection buffer,
  // or it can never complete.
  norm.clamp(opts.max_frame_bytes, size_t{64},
             EventLoop::kMaxConnBuffer - WireFormat::kRecordBytes,
             "max_frame_bytes");
  norm.clamp(opts.pending_frames, size_t{1}, size_t{1} << 20,
             "pending_frames");
  norm.clamp(opts.min_streams, size_t{1}, size_t{1} << 20, "min_streams");
  norm.clamp(opts.udp_rcvbuf, size_t{64} << 10, size_t{64} << 20,
             "udp_rcvbuf");
  norm.clamp(opts.drain_grace, 0.05, 60.0, "drain_grace");
  std::string loop_diag;
  opts.loop = EventLoop::Options::normalized(opts.loop, &loop_diag);
  std::string mine = norm.diagnostic();
  if (!loop_diag.empty())
    mine = mine.empty() ? loop_diag : mine + "; " + loop_diag;
  if (diagnostic != nullptr) *diagnostic = mine;
  return opts;
}

// ---------------------------------------------------------------------------
// GatewayFrontend

void GatewayFrontend::FrameQueue::push(SourcePacket& sp) {
  if (size_ == slots_.size()) {
    // Grow by doubling, oldest frame first in the new ring.
    std::vector<SourcePacket> bigger(std::max<size_t>(16, 2 * size_));
    for (size_t i = 0; i < size_; ++i) {
      std::swap(bigger[i], slots_[(head_ + i) % slots_.size()]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }
  std::swap(slots_[(head_ + size_) % slots_.size()], sp);
  ++size_;
}

void GatewayFrontend::FrameQueue::pop() {
  release_if_oversized(slots_[head_]);
  head_ = (head_ + 1) % slots_.size();
  --size_;
}

GatewayFrontend::GatewayFrontend(FrontendOptions opts)
    : opts_(FrontendOptions::normalized(std::move(opts), nullptr)),
      loop_(opts_.loop, *this) {
  registry_ = opts_.registry != nullptr ? opts_.registry
                                        : &telemetry::Registry::process();
  const std::string& p = opts_.instrument_prefix;
  conns_accepted_ = &registry_->counter(p + "conn.accepted");
  conns_closed_ = &registry_->counter(p + "conn.closed");
  conns_timeout_ = &registry_->counter(p + "conn.idle_closed");
  conns_slow_ = &registry_->counter(p + "conn.slow_closed");
  protocol_errors_ = &registry_->counter(p + "protocol_errors");
  frames_ = &registry_->counter(p + "frames");
  fins_ = &registry_->counter(p + "fins");
  bytes_ = &registry_->counter(p + "bytes");
  shed_ = &registry_->counter(p + "shed");
  datagrams_ = &registry_->counter(p + "datagrams");
  open_conns_ = &registry_->gauge(p + "conn.open");
  staged_depth_ = &registry_->gauge(p + "staged.depth");
  staged_high_water_ = &registry_->gauge(p + "staged.high_water");
}

GatewayFrontend::~GatewayFrontend() = default;

Result<void> GatewayFrontend::bind() {
  if (bound_) return {};
  auto init = loop_.init();
  if (!init.ok()) return init.error();
  if (opts_.tcp) {
    auto lr = loop_.listen_tcp(opts_.bind_address, opts_.tcp_port);
    if (!lr.ok()) return lr.error();
    tcp_listener_ = lr.value();
    tcp_port_ = loop_.port_of(tcp_listener_);
  }
  if (opts_.udp) {
    auto ur =
        loop_.open_udp(opts_.bind_address, opts_.udp_port, opts_.udp_rcvbuf);
    if (!ur.ok()) return ur.error();
    udp_sock_ = ur.value();
    udp_port_ = loop_.port_of(udp_sock_);
    udp_state_.hello_done = true;  // per-datagram hellos; no stream state
    udp_state_.report.peer = "udp";
  }
  bound_ = true;
  return {};
}

bool GatewayFrontend::on_open(uint64_t conn, const std::string& peer) {
  telemetry::Span span(registry_, opts_.instrument_prefix + "accept", peer);
  ConnState st;
  st.report.id = conn;
  st.report.peer = peer;
  st.accepted_at = mono_now();
  conns_.emplace(conn, std::move(st));
  conns_accepted_->add(1);
  open_conns_->set(static_cast<double>(loop_.open_connections()));
  return true;
}

size_t GatewayFrontend::on_data(uint64_t conn, const uint8_t* data,
                                size_t n) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return EventLoop::kAbort;
  ConnState& st = it->second;
  size_t used = 0;
  if (!st.hello_done) {
    if (n < WireFormat::kHelloBytes) return 0;
    if (get_u32(data) != WireFormat::kMagic) return EventLoop::kAbort;
    st.tenant = get_u32(data + 4);
    const uint32_t link = get_u32(data + 8);
    if (link != static_cast<uint32_t>(opts_.link)) return EventLoop::kAbort;
    st.report.tenant = st.tenant;
    st.hello_done = true;
    used = WireFormat::kHelloBytes;
  }
  const size_t rec =
      decode_records(conn, st, data + used, n - used);
  if (rec == EventLoop::kAbort) return EventLoop::kAbort;
  return used + rec;
}

size_t GatewayFrontend::decode_records(uint64_t conn, ConnState& st,
                                       const uint8_t* data, size_t n) {
  size_t off = 0;
  while (n - off >= WireFormat::kRecordBytes) {
    const uint8_t* h = data + off;
    if (!record_ok(h, opts_.max_frame_bytes)) return EventLoop::kAbort;
    const uint32_t incl_len = get_u32(h + 20);
    if (n - off < WireFormat::kRecordBytes + incl_len) break;
    if (h[0] == WireFormat::kFin) {
      if (!st.report.fin) {
        st.report.fin = true;
        ++streams_finished_;
        fins_->add(1);
      }
      off += WireFormat::kRecordBytes;
      continue;
    }
    decode_frame(h, st.tenant, spare_);
    off += WireFormat::kRecordBytes + incl_len;
    ++st.report.frames;
    st.report.bytes += incl_len;
    frames_->add(1);
    bytes_->add(incl_len);
    route_frame(conn, st);
    if (feed_closed_) return EventLoop::kAbort;
    // Backpressure paused this connection: stop decoding so the rest of
    // the bytes stay buffered (bounded) until the feed has room.
    if (conn != udp_sock_ && !opts_.shed_when_saturated &&
        st.staged.size() >= opts_.pending_frames)
      break;
  }
  return off;
}

void GatewayFrontend::route_frame(uint64_t conn, ConnState& st) {
  if (feed_ == nullptr || feed_closed_) return;
  // Preserve arrival order: once anything is staged for this connection,
  // new frames queue behind it rather than jumping to the feed.
  if (st.staged.empty()) {
    const FeedStatus s = feed_->offer(spare_);
    if (s == FeedStatus::kAccepted || s == FeedStatus::kShed) return;
    if (s == FeedStatus::kClosed) {
      feed_closed_ = true;
      return;
    }
  }
  // kBusy (or already staging): stage up to the cap, then pause / shed.
  if (st.staged.size() >= opts_.pending_frames) {
    const bool is_udp = conn == udp_sock_;
    if (opts_.shed_when_saturated || is_udp) {
      ++st.report.shed;
      shed_->add(1);
      feed_->account_shed(1);
      return;
    }
    // TCP lossless path: pause below (decode loop stops); still stage
    // this frame — it is already decoded and owed to the feed.
  }
  st.staged.push(spare_);
  ++staged_total_;
  staged_depth_->set(static_cast<double>(staged_total_));
  staged_high_water_->update_max(static_cast<double>(staged_total_));
  if (conn != udp_sock_ && !opts_.shed_when_saturated &&
      st.staged.size() >= opts_.pending_frames)
    loop_.pause(conn);
}

void GatewayFrontend::on_datagram(uint64_t sock, const uint8_t* data,
                                  size_t n) {
  datagrams_->add(1);
  if (n < WireFormat::kHelloBytes + WireFormat::kRecordBytes ||
      get_u32(data) != WireFormat::kMagic ||
      get_u32(data + 8) != static_cast<uint32_t>(opts_.link)) {
    protocol_errors_->add(1);
    return;
  }
  const uint32_t tenant = get_u32(data + 4);
  const uint8_t* h = data + WireFormat::kHelloBytes;
  const uint32_t incl_len = get_u32(h + 20);
  if (!record_ok(h, opts_.max_frame_bytes) ||
      n < WireFormat::kHelloBytes + WireFormat::kRecordBytes + incl_len) {
    protocol_errors_->add(1);
    return;
  }
  if (h[0] == WireFormat::kFin) {
    ++udp_fins_;
    ++streams_finished_;
    fins_->add(1);
    return;
  }
  decode_frame(h, tenant, spare_);
  ++udp_state_.report.frames;
  udp_state_.report.bytes += incl_len;
  frames_->add(1);
  bytes_->add(incl_len);
  route_frame(sock, udp_state_);
}

void GatewayFrontend::on_close(uint64_t conn, CloseReason reason) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  finalize_conn(conn, it->second, reason);
  conns_.erase(it);
  conns_closed_->add(1);
  if (reason == CloseReason::kIdleTimeout) conns_timeout_->add(1);
  if (reason == CloseReason::kSlowClient) conns_slow_->add(1);
  if (reason == CloseReason::kProtocolError) protocol_errors_->add(1);
  open_conns_->set(static_cast<double>(loop_.open_connections()));
}

void GatewayFrontend::finalize_conn(uint64_t conn, ConnState& st,
                                    CloseReason reason) {
  (void)conn;
  // A clean close without a FIN record still ends the stream (EOF is the
  // framing boundary for TCP); count it toward the drain goal once.
  if (reason == CloseReason::kPeerClosed && st.hello_done && !st.report.fin) {
    st.report.fin = true;
    ++streams_finished_;
  }
  // Frames decoded but never delivered: hand them to the orphan queue so
  // the feed still receives every frame the wire carried.
  while (!st.staged.empty()) {
    orphaned_.push(st.staged.front());
    st.staged.pop();
  }
  st.report.close_reason = reason;
  reports_.push_back(st.report);
}

bool GatewayFrontend::flush_staged() {
  if (feed_ == nullptr) return false;
  // Orphaned frames (their connection already closed) go first.
  while (!orphaned_.empty()) {
    const FeedStatus s = feed_->offer(orphaned_.front());
    if (s == FeedStatus::kBusy) return true;
    if (s == FeedStatus::kClosed) {
      feed_closed_ = true;
      return false;
    }
    orphaned_.pop();
    --staged_total_;
  }
  flush_ids_.clear();
  for (const auto& [id, st] : conns_)
    if (!st.staged.empty()) flush_ids_.push_back(id);
  const bool udp_pending = !udp_state_.staged.empty();
  for (uint64_t id : flush_ids_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ConnState& st = it->second;
    while (!st.staged.empty()) {
      const FeedStatus s = feed_->offer(st.staged.front());
      if (s == FeedStatus::kBusy) return true;
      if (s == FeedStatus::kClosed) {
        feed_closed_ = true;
        return false;
      }
      st.staged.pop();
      --staged_total_;
    }
    // Staging drained: reopen the tap. resume() may re-enter on_data and
    // restage; that is fine — order is preserved through the queue.
    loop_.resume(id);
  }
  if (udp_pending) {
    while (!udp_state_.staged.empty()) {
      const FeedStatus s = feed_->offer(udp_state_.staged.front());
      if (s == FeedStatus::kBusy) return true;
      if (s == FeedStatus::kClosed) {
        feed_closed_ = true;
        return false;
      }
      udp_state_.staged.pop();
      --staged_total_;
    }
  }
  staged_depth_->set(static_cast<double>(staged_total_));
  return true;
}

bool GatewayFrontend::stream_goal_met() const {
  return streams_finished_ >= opts_.min_streams;
}

Result<void> GatewayFrontend::drive(FrameFeed& feed,
                                    const std::atomic<bool>& stop) {
  auto bound = bind();
  if (!bound.ok()) return bound.error();
  feed_ = &feed;
  feed_closed_ = false;
  telemetry::Span drive_span(registry_, opts_.instrument_prefix + "drive");
  bool draining = false;
  double drain_deadline = 0;
  for (;;) {
    if (!draining && (stop.load(std::memory_order_relaxed) ||
                      (opts_.stop_when_drained && stream_goal_met()))) {
      // Graceful shutdown: no new connections; established ones finish.
      loop_.shutdown(/*abort_connections=*/false);
      draining = true;
      drain_deadline = mono_now() + opts_.drain_grace;
    }
    // While frames are staged (backpressure in effect) poll with a 1 ms
    // cap: the bottleneck is the feed, not the sockets, and every cycle is
    // a flush opportunity. Idle, block up to poll_interval_ms.
    auto polled = loop_.poll_once(staged_total_ != 0 ? 1 : -1);
    if (!polled.ok()) {
      loop_.shutdown(true);
      feed_ = nullptr;
      return polled.error();
    }
    {
      telemetry::Span flush_span(registry_,
                                 opts_.instrument_prefix + "flush");
      flush_span.set_value(staged_total_);
      flush_staged();
    }
    if (feed_closed_) {
      loop_.shutdown(/*abort_connections=*/true);
      break;
    }
    if (draining) {
      if (loop_.drained() && staged_total_ == 0) break;
      if (mono_now() > drain_deadline) {
        loop_.shutdown(/*abort_connections=*/true);
        // One last flush so aborted connections' orphans reach the feed.
        flush_staged();
        break;
      }
    }
  }
  // Aborted teardown can leave frames the feed never took; account them
  // as shed so the wire-level counts still reconcile exactly.
  if (staged_total_ != 0 && !feed_closed_) flush_staged();
  const uint64_t leftover = orphaned_.size() + udp_state_.staged.size();
  if (leftover != 0) {
    shed_->add(leftover);
    if (!feed_closed_) feed_->account_shed(leftover);
    orphaned_.clear();
    udp_state_.staged.clear();
    staged_total_ = 0;
  }
  if (udp_state_.report.frames != 0 || udp_fins_ != 0) {
    udp_state_.report.close_reason = CloseReason::kShutdown;
    udp_state_.report.fin = udp_fins_ != 0;
    reports_.push_back(udp_state_.report);
  }
  feed_ = nullptr;
  return {};
}

}  // namespace lumen::netio
