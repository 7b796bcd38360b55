// gateway_mirai: the whole live path with a small working set. Two tenants'
// camera networks stream pre-encoded LUM1 records over loopback TCP into
// GatewayFrontend -> FlowShardRouter -> 1 shard consumer (compiled KitNET
// per tenant) -> AlertSink, one generator thread sending for both. One shard
// keeps the workload at three busy threads: with two, a drain waits for the
// slower shard, and on a shared host the shards' cores slow independently,
// so the closed-loop rate spread about twice as wide across runs.
//
// Phase A (open loop): 100k frames/s on a fixed schedule in 100 us ticks,
// in 0.5 s segments on fresh gateways, for 35% of --seconds. Latency runs
// from each record's scheduled send time, so a stall is charged to every
// record it delays. The rate is under a third of what the path sustains
// even when the shared host runs slow: at 200k frames/s, a slow spell
// queued records behind the consumer and the median latency of whole runs
// spread 18% where the closed-loop rate spread 4%. Phase B (closed loop):
// both streams sent as fast as the sockets take them, on fresh gateways,
// for 55% of --seconds: the rate the whole live path sustains.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "layers.h"

namespace e2e {

namespace {

constexpr double kPhaseARate = 100000.0;
constexpr size_t kShards = 1;
constexpr int64_t kTickNs = 100000;
constexpr size_t kChunk = 256;  // most records per send() call

struct Tenant {
  uint32_t id = 0;
  uint32_t base = 0;  // first global frame index of this tenant
  Capture cap;
  WireStream wire;
  core::OnlineKitsune det;
};
using Tenants = std::array<Tenant, 2>;

/// A blocking loopback TCP client (the load generator's connection).
class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { close(); }

  bool connect_to(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }

  bool send_all(const uint8_t* p, size_t n) {
    while (n > 0) {
      const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// One fresh gateway: runtime with both tenants registered, a bound
/// front-end, and one connected client per tenant that has sent its hello.
struct Gateway {
  lumen::telemetry::Registry reg;
  std::unique_ptr<core::IngestRuntime> rt;
  std::unique_ptr<netio::GatewayFrontend> fe;
  std::array<Client, 2> clients;
};

core::ScorerFactory tenant_factory(const core::OnlineKitsune& det,
                                   FrameLedger& ledger, SpanLog* spans,
                                   ScoreStats* score) {
  return [&det, &ledger, spans,
          score](size_t) -> std::unique_ptr<core::PacketScorer> {
    auto scorer = std::make_unique<core::KitsuneScorer>(det);
    if (spans == nullptr) return scorer;
    return std::make_unique<TracingScorer>(std::move(scorer), ledger, *spans,
                                           *score);
  };
}

std::unique_ptr<Gateway> open_gateway(const Tenants& tenants,
                                      FrameLedger& ledger, LatencySink& sink,
                                      SpanLog* spans, ScoreStats* score) {
  auto g = std::make_unique<Gateway>();
  core::IngestRuntime::Options opts;
  opts.shards = kShards;
  opts.registry = &g->reg;
  // Every frame carries tenant 1 or 2; the default scorer never runs.
  g->rt = std::make_unique<core::IngestRuntime>(
      opts,
      [](size_t) -> std::unique_ptr<core::PacketScorer> {
        return std::make_unique<core::FnScorer>(
            [](const netio::PacketView&) { return 0.0; }, 1.0);
      },
      &sink);
  for (const Tenant& t : tenants) {
    if (!g->rt->register_tenant(t.id,
                                tenant_factory(t.det, ledger, spans, score))) {
      throw std::runtime_error("register_tenant failed");
    }
  }
  netio::FrontendOptions fo;
  fo.registry = &g->reg;
  fo.min_streams = tenants.size();
  g->fe = std::make_unique<netio::GatewayFrontend>(fo);
  if (!g->fe->bind().ok()) throw std::runtime_error("front-end bind failed");
  for (size_t k = 0; k < tenants.size(); ++k) {
    const WireStream& w = tenants[k].wire;
    if (!g->clients[k].connect_to(g->fe->tcp_port()) ||
        !g->clients[k].send_all(w.bytes.data(), w.hello_end)) {
      throw std::runtime_error("generator could not connect");
    }
  }
  return g;
}

/// Train both tenants' detectors and open a gateway: the set-up a
/// deployment pays before its first frame.
std::unique_ptr<Gateway> set_up(Tenants& tenants, FrameLedger& ledger,
                                LatencySink& sink, SpanLog* spans,
                                ScoreStats* score) {
  for (Tenant& t : tenants) t.det = train_detector(t.cap);
  return open_gateway(tenants, ledger, sink, spans, score);
}

struct Drive {
  size_t sent[2] = {0, 0};  // records sent per tenant (a prefix of each)
  bool send_failed = false;
  double seconds = 0;  // first send to the runtime's return
  lumen::Result<core::IngestStats> stats = core::IngestStats{};
  size_t total() const { return sent[0] + sent[1]; }
};

/// Run the gateway while this thread sends `count` records, merged record
/// k going to tenant k % 2. With `rate` > 0 the load is open loop: record k
/// is due at start + k / rate and every 100 us tick sends each tenant's due
/// records. With `rate` == 0 it is closed loop: records go out as fast as
/// the sockets take them. Either way a send() carries at most kChunk
/// records and the tenants alternate.
Drive drive(Gateway& g, netio::SourceDriver& driver, const Tenants& tenants,
            FrameLedger& ledger, double rate, size_t count) {
  Drive d;
  std::thread runtime([&] { d.stats = g.rt->run(driver); });
  // Start once the event loop has accepted both streams, so the first
  // records are not charged for thread start-up.
  lumen::telemetry::Counter& accepted = g.reg.counter("frontend.conn.accepted");
  const int64_t wait_until = now_ns() + 5'000'000'000;
  while (accepted.value() < tenants.size() && now_ns() < wait_until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const bool paced = rate > 0;
  const double ns_per_rec = paced ? 1e9 / rate : 0.0;
  const int64_t start = now_ns();
  for (int64_t tick = start; d.total() < count && !d.send_failed;
       tick += kTickNs) {
    size_t due = count;
    if (paced) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::nanoseconds(tick))));
      due = std::min(count, static_cast<size_t>(
                                static_cast<double>(now_ns() - start) /
                                ns_per_rec) +
                                1);
    }
    for (size_t t = 0; t < 2 && !d.send_failed; ++t) {
      const size_t lo = d.sent[t];
      // merged indices below `due` with parity t, at most kChunk of them
      const size_t hi = std::min((due + 1 - t) / 2, lo + kChunk);
      if (hi <= lo) continue;
      const Tenant& tn = tenants[t];
      const int64_t stamp = now_ns();
      for (size_t j = lo; j < hi; ++j) {
        const size_t gi = tn.base + j;
        ledger.release[gi] =
            paced ? start + std::llround(static_cast<double>(2 * j + t) *
                                         ns_per_rec)
                  : stamp;
        ledger.sent[gi] = stamp;
      }
      const size_t from = lo == 0 ? tn.wire.hello_end : tn.wire.ends[lo - 1];
      d.send_failed = !g.clients[t].send_all(tn.wire.bytes.data() + from,
                                             tn.wire.ends[hi - 1] - from);
      d.sent[t] = hi;
    }
  }
  std::vector<uint8_t> fin;
  netio::append_fin(fin);
  for (Client& c : g.clients) {
    c.send_all(fin.data(), fin.size());
    c.close();
  }
  runtime.join();
  d.seconds = static_cast<double>(now_ns() - start) / 1e9;
  return d;
}

/// Accounting checks every gateway run must pass.
void check_run(const Drive& d, size_t count, const Gateway& g,
               const FrameLedger& ledger, Outcome& out) {
  out.check(!d.send_failed && d.total() == count, "generator send failed");
  out.check(d.stats.ok(), "runtime run failed");
  if (d.stats.ok()) {
    const core::IngestStats& s = d.stats.value();
    out.check(s.enqueued == d.total(), "enqueued != sent");
    out.check(s.scored + s.parse_skipped == s.enqueued - s.dropped,
              "scored + parse_skipped != enqueued - dropped");
  }
  out.check(g.reg.snapshot().counter_value("frontend.protocol_errors") == 0,
            "front-end protocol errors");
  out.check(ledger.duplicates == 0, "frames delivered twice");
}

}  // namespace

Outcome run_gateway_mirai(const RunConfig& cfg) {
  Outcome out;
  // Hold glibc's mmap threshold at its initial 128 KiB. Left to adapt, it
  // rises as large blocks are freed, and each drain's peak then depends on
  // what earlier drains left in the heap: 345-455 MB per drain, against
  // 292 +- 0.3 MB held fixed, with the same rate.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const double segment_s = cfg.smoke ? 0.2 : 0.5;
  const size_t segment =
      static_cast<size_t>(kPhaseARate * segment_s) & ~size_t{1};
  const size_t per_tenant = cfg.smoke ? 20000 : 100000;

  Tenants tenants;
  for (uint32_t t = 0; t < 2; ++t) {
    Tenant& tn = tenants[t];
    tn.id = t + 1;
    tn.base = t * static_cast<uint32_t>(per_tenant);
    tn.cap = camera_mirai(cfg.seed * 2 + t, per_tenant);
    tn.wire = encode_stream(tn.cap, tn.id, tn.base);
  }
  const size_t frames = 2 * per_tenant;

  FrameLedger ledger;
  LatencySink sink(ledger);
  SpanLog spans;
  ScoreStats score;
  SpanLog* span_log = cfg.trace ? &spans : nullptr;

  // One set-up precedes every third segment and drain, so their median
  // spans the run. Training is deterministic, so each set-up leaves the
  // tenants' detectors as the first one did.
  SpeedClock clock;
  Reps setups;
  const auto time_set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto g = set_up(tenants, ledger, sink, span_log, &score);
    setups.add(seconds_since(t0), clock.next());
  };
  clock.start();
  time_set_up();

  // References, outside every timed region: per tenant, one sequential
  // detector over its frames (with one shard, that is also the per-shard
  // reference).
  std::array<std::vector<double>, 2> global;
  std::vector<std::function<void()>> tasks;
  for (size_t t = 0; t < 2; ++t) {
    global[t].assign(per_tenant, 0.0);
    tasks.push_back([&, t] {
      score_sequential(tenants[t].det, tenants[t].cap, per_tenant, nullptr, 0,
                       global[t]);
    });
  }
  run_tasks(std::move(tasks), 2);
  uint64_t delivered = 0, mismatched = 0;
  // Delivered frames of one run, each checked against the references.
  const auto collect = [&](const Drive& d, std::vector<double>* latency) {
    for (size_t t = 0; t < 2; ++t) {
      for (size_t j = 0; j < d.sent[t]; ++j) {
        const size_t gi = tenants[t].base + j;
        if (ledger.delivered[gi] == 0) continue;
        ++delivered;
        const double sc = ledger.score[gi];
        mismatched += !same_bits(sc, global[t][j]);
        if (latency != nullptr) {
          latency->push_back(
              static_cast<double>(ledger.delivered[gi] - ledger.release[gi]) /
              1e6);
        }
      }
    }
  };

  std::vector<double> p999, peaks;
  Reps p50, rates;
  uint64_t phase_a_frames = 0;
  uint64_t sent = 0;
  lumen::telemetry::Snapshot snap;
  FeedStats feed;
  int64_t drive_ns = 0;
  const int min_runs = cfg.smoke ? 1 : 5;
  Clock::time_point start = Clock::now();
  for (int seg = 0; seg < min_runs || seconds_since(start) < 0.35 * cfg.seconds;
       ++seg) {
    if (seg % 3 == 2) time_set_up();
    ledger.reset(frames, cfg.trace);
    auto g = open_gateway(tenants, ledger, sink, span_log, &score);
    std::optional<TracingDriver> traced;
    if (cfg.trace) traced.emplace(*g->fe, ledger, spans);
    netio::SourceDriver& driver =
        traced ? static_cast<netio::SourceDriver&>(*traced) : *g->fe;
    const Drive d = drive(*g, driver, tenants, ledger, kPhaseARate, segment);
    const double speed = clock.next();
    check_run(d, segment, *g, ledger, out);
    snap = g->reg.snapshot();
    if (traced) {
      feed = traced->stats();
      drive_ns = traced->drive_ns();
    }
    sent += d.total();
    std::vector<double> latency;
    collect(d, &latency);
    phase_a_frames += latency.size();
    const Latency lat = latency_of(std::move(latency));
    p50.add(lat.p50_ms, speed);
    p999.push_back(lat.p999_ms);
  }
  // Every segment sends the same frames; the last one's ledger holds them.
  uint64_t tp = 0, fp = 0, fn = 0;
  for (size_t t = 0; t < 2; ++t) {
    const double thr = tenants[t].det.threshold();
    for (size_t j = 0; j < segment / 2; ++j) {
      const size_t gi = tenants[t].base + j;
      if (ledger.delivered[gi] == 0) continue;
      const bool alert = ledger.score[gi] > thr;
      const bool bad = tenants[t].cap.labels[j] != 0;
      tp += alert && bad;
      fp += alert && !bad;
      fn += !alert && bad;
    }
  }
  const LedgerSummary phase_a = summarize_ledger(ledger);

  if (!cfg.trace) {
    start = Clock::now();
    for (int k = 0;
         k < min_runs || seconds_since(start) < 0.55 * cfg.seconds; ++k) {
      if (k % 3 == 2) time_set_up();
      // Peak memory per drain, reported as the median over drains: one peak
      // over the whole run is the worst drain's, which varies run to run.
      reset_peak_rss();
      ledger.reset(frames, false);
      auto g = open_gateway(tenants, ledger, sink, nullptr, nullptr);
      const Drive d = drive(*g, *g->fe, tenants, ledger, 0.0, frames);
      const double speed = clock.next();
      peaks.push_back(peak_rss_mb());
      check_run(d, frames, *g, ledger, out);
      sent += d.total();
      const uint64_t before = delivered;
      collect(d, nullptr);
      rates.add(static_cast<double>(delivered - before) / d.seconds, speed);
    }
  }
  out.check(mismatched == 0,
            std::to_string(mismatched) +
                " scores differ from the sequential reference");
  out.attempted = sent;
  out.failed = sent - delivered;

  if (!cfg.trace) {
    out.add("throughput_per_s", rates.rate(), "1/s", rates.size());
    out.add("latency_p50_ms", p50.time(), "ms", phase_a_frames);
    out.add("setup_s", setups.time(), "s", setups.size());
    out.add("peak_rss_mb", median(peaks), "MB", peaks.size());
    out.add("detect_f1", f1_score(tp, fp, fn), "ratio", segment);
    out.note("throughput_raw_per_s", rates.raw(), "1/s", rates.size());
    out.note("latency_p50_raw_ms", p50.raw(), "ms", phase_a_frames);
    out.note("latency_p999_ms", median(p999), "ms", phase_a_frames);
    out.note("setup_raw_s", setups.raw(), "s", setups.size());
  } else {
    standalone_passes(tenants[0].cap, tenants[0].det, kShards, per_tenant, out);
    ledger_metrics(ledger, score, snap, kShards, out);
    out.note("netio.offer_busy_frac",
             drive_ns == 0 ? 0.0
                           : static_cast<double>(feed.offer_ns + feed.wait_ns) /
                                 static_cast<double>(drive_ns),
             "ratio");
    add_frame_spans(ledger, spans, 256);
    if (!spans.write(cfg.spans_path, ledger.release[0])) {
      out.check(false, "could not write " + cfg.spans_path);
    }
  }
  out.note("gen.lag_p99_ms", phase_a.lag_p99_ms, "ms", segment);
  if (phase_a.lag_p99_ms > 1.0) {
    std::printf("warning: generator lag p99 %.3f ms > 1 ms; latency includes "
                "generator delay\n",
                phase_a.lag_p99_ms);
  }
  out.note("netio.staged_high_water",
           snap.gauge_value("frontend.staged.high_water"), "count");
  out.note("netio.shed", static_cast<double>(snap.counter_value("frontend.shed")),
           "count");
  return out;
}

}  // namespace e2e
