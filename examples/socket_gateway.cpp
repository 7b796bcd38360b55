// Live socket gateway walkthrough: the event-driven front-end end to end.
//
// Two IoT sites stream captures to one gateway over loopback TCP, each
// authenticated to its own tenant. The gateway multiplexes both
// connections through a single epoll loop on the ingest producer thread,
// decodes the record framing, and routes each tenant's packets to that
// tenant's own scorer. Mid-run, tenant 2's model is hot-swapped with
// deploy(tenant, factory) — tenant 1's detector keeps its streaming state
// untouched, and the swap is visible in the per-tenant telemetry.
//
//   ./socket_gateway
#include <cstdio>
#include <map>
#include <thread>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "netio/frontend.h"
#include "trace/registry.h"

namespace {

using namespace lumen;

// Threshold-on-length toy scorers so the swap is visible in the output;
// swap in core::OnlineKitsune (see live_detection.cpp) for a real model.
core::ScorerFactory length_scorer(double threshold) {
  return [threshold](size_t) {
    return std::make_unique<core::FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.wire_len);
        },
        threshold);
  };
}

class CountingSink : public core::AlertSink {
 public:
  void on_alert(const core::Alert& a) override {
    ++alerts_by_tenant_[a.tenant];
  }
  size_t alerts(uint32_t tenant) const {
    auto it = alerts_by_tenant_.find(tenant);
    return it == alerts_by_tenant_.end() ? 0 : it->second;
  }

 private:
  std::map<uint32_t, size_t> alerts_by_tenant_;
};

}  // namespace

int main() {
  // Two captures: a Mirai infection (P1) and an OS-scan sweep (P3).
  std::printf("Generating site captures...\n");
  const trace::Dataset site1 = trace::make_dataset("P1", 0.2);
  const trace::Dataset site2 = trace::make_dataset("P3", 0.2);

  // The runtime: one shard, per-tenant scorers registered up front.
  // Both tenants start with an insensitive model (threshold 10 kB — it
  // alerts on nearly nothing).
  telemetry::Registry reg;
  core::IngestRuntime::Options opts;
  opts.registry = &reg;
  CountingSink sink;
  core::IngestRuntime rt(opts, length_scorer(1e9), &sink);
  rt.register_tenant(1, length_scorer(10000.0));
  rt.register_tenant(2, length_scorer(10000.0));

  // The gateway front-end: a TCP listener on an ephemeral loopback port,
  // driven by the runtime's producer thread inside rt.run(fe).
  netio::FrontendOptions fopts;
  fopts.link = site1.trace.link;
  // Each send_trace_tcp call is one connection = one stream: site 1 sends
  // one, site 2 sends two bursts. Drain once all three finished.
  fopts.min_streams = 3;
  fopts.registry = &reg;
  netio::GatewayFrontend fe(fopts);
  if (auto b = fe.bind(); !b.ok()) {
    std::fprintf(stderr, "bind: %s\n", b.error().message.c_str());
    return 1;
  }
  std::printf("Gateway listening on 127.0.0.1:%u\n", fe.tcp_port());

  // Site clients. send_trace_tcp is the reference client: hello (magic,
  // tenant, link), then one length-prefixed record per packet carrying
  // the original capture index and exact timestamp, then FIN.
  std::thread client1([&] {
    auto s = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(),
                                   site1.trace, /*tenant=*/1);
    if (!s.ok()) std::fprintf(stderr, "site1: %s\n", s.error().message.c_str());
  });
  const size_t half = site2.trace.raw.size() / 2;
  std::thread client2([&] {
    // Site 2 streams in two bursts so the hot swap lands between them.
    auto s1 = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), site2.trace,
                                    /*tenant=*/2, 0, half);
    if (!s1.ok()) std::fprintf(stderr, "site2: %s\n",
                               s1.error().message.c_str());
    // Wait until the gateway scored the first burst, then the operator
    // deploys a retrained (much more sensitive) model for tenant 2 ONLY.
    while (reg.snapshot().counter_value("ingest.tenant2.scored") < half) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    rt.deploy(2, length_scorer(60.0));
    std::printf("deployed sensitive model for tenant 2 (tenant 1 untouched)\n");
    auto s2 = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), site2.trace,
                                    /*tenant=*/2, half);
    if (!s2.ok()) std::fprintf(stderr, "site2: %s\n",
                               s2.error().message.c_str());
  });

  // Drive the gateway: this thread runs the epoll loop until both streams
  // finished and every connection drained.
  auto stats = rt.run(fe);
  client1.join();
  client2.join();
  if (!stats.ok()) {
    std::fprintf(stderr, "run: %s\n", stats.error().message.c_str());
    return 1;
  }

  // Per-connection accounting from the front-end...
  std::printf("\n%-6s %-21s %-8s %-8s %-6s %s\n", "tenant", "peer", "frames",
              "bytes", "shed", "close");
  for (const netio::ConnReport& r : fe.connections()) {
    std::printf("%-6u %-21s %-8llu %-8llu %-6llu %s\n", r.tenant,
                r.peer.c_str(), static_cast<unsigned long long>(r.frames),
                static_cast<unsigned long long>(r.bytes),
                static_cast<unsigned long long>(r.shed),
                netio::close_reason_name(r.close_reason));
  }

  // ...and the runtime + gateway telemetry, scraped from one registry.
  const telemetry::Snapshot snap = reg.snapshot();
  std::printf("\ntenant 1: scored %llu  alerted %llu  swaps %llu\n",
              static_cast<unsigned long long>(
                  snap.counter_value("ingest.tenant1.scored")),
              static_cast<unsigned long long>(
                  snap.counter_value("ingest.tenant1.alerted")),
              static_cast<unsigned long long>(
                  snap.counter_value("ingest.tenant1.swaps_applied")));
  std::printf("tenant 2: scored %llu  alerted %llu  swaps %llu\n",
              static_cast<unsigned long long>(
                  snap.counter_value("ingest.tenant2.scored")),
              static_cast<unsigned long long>(
                  snap.counter_value("ingest.tenant2.alerted")),
              static_cast<unsigned long long>(
                  snap.counter_value("ingest.tenant2.swaps_applied")));
  std::printf("gateway : conns %llu  frames %llu  protocol errors %llu  "
              "shed %llu\n",
              static_cast<unsigned long long>(
                  snap.counter_value("frontend.conn.accepted")),
              static_cast<unsigned long long>(
                  snap.counter_value("frontend.frames")),
              static_cast<unsigned long long>(
                  snap.counter_value("frontend.protocol_errors")),
              static_cast<unsigned long long>(
                  snap.counter_value("frontend.shed")));
  std::printf("sink    : tenant1 alerts %zu, tenant2 alerts %zu "
              "(the swap shows up here)\n",
              sink.alerts(1), sink.alerts(2));
  return 0;
}
