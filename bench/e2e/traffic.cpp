#include "traffic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "trace/attacks.h"
#include "trace/sim.h"

namespace e2e {

namespace tr = lumen::trace;

namespace {

tr::BenignStyle camera_style() {
  tr::BenignStyle s;
  s.iat_scale = 0.5;
  s.size_scale = 2.5;
  s.w_http = 0.6;
  s.w_dns = 0.5;
  s.w_mqtt = 0.2;
  s.w_ntp = 0.6;
  s.w_tls = 2.0;
  s.w_telnet = 0.1;
  return s;
}

/// Split a generated capture at the first frame at or after `live_start`
/// (seconds): frames before it train the detector, the next `live_frames`
/// are the live stream.
Capture split(tr::Dataset ds, double live_start, size_t live_frames) {
  netio::Trace& t = ds.trace;
  if (t.view.size() != t.raw.size()) {
    throw std::runtime_error("generated capture has unparseable frames");
  }
  size_t cut = 0;
  while (cut < t.raw.size() && t.raw[cut].ts < live_start) ++cut;
  const size_t end = std::min(t.raw.size(), cut + live_frames);
  if (end - cut < live_frames) {
    throw std::runtime_error("generated capture is shorter than requested");
  }
  Capture cap;
  cap.live.link = t.link;
  cap.train.id = ds.id + "-train";
  cap.train.label_granularity = ds.label_granularity;
  cap.train.trace.link = t.link;
  cap.train.trace.raw.assign(t.raw.begin(), t.raw.begin() + cut);
  cap.train.trace.view.assign(t.view.begin(), t.view.begin() + cut);
  cap.train.pkt_label.assign(ds.pkt_label.begin(), ds.pkt_label.begin() + cut);
  cap.train.pkt_attack.assign(ds.pkt_attack.begin(),
                              ds.pkt_attack.begin() + cut);
  cap.live.raw.reserve(end - cut);
  cap.views.reserve(end - cut);
  for (size_t i = cut; i < end; ++i) {
    cap.live.raw.push_back(std::move(t.raw[i]));
    cap.views.push_back(t.view[i]);
    cap.views.back().index = static_cast<uint32_t>(i - cut);
    cap.labels.push_back(ds.label_at(i));
  }
  cap.ok.assign(cap.live.raw.size(), 1);
  return cap;
}

}  // namespace

size_t Capture::parse_failures() const {
  return static_cast<size_t>(std::count(ok.begin(), ok.end(), uint8_t{0}));
}

Capture camera_mirai(uint64_t seed, size_t live_frames) {
  tr::Sim sim(lumen::Rng::seed_from("camera_mirai", seed));
  const tr::BenignStyle st = camera_style();
  const double prefix = 150.0;
  const uint32_t victim = sim.wan_ip();
  // ~2900 live frames per capture second: ~1.45 frames per scan session at
  // 600 sessions/s, 2500 flood frames/s over the last 80%, and the benign
  // background.
  const double live = 1.15 * static_cast<double>(live_frames) / 2900.0 + 1.0;
  sim.benign_iot_traffic(0.0, prefix + live, 12, st);
  std::vector<uint32_t> bots;
  for (int d = 0; d < 4; ++d) bots.push_back(sim.lan_ip(st, d));
  tr::attack_mirai_scan(sim, prefix, live, bots, 600.0);
  tr::attack_mirai_c2(sim, prefix, live, bots, sim.wan_ip());
  tr::attack_mirai_flood(sim, prefix + 0.2 * live, 0.8 * live, bots, victim,
                         2500.0);
  return split(sim.finish("camera_mirai", "Mirai camera network",
                          tr::Granularity::kPacket),
               prefix, live_frames);
}

Capture syn_flood(uint64_t seed, size_t live_frames) {
  tr::Sim sim(lumen::Rng::seed_from("syn_flood", seed));
  const tr::BenignStyle st = camera_style();
  const double prefix = 120.0;
  // 1000 spoofed SYN/s plus the victim's occasional RST (~1200 frames/s)
  // over ~55 benign frames/s from a dozen devices.
  const double live = 1.15 * static_cast<double>(live_frames) / 1255.0 + 1.0;
  sim.benign_iot_traffic(0.0, prefix + live, 12, st);
  tr::attack_syn_flood(sim, prefix, live, sim.lan_ip(st, 1), 554, 1000.0,
                       tr::AttackType::kSynFlood);
  return split(sim.finish("syn_flood", "spoofed SYN flood",
                          tr::Granularity::kPacket),
               prefix, live_frames);
}

Capture ssdp_fuzz(uint64_t seed, size_t live_frames, double malformed) {
  tr::Sim sim(lumen::Rng::seed_from("ssdp_fuzz", seed));
  const tr::BenignStyle st = camera_style();
  const double prefix = 150.0;
  // ~4050 live frames/s: SSDP request+reply pairs at 1500/s, 1000 fuzzing
  // probes/s, and the benign background.
  const double live = 1.15 * static_cast<double>(live_frames) / 4050.0 + 1.0;
  sim.benign_iot_traffic(0.0, prefix + live, 12, st);
  tr::attack_ssdp_flood(sim, prefix, live, sim.wan_ip(), sim.lan_ip(st, 2),
                        1500.0);
  tr::attack_fuzzing(sim, prefix + 0.3 * live, 0.7 * live, sim.wan_ip(),
                     sim.lan_ip(st, 3), 1000.0);
  Capture cap = split(sim.finish("ssdp_fuzz", "SSDP flood + fuzzing",
                                 tr::Granularity::kPacket),
                      prefix, live_frames);
  // Truncate a seeded sample of live frames below the 14-byte Ethernet
  // header: they reach the runtime and must be counted as parse skips.
  lumen::Rng rng(lumen::Rng::seed_from("malformed", seed));
  for (size_t i = 0; i < cap.size(); ++i) {
    if (!rng.bernoulli(malformed)) continue;
    cap.live.raw[i].data.resize(8);
    cap.live.raw[i].orig_len = 0;
    cap.ok[i] = 0;
  }
  return cap;
}

Capture from_dataset(tr::Dataset ds, double train_fraction) {
  const size_t n = ds.trace.raw.size();
  const size_t cut = static_cast<size_t>(train_fraction * static_cast<double>(n));
  const double at = ds.trace.raw[cut].ts;
  return split(std::move(ds), at, n - cut);
}

WireStream encode_stream(const Capture& cap, uint32_t tenant, uint32_t base) {
  WireStream ws;
  size_t bytes = netio::WireFormat::kHelloBytes;
  for (const netio::RawPacket& p : cap.live.raw) {
    bytes += netio::WireFormat::kRecordBytes + p.data.size();
  }
  ws.bytes.reserve(bytes);
  netio::append_hello(ws.bytes, tenant, cap.live.link);
  ws.hello_end = ws.bytes.size();
  ws.ends.reserve(cap.size());
  for (size_t i = 0; i < cap.size(); ++i) {
    netio::append_record(ws.bytes, cap.live.raw[i],
                         base + static_cast<uint32_t>(i));
    ws.ends.push_back(ws.bytes.size());
  }
  return ws;
}

}  // namespace e2e
