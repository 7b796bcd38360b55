// Seeded, in-process traffic for the end-to-end workloads. Every capture is
// generated with trace::Sim and the trace::attack_* emitters from the run's
// --seed, so nothing is downloaded and the same seed gives the same bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "netio/packet.h"
#include "trace/dataset.h"

namespace e2e {

namespace netio = lumen::netio;

/// A capture split the way a deployment sees it: a benign prefix the
/// detector trains on, then the live frames the system under test receives.
struct Capture {
  /// Benign prefix (parsed; view index == position).
  lumen::trace::Dataset train;
  /// Live frames, raw only: a frame's position is its capture index on
  /// the wire, and TraceReplaySource replays them with that index.
  netio::Trace live;
  /// views[i] is live.raw[i] parsed (meaningful only when ok[i]).
  std::vector<netio::PacketView> views;
  std::vector<uint8_t> ok;      // 1 when live.raw[i] parses
  std::vector<uint8_t> labels;  // ground truth of live.raw[i]

  size_t size() const { return live.raw.size(); }
  size_t parse_failures() const;
};

/// A camera network of a dozen devices; a Mirai campaign from four of them
/// (telnet scan, C2 keepalives, SYN/UDP flood) follows the benign prefix.
Capture camera_mirai(uint64_t seed, size_t live_frames);

/// A dozen devices and a spoofed-source SYN flood on one camera's RTSP port
/// that makes up ~95% of the live frames: every flood frame opens new
/// extractor contexts, so the detector's state outgrows the cache.
Capture syn_flood(uint64_t seed, size_t live_frames);

/// A camera network under an SSDP flood plus fuzzing probes. A share
/// `malformed` of the live frames is truncated below an Ethernet header so
/// the parse layer has something to skip.
Capture ssdp_fuzz(uint64_t seed, size_t live_frames, double malformed);

/// A registry dataset split at `train_fraction` of its frames (all frames
/// of a generated dataset parse).
Capture from_dataset(lumen::trace::Dataset ds, double train_fraction);

/// Wire encoding of one tenant's live frames as a LUM1 TCP stream: the
/// hello, then one record per frame carrying capture index `base + i`.
/// `ends[i]` is the byte offset just past record i (the hello ends at
/// `hello_end`), so a sender can write any run of records in one call.
struct WireStream {
  std::vector<uint8_t> bytes;
  std::vector<size_t> ends;
  size_t hello_end = 0;
};
WireStream encode_stream(const Capture& cap, uint32_t tenant, uint32_t base);

}  // namespace e2e
