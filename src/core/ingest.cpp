#include "core/ingest.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/flat_map.h"
#include "common/options.h"
#include "common/spsc_ring.h"
#include "core/stream_op.h"
#include "netio/parse.h"

namespace lumen::core {

uint64_t FlowShardRouter::flow_hash(const netio::RawPacket& pkt) const {
  const uint8_t* b = pkt.data.data();
  const size_t n = pkt.data.size();
  const auto be16 = [b](size_t off) {
    return (uint64_t{b[off]} << 8) | b[off + 1];
  };
  const auto be32 = [b](size_t off) {
    return (uint32_t{b[off]} << 24) | (uint32_t{b[off + 1]} << 16) |
           (uint32_t{b[off + 2]} << 8) | b[off + 3];
  };
  const auto mac48 = [b](size_t off) {
    uint64_t v = 0;
    for (size_t i = 0; i < 6; ++i) v = (v << 8) | b[off + i];
    return v;
  };
  if (link_ == netio::LinkType::kEthernet) {
    // IPv4 frame: the order-independent IP-pair channel key, canonicalized
    // exactly like core/kitsune_extractor.cpp (low address first), hashed
    // with FlatMap's splitmix64 finalizer. Byte offsets per netio/parse.cpp:
    // ether_type at 12, IPv4 src/dst at 26/30 (14-byte Ethernet header).
    if (n >= 34 && be16(12) == 0x0800) {
      const uint32_t src = be32(26);
      const uint32_t dst = be32(30);
      const bool fwd = src <= dst;
      const uint32_t ip_a = fwd ? src : dst;
      const uint32_t ip_b = fwd ? dst : src;
      return hash_u64((uint64_t{ip_a} << 32) | ip_b);
    }
    // Non-IP frame: the extractor only keeps MAC-level context for these,
    // so the source MAC (bytes 6..11) is their whole flow identity.
    if (n >= 12) return hash_u64(mac48(6));
    return 0;  // too short to parse; lands on shard 0 and is skipped there
  }
  // 802.11: the transmitter address (addr2, bytes 10..15) is what
  // netio/parse.cpp reports as the source MAC.
  if (n >= 16) return hash_u64(mac48(10));
  return 0;
}

IngestRuntime::Options IngestRuntime::Options::normalized(
    Options opts, std::string* diagnostic) {
  OptionNormalizer norm("ingest");
  norm.clamp(opts.queue_capacity, size_t{1}, size_t{1} << 24,
             "queue_capacity");
  norm.clamp(opts.shards, size_t{1}, size_t{256}, "shards");
  norm.clamp(opts.consumer_batch, size_t{1}, size_t{65536}, "consumer_batch");
  norm.emit(diagnostic);
  return opts;
}

namespace {

/// Claim up to out.size() packets from a shard's ring into out[0..n),
/// blocking while the ring is open and empty; the packets out held before
/// go back to the ring's slots for the producer to reuse. Returns n; 0
/// only at end-of-stream (closed and fully drained).
size_t claim(SpscRing<netio::SourcePacket>& ring,
             std::span<netio::SourcePacket> out) {
  while (ring.wait_nonempty()) {
    if (const size_t n = ring.try_pop(out); n != 0) return n;
  }
  return 0;
}

/// Producer-side FrameFeed over the shard router + SPSC rings: routes each
/// offered frame by flow hash, then try-pushes into the owning ring.
/// Mirrors per-shard routed counts into telemetry in periodic flushes via
/// the caller-supplied closure, never per packet.
class ShardFrameFeed : public netio::FrameFeed {
 public:
  ShardFrameFeed(const FlowShardRouter& router,
                 std::vector<std::unique_ptr<SpscRing<netio::SourcePacket>>>&
                     rings,
                 OverflowPolicy policy, telemetry::Counter& enqueued,
                 telemetry::Counter& dropped, std::vector<uint64_t>& routed,
                 std::function<void()> flush_telemetry)
      : router_(router),
        rings_(rings),
        policy_(policy),
        enqueued_(enqueued),
        dropped_(dropped),
        routed_(routed),
        flush_telemetry_(std::move(flush_telemetry)) {}

  netio::FeedStatus offer(netio::SourcePacket& p) override {
    const size_t s = router_.shard_of(p.pkt);
    SpscRing<netio::SourcePacket>& ring = *rings_[s];
    if (ring.try_push(&p, 1) == 1) {
      // p now holds a packet a consumer has finished with: its buffer is
      // the next frame's, unless it is oversized. Freed here, on the thread
      // that allocated it, so a shard retains at most (queue_capacity +
      // consumer_batch + 1) buffers of 2 KiB, about 8.1 MiB at the
      // defaults.
      netio::release_if_oversized(p);
      account(s);
      return netio::FeedStatus::kAccepted;
    }
    if (ring.closed()) return netio::FeedStatus::kClosed;
    if (policy_ == OverflowPolicy::kBlock) {
      busy_shard_ = s;
      return netio::FeedStatus::kBusy;
    }
    // kDropNewest: shed the incoming packet, still counted enqueued and
    // routed like an accepted one.
    dropped_.add(1);
    account(s);
    return netio::FeedStatus::kShed;
  }
  bool wait_ready() override {
    return rings_[busy_shard_]->wait_notfull();
  }
  void account_shed(uint64_t n) override {
    enqueued_.add(n);
    dropped_.add(n);
  }

 private:
  void account(size_t shard) {
    enqueued_.add(1);
    ++routed_[shard];
    if (++since_flush_ >= 8192) {
      since_flush_ = 0;
      if (flush_telemetry_) flush_telemetry_();
    }
  }

  const FlowShardRouter& router_;
  std::vector<std::unique_ptr<SpscRing<netio::SourcePacket>>>& rings_;
  OverflowPolicy policy_;
  telemetry::Counter& enqueued_;
  telemetry::Counter& dropped_;
  std::vector<uint64_t>& routed_;
  std::function<void()> flush_telemetry_;
  size_t busy_shard_ = 0;
  uint64_t since_flush_ = 0;
};

/// A compiled operator chain as a consumer's scorer: each view scored is
/// pushed into the chain and scores 0 under a +inf threshold, so no
/// packet alerts — the chain's alerts are the rows of the epochs it emits
/// through its callback. finish() flushes the chain's open windows.
class ChainScorer final : public PacketScorer {
 public:
  explicit ChainScorer(std::unique_ptr<StreamPipeline> chain)
      : chain_(std::move(chain)) {}

  double score(const netio::PacketView& view) override {
    chain_->push(view);
    return 0.0;
  }
  double threshold() const override {
    return std::numeric_limits<double>::infinity();
  }
  void finish() override { chain_->finish(); }

 private:
  std::unique_ptr<StreamPipeline> chain_;
};

}  // namespace

IngestRuntime::IngestRuntime(Options opts, ScorerFactory factory,
                             AlertSink* sink)
    : sink_(sink) {
  std::string diag;
  opts_ = Options::normalized(std::move(opts), &diag);
  if (!diag.empty()) std::cerr << diag << "\n";
  scorer_slot_ = std::make_unique<ModelSlot<ScorerFactory>>(
      std::make_unique<ScorerFactory>(std::move(factory)), opts_.shards);
  // Core accounting always lives in registry counters (the IngestStats
  // façade reads them back); the extended instruments — ring gauges and
  // per-stage latency histograms, with their clock reads — only run when
  // the embedder gave us a registry to publish into.
  extended_ = opts_.registry != nullptr;
  reg_ = extended_ ? opts_.registry : &local_reg_;
  const std::string& p = opts_.instrument_prefix;
  enqueued_ = &reg_->counter(p + "enqueued");
  dropped_ = &reg_->counter(p + "dropped");
  parse_skipped_ = &reg_->counter(p + "parse_skipped");
  scored_ = &reg_->counter(p + "scored");
  alerted_ = &reg_->counter(p + "alerted");
  swaps_applied_ = &reg_->counter(p + "swaps_applied");
  if (extended_) {
    queue_high_water_ = &reg_->gauge(p + "queue.high_water");
    parse_ns_ = &reg_->histogram(p + "stage.parse_ns");
    score_ns_ = &reg_->histogram(p + "stage.score_ns");
    flush_ns_ = &reg_->histogram(p + "stage.flush_ns");
    score_batch_rows_ = &reg_->histogram(p + "score.batch_rows");
    shard_instruments_.resize(opts_.shards);
    for (size_t i = 0; i < opts_.shards; ++i) {
      const std::string sp = p + "shard" + std::to_string(i) + ".";
      shard_instruments_[i] =
          ShardInstruments{&reg_->counter(sp + "routed"),
                           &reg_->counter(sp + "scored"),
                           &reg_->counter(sp + "alerted"),
                           &reg_->counter(sp + "parse_skipped"),
                           &reg_->gauge(sp + "ring.high_water")};
    }
  }
  // stats() before the first run() must read zero even when another
  // runtime already bumped these (shared registry, shared prefix).
  base_ = Baseline{enqueued_->value(), dropped_->value(),
                   parse_skipped_->value(), scored_->value(),
                   alerted_->value()};
}

IngestRuntime::IngestRuntime(Options opts, StreamPipelineFactory factory,
                             EpochSink* sink)
    : IngestRuntime(
          std::move(opts),
          [this, factory = std::move(factory),
           sink](size_t c) -> std::unique_ptr<PacketScorer> {
            std::unique_ptr<StreamPipeline> chain = factory(c);
            if (chain == nullptr) return nullptr;
            // Epochs are emitted on consumer c's thread, from inside
            // score_batch or finish(): count their alerted rows, then hand
            // them to the sink serialized like AlertSink calls.
            chain->set_callback([this, c, sink](EpochBatch&& b) {
              const auto alerts = static_cast<uint64_t>(std::count_if(
                  b.predictions.begin(), b.predictions.end(),
                  [](int p) { return p != 0; }));
              if (alerts != 0) {
                alerted_->add(alerts);
                if (c < shard_instruments_.size()) {
                  shard_instruments_[c].alerted->add(alerts);
                }
              }
              if (sink != nullptr) {
                std::lock_guard<std::mutex> lock(sink_mu_);
                sink->on_epoch(b, c);
              }
            });
            return std::make_unique<ChainScorer>(std::move(chain));
          },
          nullptr) {}

void IngestRuntime::deploy(ScorerFactory factory) {
  scorer_slot_->publish(std::make_unique<ScorerFactory>(std::move(factory)));
}

bool IngestRuntime::register_tenant(uint32_t tenant, ScorerFactory factory) {
  if (tenant == 0 || !factory) return false;
  if (running_.load(std::memory_order_acquire)) return false;
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (!inserted) return false;
  it->second.slot = std::make_unique<ModelSlot<ScorerFactory>>(
      std::make_unique<ScorerFactory>(std::move(factory)), opts_.shards);
  const std::string tp =
      opts_.instrument_prefix + "tenant" + std::to_string(tenant) + ".";
  it->second.scored = &reg_->counter(tp + "scored");
  it->second.alerted = &reg_->counter(tp + "alerted");
  it->second.swaps_applied = &reg_->counter(tp + "swaps_applied");
  return true;
}

bool IngestRuntime::deploy(uint32_t tenant, ScorerFactory factory) {
  if (tenant == 0) {
    deploy(std::move(factory));
    return true;
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  it->second.slot->publish(
      std::make_unique<ScorerFactory>(std::move(factory)));
  return true;
}

void IngestRuntime::consume(size_t id, Ring& ring,
                            std::unique_ptr<PacketScorer> scorer,
                            uint64_t scorer_version, netio::LinkType link) {
  // Everything below is consumer-local until the per-batch flush: packets
  // are claimed in batches (one ring publication per batch),
  // scored without any shared state, and sink records plus stats counters
  // are published once per batch. Buffers are reused across batches, and
  // `batch` holds consumer_batch packets for the consumer's whole life:
  // each claim swaps the finished packets of the previous one back into
  // the ring for the producer to refill, so the steady-state loop performs
  // no allocation. Telemetry is also per-batch — four clock reads and a
  // handful of relaxed adds per batch, never per packet.
  using Clock = std::chrono::steady_clock;
  const auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  struct Scored {
    netio::PacketView view;
    double score = 0.0;
    double threshold = 0.0;
    bool alerted = false;
    uint32_t tenant = 0;
  };
  /// A consumer's scoring state for one context: its own scorer instance
  /// (isolated streaming state) tracking its own hot-swap slot. Context 0
  /// is the default tenant's, seeded from the scorer run() built, and also
  /// scores every unregistered tenant id; a registered tenant's context is
  /// built lazily on its first packet, from its own slot.
  struct TenantCtx {
    std::unique_ptr<PacketScorer> scorer;
    uint64_t version = 0;
    ModelSlot<ScorerFactory>* slot = nullptr;
    TenantState* state = nullptr;  // registered tenants only
  };
  std::unordered_map<uint32_t, TenantCtx> ctxs;
  ctxs.emplace(0, TenantCtx{std::move(scorer), scorer_version,
                            scorer_slot_.get(), nullptr});
  // Hot-swap check at the batch boundary, per context scored in the batch:
  // a ModelSlot pin is two atomic loads plus one store — the cost of
  // noticing a deploy() — and the rebuild only runs when the observed
  // epoch moved, so swapping tenant A never rebuilds tenant B. The
  // outgoing scorer is finish()ed before its replacement scores.
  const auto pin_ctx = [&](uint32_t key) -> TenantCtx& {
    auto [it, fresh] = ctxs.try_emplace(key);
    TenantCtx& c = it->second;
    if (fresh) {
      TenantState& ts = tenants_.at(key);
      c.slot = ts.slot.get();
      c.state = &ts;
    }
    const auto pinned = c.slot->pin(id);
    if (pinned.version == c.version) return c;
    if (c.scorer != nullptr) {
      c.scorer->finish();
      swaps_applied_->add(1);
      if (c.state != nullptr) c.state->swaps_applied->add(1);
    }
    c.scorer = (*pinned.value)(id);
    c.version = pinned.version;
    if (c.scorer == nullptr) {
      throw std::runtime_error("ingest: scorer factory returned null for "
                               "tenant " + std::to_string(key) +
                               ", consumer " + std::to_string(id));
    }
    return c;
  };
  ShardInstruments* si =
      id < shard_instruments_.size() ? &shard_instruments_[id] : nullptr;
  std::vector<netio::SourcePacket> batch(opts_.consumer_batch);
  std::vector<netio::PacketView> parsed;
  std::vector<uint32_t> tenant_of;   // aligned with parsed: the packet's id
  std::vector<uint32_t> key_of;      // aligned with parsed: its context
  std::vector<uint32_t> batch_keys;  // distinct, first-appearance order
  std::vector<double> scores;      // aligned with parsed
  std::vector<double> thresholds;  // aligned with parsed
  std::vector<netio::PacketView> scratch_views;
  std::vector<double> scratch_scores;
  std::vector<size_t> scratch_idx;
  std::vector<Scored> pending;
  parsed.reserve(opts_.consumer_batch);
  tenant_of.reserve(opts_.consumer_batch);
  key_of.reserve(opts_.consumer_batch);
  scores.reserve(opts_.consumer_batch);
  thresholds.reserve(opts_.consumer_batch);
  pending.reserve(opts_.consumer_batch);
  size_t claimed = 0;
  while ((claimed = claim(ring, batch)) > 0) {
    uint64_t skipped = 0, alerted = 0;
    Clock::time_point t0, t1, t2;
    // Stage 1 — parse the claimed packets, batch[0..claimed). Views
    // describe packets in `batch`, whose bytes stay put until the next
    // claim, after the flush below.
    if (extended_) t0 = Clock::now();
    parsed.clear();
    tenant_of.clear();
    for (const netio::SourcePacket& sp :
         std::span(batch).first(claimed)) {
      auto p = netio::parse_packet(sp.pkt, link, sp.capture_index);
      if (!p.ok()) {
        ++skipped;
        continue;
      }
      parsed.push_back(p.value());
      tenant_of.push_back(sp.tenant);
    }
    if (extended_) t1 = Clock::now();
    // Stage 2 — score. Each context's packets form one partition in
    // arrival order, scored contiguously through that context's scorer
    // (its state is per-shard per-context) in one PacketScorer::score_batch
    // call, with results scattered back positionally — equivalent to
    // having claimed each context's packets in separate batches. A
    // one-context batch is a single partition.
    key_of.clear();
    batch_keys.clear();
    for (const uint32_t t : tenant_of) {
      const uint32_t key = tenants_.contains(t) ? t : 0;
      key_of.push_back(key);
      if (std::find(batch_keys.begin(), batch_keys.end(), key) ==
          batch_keys.end())
        batch_keys.push_back(key);
    }
    scores.resize(parsed.size());
    thresholds.resize(parsed.size());
    for (const uint32_t key : batch_keys) {
      TenantCtx& ctx = pin_ctx(key);
      scratch_idx.clear();
      scratch_views.clear();
      for (size_t i = 0; i < parsed.size(); ++i) {
        if (key_of[i] != key) continue;
        scratch_idx.push_back(i);
        scratch_views.push_back(parsed[i]);
      }
      scratch_scores.resize(scratch_views.size());
      ctx.scorer->score_batch(scratch_views, scratch_scores.data());
      if (extended_) {
        score_batch_rows_->record(static_cast<double>(scratch_views.size()));
      }
      const double thr = ctx.scorer->threshold();
      uint64_t t_alerted = 0;
      for (size_t k = 0; k < scratch_idx.size(); ++k) {
        scores[scratch_idx[k]] = scratch_scores[k];
        thresholds[scratch_idx[k]] = thr;
        if (scratch_scores[k] > thr) ++t_alerted;
      }
      alerted += t_alerted;
      if (ctx.state != nullptr) {
        ctx.state->scored->add(scratch_idx.size());
        if (t_alerted != 0) ctx.state->alerted->add(t_alerted);
      }
    }
    if (sink_ != nullptr) {
      for (size_t i = 0; i < parsed.size(); ++i) {
        pending.push_back(Scored{parsed[i], scores[i], thresholds[i],
                                 scores[i] > thresholds[i], tenant_of[i]});
      }
    }
    if (extended_) t2 = Clock::now();
    const uint64_t scored = parsed.size();
    if (skipped != 0) parse_skipped_->add(skipped);
    if (scored != 0) scored_->add(scored);
    if (alerted != 0) alerted_->add(alerted);
    if (si != nullptr) {
      if (skipped != 0) si->parse_skipped->add(skipped);
      if (scored != 0) si->scored->add(scored);
      if (alerted != 0) si->alerted->add(alerted);
    }
    // Stage 3 — flush the batch's sink records.
    if (!pending.empty()) {
      std::lock_guard<std::mutex> lock(sink_mu_);
      for (const Scored& p : pending) {
        sink_->on_packet(p.view, p.score, p.alerted);
        if (p.alerted) {
          sink_->on_alert(Alert{p.view.ts, p.view.index, p.score,
                                p.threshold, id, p.tenant});
        }
      }
    }
    pending.clear();
    if (extended_) {
      const Clock::time_point t3 = Clock::now();
      // parse/score samples are the batch's mean per-packet cost; flush
      // is the whole batch's sink hand-off (it is per-batch by design).
      parse_ns_->record(ns_between(t0, t1) / static_cast<double>(claimed));
      if (!parsed.empty()) {
        score_ns_->record(ns_between(t1, t2) /
                          static_cast<double>(parsed.size()));
      }
      flush_ns_->record(ns_between(t2, t3));
    }
  }
  // End of stream: retire every scorer this consumer holds (a chain
  // emits its open windows here).
  for (auto& [key, c] : ctxs) c.scorer->finish();
}

Result<IngestStats> IngestRuntime::run(netio::PacketSource& source) {
  netio::ReplayDriver driver(source);
  return run(driver);
}

Result<IngestStats> IngestRuntime::run(netio::SourceDriver& driver) {
  const size_t n_shards = opts_.shards;
  // Build each consumer's initial scorer from the currently-deployed
  // factory, announcing the build epoch so consume() only rebuilds when
  // deploy() publishes something newer.
  std::vector<std::unique_ptr<PacketScorer>> scorers;
  std::vector<uint64_t> versions;
  scorers.reserve(n_shards);
  versions.reserve(n_shards);
  for (size_t c = 0; c < n_shards; ++c) {
    const auto pinned = scorer_slot_->pin(c);
    scorers.push_back((*pinned.value)(c));
    versions.push_back(pinned.version);
    if (!scorers.back()) {
      return Error::make("ingest", "factory returned null for consumer " +
                                       std::to_string(c));
    }
  }

  // Per-run façade semantics over cumulative instruments: re-baseline now.
  base_ = Baseline{enqueued_->value(), dropped_->value(),
                   parse_skipped_->value(), scored_->value(),
                   alerted_->value()};
  high_water_snapshot_ = 0;
  stop_.store(false);
  running_.store(true, std::memory_order_release);

  const netio::LinkType link = driver.link();
  FlowShardRouter router(n_shards, link);
  std::vector<std::unique_ptr<Ring>> rings;
  rings.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    rings.push_back(std::make_unique<Ring>(opts_.queue_capacity));
  }
  if (extended_) {
    // The ring gauges describe THIS run's rings: reset them first, or a
    // reused runtime (or a second runtime sharing the registry and prefix)
    // keeps publishing the previous run's high-water mark — update_max
    // never comes back down on its own. queue.high_water reports the max
    // ring high-water across shards.
    queue_high_water_->set(0.0);
    for (ShardInstruments& si : shard_instruments_) {
      si.ring_high_water->set(0.0);
    }
  }

  // Consumers follow the parallel.h exception convention: the first failure
  // is captured and rethrown on the caller once every thread has joined.
  std::vector<std::exception_ptr> errors(n_shards);
  std::vector<std::thread> threads;
  threads.reserve(n_shards);
  for (size_t c = 0; c < n_shards; ++c) {
    threads.emplace_back([this, c, &rings, &errors, &scorers, &versions,
                          link] {
      try {
        consume(c, *rings[c], std::move(scorers[c]), versions[c], link);
      } catch (...) {
        errors[c] = std::current_exception();
        // Close every ring: siblings drain and exit, and the producer
        // stops instead of feeding a dead run.
        for (auto& r : rings) r->close();
      }
    });
  }

  // The driver runs on the calling thread; the shard feed routes each
  // offered frame by flow hash into the owning ring. A closed ring
  // (consumer death) surfaces as kClosed and the driver returns. Per-shard
  // routed counts and ring high-water marks are mirrored into telemetry in
  // periodic flushes, never per packet.
  std::vector<uint64_t> routed(n_shards, 0);
  std::vector<uint64_t> routed_flushed(n_shards, 0);
  const auto flush_shard_telemetry = [&] {
    for (size_t i = 0; i < shard_instruments_.size(); ++i) {
      if (routed[i] != routed_flushed[i]) {
        shard_instruments_[i].routed->add(routed[i] - routed_flushed[i]);
        routed_flushed[i] = routed[i];
      }
      shard_instruments_[i].ring_high_water->update_max(
          static_cast<double>(rings[i]->high_water()));
    }
  };
  ShardFrameFeed ffeed(router, rings, opts_.overflow, *enqueued_, *dropped_,
                       routed, flush_shard_telemetry);
  Result<void> driven = driver.drive(ffeed, stop_);
  for (auto& r : rings) r->close();
  for (auto& t : threads) t.join();

  size_t hw = 0;
  for (const auto& r : rings) hw = std::max(hw, r->high_water());
  high_water_snapshot_ = hw;
  flush_shard_telemetry();
  if (extended_) queue_high_water_->update_max(static_cast<double>(hw));
  running_.store(false, std::memory_order_release);
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  if (!driven.ok()) return driven.error();
  return stats();
}

IngestStats IngestRuntime::stats() const {
  IngestStats s;
  s.enqueued = enqueued_->value() - base_.enqueued;
  s.dropped = dropped_->value() - base_.dropped;
  s.parse_skipped = parse_skipped_->value() - base_.parse_skipped;
  s.scored = scored_->value() - base_.scored;
  s.alerted = alerted_->value() - base_.alerted;
  s.queue_high_water = high_water_snapshot_;
  return s;
}

}  // namespace lumen::core
