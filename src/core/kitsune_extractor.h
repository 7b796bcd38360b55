// Streaming Kitsune feature extraction: incremental damped statistics over
// the srcMAC / srcIP / channel / socket contexts at several decay rates,
// computable one packet at a time. Both the batch "damped_stats" operation
// and the online detector (core/stream.h) are built on this class, so batch
// and streaming features are identical by construction.
//
// This is the gateway's per-packet hot path, so it is allocation-free in
// steady state: contexts are identified by packed numeric keys (MAC 48-bit,
// src-IP 32-bit, canonical IP pair, IP pair + canonical ports) probed in
// open-addressing FlatMaps, and all of one context's state lives in a
// single contiguous block, so a packet costs at most four map probes and
// zero heap allocations. A block is a head holding the context's clock,
// then one level per decay rate holding only decayed sums: every level of
// a context is decayed to the same time on every packet, by a rule that
// does not depend on lambda, so the clock is stored once and lambda comes
// from lambdas(). New contexts (a spoofed-source flood opens about four
// per frame) fill fixed-size chunks of blocks: growth allocates one chunk
// per 256 contexts and never moves a live context's state. Rows are
// bit-identical to the per-statistic features::DampedStat formulation,
// kept as the string-keyed reference in tests/kitsune_extractor_ref.h.
//
// `max_contexts` bounds memory: when any one context table exceeds the cap,
// the lowest-scoring contexts are evicted until the table is back at 3/4 of
// the cap. A context's score is its slowest-decaying level's weight (both
// directions' for a channel or socket), decayed by its clock to the current
// packet time. Eviction works in place: the victims leave the index and
// their blocks go to a free list that the next new contexts reuse, so a
// capped table holds at most cap + 1 blocks and, once it has, allocates
// nothing. Every table is capped at kDefaultMaxContexts unless the caller
// says otherwise, so the batch "damped_stats" operation, the streaming
// "damped_stats" producer and the live detector (OnlineKitsune) agree by
// construction; 0 means unbounded.
//
// Copies are independent deep copies (each consumer's KitsuneScorer copies
// the trained detector, extractor state included).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "common/flat_map.h"
#include "netio/packet.h"

namespace lumen::core {

/// Contexts each extractor table keeps by default. The registry captures
/// peak at 1551 contexts per table, so 4096 never evicts there (every
/// batch and streaming row is the uncapped one), while a spoofed-source
/// flood stays at about 4.6 MB of context state per extractor.
inline constexpr size_t kDefaultMaxContexts = 4096;

class KitsuneExtractor {
 public:
  /// Default lambdas are Kitsune's {5, 3, 1, 0.1, 0.01}. `max_contexts`
  /// bounds each context table (0 = unbounded; see class comment).
  explicit KitsuneExtractor(std::vector<double> lambdas = {},
                            size_t max_contexts = kDefaultMaxContexts);

  /// 23 features per lambda.
  size_t dim() const { return 23 * lambdas_.size(); }
  const std::vector<std::string>& feature_names() const { return names_; }
  const std::vector<double>& lambdas() const { return lambdas_; }

  /// Update all context statistics with one packet (in capture order) and
  /// write its feature vector into `out` (resized to dim() once; the caller
  /// should reuse the same vector across packets).
  void process(const netio::PacketView& v, std::vector<double>& out);

  /// Number of distinct (lambda, context, key) statistics currently
  /// tracked. With an eviction cap C this is bounded by 5 * C * lambdas().
  size_t tracked_contexts() const;

  /// Distinct keys per context table (diagnostics / benchmarks).
  struct ContextCounts {
    size_t mac = 0, src = 0, chan = 0, sock = 0;
  };
  ContextCounts context_counts() const;

  size_t max_contexts() const { return max_contexts_; }

  void reset();

 private:
  // Decayed sums of one damped statistic: features::DampedStat without its
  // lambda and clock, which the context holds once.
  struct Sums {
    double w = 0.0;   // decayed count
    double ls = 0.0;  // decayed linear sum
    double ss = 0.0;  // decayed squared sum

    void decay(double factor) {
      w *= factor;
      ls *= factor;
      ss *= factor;
    }
    void insert(double x) {
      w += 1.0;
      ls += x;
      ss += x * x;
    }
    double mean() const { return w > 1e-20 ? ls / w : 0.0; }
    double variance() const {
      if (w <= 1e-20) return 0.0;
      const double m = mean();
      return std::max(0.0, ss / w - m * m);
    }
    double stddev() const { return std::sqrt(variance()); }
  };

  // Both directions of a channel or socket and their decayed residual
  // product: features::DampedStat2D, whose halves always share one clock,
  // without that clock.
  struct Joint {
    Sums a, b;
    double sr = 0.0;     // decayed residual product sum
    double wr = 0.0;     // decayed residual weight
    double resid = 0.0;  // residual of the last insert

    void decay(double factor) {
      a.decay(factor);
      b.decay(factor);
      sr *= factor;
      wr *= factor;
    }
    // DampedStat2D::insert after its decay. Its `other.mean() > 0 ||
    // other.weight() > 0` reduces to `other.w > 0`.
    void insert(bool fwd, double x) {
      Sums& self = fwd ? a : b;
      const Sums& other = fwd ? b : a;
      self.insert(x);
      const double ra = x - self.mean();
      const double rb = other.w > 0.0 ? resid : 0.0;
      sr += ra * rb;
      wr += 1.0;
      resid = ra;
    }
    double magnitude() const {
      const double ma = a.mean();
      const double mb = b.mean();
      return std::sqrt(ma * ma + mb * mb);
    }
    double radius() const {
      const double va = a.variance();
      const double vb = b.variance();
      return std::sqrt(va * va + vb * vb);
    }
    double covariance() const { return wr > 1e-20 ? sr / wr : 0.0; }
    double pcc() const {
      const double denom = a.stddev() * b.stddev();
      if (denom <= 1e-20) return 0.0;
      return std::clamp(covariance() / denom, -1.0, 1.0);
    }
  };

  // One channel level: the joint statistic of both directions and the
  // inter-arrival jitter.
  struct ChanLevel {
    Joint joint;
    Sums jitter;
  };

  // Heads. A clock is the time the context's levels were last decayed to,
  // -1 while unset. The jitter gets its first value on the channel's second
  // packet, so its clock starts one packet later; the two differ once a
  // timestamp goes backwards, so the channel keeps both.
  struct Clock {
    double last = -1.0;
  };
  struct ChanHead {
    double last = -1.0;         // the joint statistic's clock
    double jitter_last = -1.0;  // the jitter's clock
    double last_seen = 0.0;     // timestamp of the channel's previous packet
  };

  static_assert(sizeof(Sums) == 24 && sizeof(Joint) == 72 &&
                sizeof(ChanLevel) == 96);

  // One context table: a FlatMap from packed key to a context id, and the
  // contexts' blocks (one Head, then `stride` = lambda-count Levels) in
  // fixed-size chunks of kChunkContexts blocks. Growth allocates one more
  // chunk and never copies existing blocks, so a flood of new contexts
  // costs no relocation and no doubling slack. Eviction erases its victims
  // from the index and puts their ids on a free list, which new contexts
  // take before any fresh id, so a capped table stops allocating once it
  // has held cap + 1 contexts.
  template <typename Key, typename Head, typename Level>
  class ContextTable {
    static_assert(std::is_trivially_copyable_v<Head> &&
                  std::is_trivially_copyable_v<Level>);
    static_assert(alignof(Head) == alignof(Level) &&
                  sizeof(Head) % alignof(Level) == 0);

   public:
    struct Block {
      Head* head;
      Level* levels;  // `stride` of them, in lambdas() order
      bool created;   // find_or_create added this context
    };

    ContextTable() = default;
    // A copy allocates every chunk at full length and copies the blocks of
    // every id handed out (free ones too), so it grows like the original.
    ContextTable(const ContextTable& o)
        : index_(o.index_),
          free_(o.free_),
          next_id_(o.next_id_),
          stride_(o.stride_) {
      chunks_.reserve(o.chunks_.size());
      for (size_t c = 0; c < o.chunks_.size(); ++c) {
        const size_t used =
            std::min(kChunkContexts, next_id_ - (c << kChunkShift));
        std::memcpy(start_chunk(), o.chunks_[c].get(), used * block_bytes());
      }
    }
    ContextTable& operator=(const ContextTable& o) {
      if (this != &o) *this = ContextTable(o);
      return *this;
    }
    ContextTable(ContextTable&&) = default;
    ContextTable& operator=(ContextTable&&) = default;

    void configure(size_t stride) { stride_ = stride; }
    size_t size() const { return index_.size(); }

    void clear() {
      index_.clear();
      chunks_.clear();
      free_.clear();
      next_id_ = 0;
    }

    /// The block for `key`, value-initialized when this call creates it: in
    /// an evicted context's block when the free list has one, else in the
    /// next fresh block. A block never moves: the pointers stay valid until
    /// this context is evicted or the table cleared.
    Block find_or_create(const Key& key) {
      auto [id, inserted] = index_.try_emplace(key, uint32_t{0});
      if (!inserted) return block(*id, false);
      if (free_.empty()) {
        *id = static_cast<uint32_t>(next_id_++);
        if ((*id & kChunkMask) == 0) start_chunk();
      } else {
        *id = free_.back();
        free_.pop_back();
      }
      std::byte* p = slot(*id);
      ::new (p) Head{};
      ::new (p + sizeof(Head)) Level[stride_]();
      return block(*id, true);
    }

    /// Keep the `keep` highest-scoring contexts (score(head, levels) over
    /// each context's block): erase the others from the index and free
    /// their ids. Survivors keep their ids and blocks; nothing is copied
    /// or allocated once the candidate and free lists have grown to their
    /// largest.
    template <typename ScoreFn>
    void evict(size_t keep, const ScoreFn& score) {
      if (index_.size() <= keep) return;
      candidates_.clear();
      index_.for_each([&](const Key& k, const uint32_t& id) {
        const Block b = block(id, false);
        candidates_.push_back({k, id, score(*b.head, b.levels)});
      });
      const auto victims =
          candidates_.begin() + static_cast<std::ptrdiff_t>(keep);
      std::nth_element(candidates_.begin(), victims, candidates_.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.score > b.score;
                       });
      for (auto it = victims; it != candidates_.end(); ++it) {
        index_.erase(it->key);
        free_.push_back(it->id);
      }
    }

   private:
    // 256 contexts per chunk: one allocation per 256 new contexts, and the
    // last chunk's unused tail stays small (64 and 1024 measured the same).
    static constexpr size_t kChunkShift = 8;
    static constexpr size_t kChunkContexts = size_t{1} << kChunkShift;
    static constexpr size_t kChunkMask = kChunkContexts - 1;

    struct Candidate {
      Key key;
      uint32_t id;
      double score;
    };

    size_t block_bytes() const {
      return sizeof(Head) + stride_ * sizeof(Level);
    }
    // Appends a chunk of kChunkContexts uninitialized blocks (so its pages
    // are touched only as contexts fill it) and returns its first byte.
    std::byte* start_chunk() {
      return chunks_
          .emplace_back(std::make_unique_for_overwrite<std::byte[]>(
              kChunkContexts * block_bytes()))
          .get();
    }
    std::byte* slot(uint32_t id) const {
      return chunks_[id >> kChunkShift].get() +
             (id & kChunkMask) * block_bytes();
    }
    // find_or_create constructs a block's head and levels in place; the
    // memcpy of a copy creates them in the new chunk.
    Block block(uint32_t id, bool created) const {
      std::byte* p = slot(id);
      return {std::launder(reinterpret_cast<Head*>(p)),
              std::launder(reinterpret_cast<Level*>(p + sizeof(Head))),
              created};
    }

    FlatMap<Key, uint32_t> index_;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::vector<uint32_t> free_;         // evicted contexts' ids
    size_t next_id_ = 0;                 // ids 0..next_id_-1 handed out
    std::vector<Candidate> candidates_;  // evict's scratch, reused
    size_t stride_ = 1;
  };

  void maybe_evict(double now);

  std::vector<double> lambdas_;
  std::vector<std::string> names_;
  size_t max_contexts_ = 0;
  size_t slow_ = 0;  // index of the slowest-decaying (smallest) lambda
  ContextTable<uint64_t, Clock, Sums> mac_;
  ContextTable<uint64_t, Clock, Sums> src_;
  ContextTable<uint64_t, ChanHead, ChanLevel> chan_;
  ContextTable<Key128, Clock, Joint> sock_;
};

}  // namespace lumen::core
