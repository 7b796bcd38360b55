// Streaming Kitsune feature extraction: incremental damped statistics over
// the srcMAC / srcIP / channel / socket contexts at several decay rates,
// computable one packet at a time. Both the batch "damped_stats" operation
// and the online detector (core/stream.h) are built on this class, so batch
// and streaming features are identical by construction.
//
// This is the gateway's per-packet hot path, so it is allocation-free in
// steady state: contexts are identified by packed numeric keys (MAC 48-bit,
// src-IP 32-bit, canonical IP pair, IP pair + canonical ports) probed in
// open-addressing FlatMaps, and every decay level's state for one context
// lives in a single contiguous block, so a packet costs at most four map
// probes and zero heap allocations. New contexts (a spoofed-source flood
// opens about four per frame) fill fixed-size chunks of blocks: growth
// allocates one chunk per 256 contexts and never moves a live context's
// state. The retired string-keyed implementation is preserved in
// kitsune_extractor_ref.h as the bit-exactness reference
// (tests/extractor_golden_test.cpp).
//
// Long-running gateways can bound memory with `max_contexts`: when any one
// context table exceeds the cap, the lowest decayed-weight contexts (weight
// of the slowest-decaying lambda, decayed to the current packet time) are
// evicted until the table is back at 3/4 of the cap.
//
// Copies are independent deep copies (each consumer's KitsuneScorer copies
// the trained detector, extractor state included).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "features/stats.h"
#include "netio/packet.h"

namespace lumen::core {

class KitsuneExtractor {
 public:
  /// Default lambdas are Kitsune's {5, 3, 1, 0.1, 0.01}. `max_contexts`
  /// bounds each context table (0 = unbounded; see class comment).
  explicit KitsuneExtractor(std::vector<double> lambdas = {},
                            size_t max_contexts = 0);

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
  // All per-lambda state of one channel: both directions' joint statistic,
  // the inter-arrival jitter statistic, and the last time the channel was
  // seen (per lambda, mirroring the reference implementation's layout).
  struct ChanState {
    features::DampedStat2D chan;
    features::DampedStat jitter;
    double last_seen = 0.0;
    bool has_last = false;
  };

  // One context table: a FlatMap from packed key to a dense context id
  // (0..size()-1), and the contexts' state in fixed-size chunks of
  // kChunkContexts blocks, each block `stride` (= lambda count) State
  // entries. Growth allocates one more chunk and never copies existing
  // blocks, so a flood of new contexts costs no relocation and no
  // doubling slack.
  template <typename Key, typename State>
  class ContextTable {
   public:
    ContextTable() = default;
    // Copies reserve each chunk's full length like the original, so
    // filling a copy's last chunk never reallocates it either.
    ContextTable(const ContextTable& o) : index_(o.index_), stride_(o.stride_) {
      chunks_.reserve(o.chunks_.size());
      for (const std::vector<State>& c : o.chunks_) {
        start_chunk(chunks_).assign(c.begin(), c.end());
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
    }

    /// The stride-long state block for `key`, created with make(level) per
    /// decay level on first sight. A block never moves while its context
    /// lives: the pointer stays valid until the next evict / clear on this
    /// table (evict moves the survivors into fresh chunks).
    template <typename Make>
    State* find_or_create(const Key& key, const Make& make) {
      auto [id, inserted] = index_.try_emplace(key, uint32_t{0});
      if (!inserted) return block(*id);
      *id = static_cast<uint32_t>(index_.size() - 1);
      if ((*id & kChunkMask) == 0) start_chunk(chunks_);
      for (size_t i = 0; i < stride_; ++i) chunks_.back().push_back(make(i));
      return block(*id);
    }

    /// Keep the `keep` highest-scoring contexts (score(block) over each
    /// context's state block); rebuild the index and move the survivors'
    /// blocks into fresh chunks under ids 0..keep-1.
    template <typename ScoreFn>
    void evict(size_t keep, const ScoreFn& score) {
      if (index_.size() <= keep) return;
      struct Entry {
        Key key;
        uint32_t id;
        double score;
      };
      std::vector<Entry> all;
      all.reserve(index_.size());
      index_.for_each([&](const Key& k, const uint32_t& id) {
        all.push_back({k, id, score(block(id))});
      });
      std::nth_element(all.begin(),
                       all.begin() + static_cast<std::ptrdiff_t>(keep),
                       all.end(),
                       [](const Entry& a, const Entry& b) {
                         return a.score > b.score;
                       });
      all.resize(keep);
      std::vector<std::vector<State>> chunks;
      chunks.reserve((keep + kChunkContexts - 1) / kChunkContexts);
      FlatMap<Key, uint32_t> index;
      index.reserve(keep);
      for (size_t i = 0; i < all.size(); ++i) {
        index.try_emplace(all[i].key, static_cast<uint32_t>(i));
        if ((i & kChunkMask) == 0) start_chunk(chunks);
        State* b = block(all[i].id);
        for (size_t j = 0; j < stride_; ++j) {
          chunks.back().push_back(std::move(b[j]));
        }
      }
      chunks_ = std::move(chunks);
      index_ = std::move(index);
    }

   private:
    // 256 contexts per chunk: one allocation per 256 new contexts, and the
    // last chunk's unused tail stays small (64 and 1024 measured the same).
    static constexpr size_t kChunkShift = 8;
    static constexpr size_t kChunkContexts = size_t{1} << kChunkShift;
    static constexpr size_t kChunkMask = kChunkContexts - 1;

    // Appends an empty chunk reserved to its full length, so filling it
    // never reallocates (its blocks never move).
    std::vector<State>& start_chunk(
        std::vector<std::vector<State>>& chunks) const {
      std::vector<State>& c = chunks.emplace_back();
      c.reserve(kChunkContexts * stride_);
      return c;
    }
    State* block(uint32_t id) {
      return chunks_[id >> kChunkShift].data() + (id & kChunkMask) * stride_;
    }

    FlatMap<Key, uint32_t> index_;
    std::vector<std::vector<State>> chunks_;
    size_t stride_ = 1;
  };

  void maybe_evict(double now);

  std::vector<double> lambdas_;
  std::vector<std::string> names_;
  size_t max_contexts_ = 0;
  size_t slow_ = 0;  // index of the slowest-decaying (smallest) lambda
  ContextTable<uint64_t, features::DampedStat> mac_;
  ContextTable<uint64_t, features::DampedStat> src_;
  ContextTable<uint64_t, ChanState> chan_;
  ContextTable<Key128, features::DampedStat2D> sock_;
};

}  // namespace lumen::core
