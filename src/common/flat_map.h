// Open-addressing hash map for the per-packet hot path.
//
// The Kitsune extractor probes a context table four times per packet; with
// std::map<std::string, ...> each probe costs a string construction plus a
// pointer-chasing tree walk. FlatMap stores {key, value} pairs inline in one
// power-of-two array and resolves collisions by linear probing, so a probe
// is a hash, a masked index, and a short contiguous scan — no allocation,
// no pointer chasing. Keys are small trivially-copyable values (packed
// 64/128-bit context identifiers; see core/kitsune_extractor.h).
//
// erase() is backward-shift deletion: the entries after the hole that may
// move up into it do, so every probe run stays unbroken with no tombstones
// and no allocation. Capped context eviction erases its victims this way
// and reuses their slots for the next keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lumen {

/// 64-bit finalizer (splitmix64): cheap, and good enough to keep linear
/// probe chains short for packed MAC/IP keys that differ in few bits.
inline uint64_t hash_u64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 128-bit key (e.g. canonical IP pair + canonical port pair).
struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const Key128& a, const Key128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

template <typename K>
struct FlatHash;

template <>
struct FlatHash<uint64_t> {
  uint64_t operator()(uint64_t k) const { return hash_u64(k); }
};

template <>
struct FlatHash<uint32_t> {
  uint64_t operator()(uint32_t k) const { return hash_u64(k); }
};

template <>
struct FlatHash<Key128> {
  uint64_t operator()(const Key128& k) const {
    return hash_u64(k.hi ^ hash_u64(k.lo));
  }
};

template <typename Key, typename Mapped, typename Hash = FlatHash<Key>>
class FlatMap {
 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of slots currently allocated (power of two, 0 when empty).
  size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// Pre-size the table for at least `n` entries without rehashing later.
  void reserve(size_t n) {
    size_t want = kMinCapacity;
    while (want * kMaxLoadNum < n * kMaxLoadDen) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  /// Find the value mapped to `k`, or nullptr.
  Mapped* find(const Key& k) {
    if (slots_.empty()) return nullptr;
    size_t i = index_of(k);
    while (slots_[i].used) {
      if (slots_[i].key == k) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Mapped* find(const Key& k) const {
    return const_cast<FlatMap*>(this)->find(k);
  }

  /// Find `k`, inserting Mapped(args...) if absent. Returns the mapped
  /// value and whether an insert happened. References stay valid until the
  /// next insert / erase / clear.
  template <typename... Args>
  std::pair<Mapped*, bool> try_emplace(const Key& k, Args&&... args) {
    if (slots_.empty() ||
        (size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    size_t i = index_of(k);
    while (slots_[i].used) {
      if (slots_[i].key == k) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i].used = true;
    slots_[i].key = k;
    slots_[i].value = Mapped(std::forward<Args>(args)...);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Remove `k` if present; returns whether it was. Walks the probe run
  /// after the hole and moves up each entry whose home slot does not lie
  /// cyclically in (hole, its slot], so a later find still reaches it.
  /// Never rehashes or allocates.
  bool erase(const Key& k) {
    if (slots_.empty()) return false;
    size_t hole = index_of(k);
    while (slots_[hole].used && !(slots_[hole].key == k)) {
      hole = (hole + 1) & mask_;
    }
    if (!slots_[hole].used) return false;
    for (size_t j = (hole + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
      // The entry at j may fill the hole when the hole lies on its probe
      // path: home .. hole .. j, measured cyclically.
      const size_t home = index_of(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Visit every entry as f(key, value). Iteration order is the slot order
  /// (deterministic for a given insert history, but otherwise unspecified).
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    Key key{};
    Mapped value{};
    bool used = false;
  };

  static constexpr size_t kMinCapacity = 16;
  // Max load factor 3/4 keeps expected linear-probe chains at a few slots.
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;

  size_t index_of(const Key& k) const { return Hash{}(k)&mask_; }

  void rehash(size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      size_t i = index_of(s.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace lumen
