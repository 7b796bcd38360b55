// Unified telemetry: one metrics/tracing API for the engine, the ingestion
// runtime, the thread pool, and the benchmark harnesses.
//
// A `Registry` owns named instruments:
//
//   * Counter   — monotonic u64; hot-path add() is a relaxed fetch_add on a
//                 per-thread stripe (no locks, no shared cache line between
//                 threads), aggregated on read.
//   * Gauge     — a double with set / add / update_max semantics (queue
//                 depth, live bytes, high-water marks).
//   * Histogram — fixed upper-bound buckets + sum/count, striped like
//                 Counter so concurrent record() calls stay contention-free.
//
// `Span` is an RAII wall-time scope with parent/child nesting (thread-local
// stack); finished spans land in the registry's bounded span log. Spans are
// for coarse tracing (per-operation, per-evaluation-cell); per-packet stage
// costs go through histograms instead.
//
// `Registry::snapshot()` returns a point-in-time `Snapshot` that can be
// rendered as Prometheus text exposition or as JSON (see
// telemetry::json::Writer).
//
// Hot-path cost model: Counter::add is one relaxed fetch_add on a striped
// cache line (~2-5 ns uncontended); Gauge::set is one relaxed store;
// Histogram::record is a bucket search plus two relaxed RMWs. Creating or
// looking up an instrument by name takes the registry mutex — resolve
// instruments once and keep the reference (they are stable for the
// registry's lifetime).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::telemetry {

namespace detail {
/// Stripe index of the calling thread: a process-wide thread ordinal taken
/// modulo the stripe count, so up to kStripes threads write disjoint cache
/// lines (beyond that, stripes are shared but stay correct).
unsigned stripe_index();

inline uint64_t double_bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}
inline double bits_double(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// Relaxed CAS add on a double stored as bits (portable across libstdc++
/// versions that lack atomic<double>::fetch_add).
inline void atomic_add_double(std::atomic<uint64_t>& bits, double delta) {
  uint64_t old = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double next = bits_double(old) + delta;
    if (bits.compare_exchange_weak(old, double_bits(next),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Relaxed CAS max on a double stored as bits.
inline void atomic_max_double(std::atomic<uint64_t>& bits, double v) {
  uint64_t old = bits.load(std::memory_order_relaxed);
  while (bits_double(old) < v) {
    if (bits.compare_exchange_weak(old, double_bits(v),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}
}  // namespace detail

inline constexpr size_t kCounterStripes = 16;  // power of two
inline constexpr size_t kHistogramStripes = 8;

/// Monotonic counter. add() is lock-free and wait-free on x86.
class Counter {
 public:
  void add(uint64_t n = 1) noexcept {
    cells_[detail::stripe_index() & (kCounterStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t value() const noexcept {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCounterStripes> cells_{};
};

/// Point-in-time double with set / add / max-update semantics.
class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(detail::double_bits(v), std::memory_order_relaxed);
  }
  void add(double delta) noexcept { detail::atomic_add_double(bits_, delta); }
  void update_max(double v) noexcept { detail::atomic_max_double(bits_, v); }

  double value() const noexcept {
    return detail::bits_double(bits_.load(std::memory_order_relaxed));
  }

  void reset() noexcept { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds; one
/// implicit +Inf bucket is appended. record() is striped like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v) noexcept {
    const size_t b = bucket_of(v);
    Shard& s = shards_[detail::stripe_index() & (kHistogramStripes - 1)];
    s.counts[b].fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add_double(s.sum_bits, v);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Aggregated per-bucket counts (size bounds().size() + 1).
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const;
  double sum() const;
  void reset();

  /// Default bounds for nanosecond-scale latency histograms.
  static const std::vector<double>& default_ns_bounds();

 private:
  size_t bucket_of(double v) const noexcept {
    // Linear scan: bound lists are short (~14) and usually hit early.
    size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    return b;
  }

  std::vector<double> bounds_;
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<uint64_t> sum_bits{0};
  };
  std::array<Shard, kHistogramStripes> shards_;
};

/// One finished span in the registry's trace log.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  uint32_t depth = 0;   // nesting depth on the recording thread
  std::string name;
  std::string detail;
  double start = 0.0;    // seconds since the registry's epoch
  double seconds = 0.0;  // wall time between construction and stop()
  uint64_t value = 0;    // caller annotation (e.g. output bytes)
  bool flag = false;     // caller annotation (e.g. freed_early)
};

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
};
struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries
  double sum = 0.0;
  uint64_t count = 0;
};

/// Point-in-time view of a registry: every instrument plus the span log,
/// sorted by name (spans in completion order). Values read with relaxed
/// loads, so a snapshot taken mid-update is internally consistent per
/// instrument but not a global atomic cut — fine for monitoring.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanRecord> spans;

  const CounterSample* find_counter(std::string_view name) const;
  const GaugeSample* find_gauge(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;
  const SpanRecord* find_span(uint64_t id) const;
  uint64_t counter_value(std::string_view name, uint64_t dflt = 0) const;
  double gauge_value(std::string_view name, double dflt = 0.0) const;

  /// Prometheus text exposition (metric names: `lumen_` + name with every
  /// non-[a-zA-Z0-9_:] byte replaced by '_'). Spans are not exported —
  /// Prometheus has no span concept.
  std::string to_prometheus() const;

  /// JSON exposition in the json::Writer house style.
  std::string to_json() const;
};

/// A named registry of instruments plus a bounded log of finished spans.
/// Instrument lookup is mutex-guarded (cold path); returned references are
/// stable for the registry's lifetime.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry (what Engine::Options and
  /// IngestRuntime::Options point at unless an embedder scopes them).
  static Registry& process();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First call fixes the bounds; later calls ignore `bounds`. With no
  /// bounds, Histogram::default_ns_bounds() is used.
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  Snapshot snapshot() const;

  /// Zero every instrument and clear the span log (tests and benchmarks;
  /// instrument references stay valid).
  void reset();

  /// Patch an already-recorded span's flag annotation (e.g. the engine
  /// marking an op's output as freed once a later op consumes it).
  void set_span_flag(uint64_t id, bool flag);

  /// Seconds between the registry's construction and `tp`.
  double epoch_seconds(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double>(tp - epoch_).count();
  }

  // -- used by Span ------------------------------------------------------
  uint64_t next_span_id() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_span(SpanRecord rec);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<SpanRecord> spans_;  // bounded ring, oldest dropped
  size_t span_head_ = 0;           // ring start when at capacity
  std::atomic<uint64_t> next_span_id_{1};
  std::chrono::steady_clock::time_point epoch_;
};

/// Maximum finished spans a registry retains (drop-oldest beyond this).
inline constexpr size_t kSpanLogCapacity = 16384;

/// RAII wall-time scope. Construction pushes the span onto a thread-local
/// stack (so children record their parent and depth); stop() freezes the
/// duration; destruction records it into the registry's span log. A null
/// registry makes the span inert.
class Span {
 public:
  Span(Registry* reg, std::string name, std::string detail = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Freeze the measured duration now (otherwise the destructor does, so
  /// post-processing between stop() and scope exit is not counted).
  void stop();

  /// Annotate the record (must precede destruction).
  void set_value(uint64_t v) { value_ = v; }
  void set_flag(bool f) { flag_ = f; }

  uint64_t id() const { return id_; }
  double seconds() const;

 private:
  Registry* reg_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint32_t depth_ = 0;
  std::string name_;
  std::string detail_;
  std::chrono::steady_clock::time_point t0_;
  double seconds_ = -1.0;  // <0: not yet stopped
  uint64_t value_ = 0;
  bool flag_ = false;
};

namespace json {

/// Streaming JSON writer producing the house style: two-space
/// indent, one field per line, insertion order preserved, inline objects
/// (single line) for array rows and small field values, printf-style fixed
/// decimal counts for doubles. Snapshot::to_json renders through it.
class Writer {
 public:
  /// Open the root object.
  Writer();

  void begin_object(std::string_view key);
  void begin_array(std::string_view key);
  /// Single-line object: as an array row (no key) or as a field value.
  void begin_inline_object();
  void begin_inline_object(std::string_view key);
  /// Close the innermost container.
  void end();

  void kv_str(std::string_view key, std::string_view value);
  void kv_bool(std::string_view key, bool value);
  void kv_u64(std::string_view key, uint64_t value);
  void kv_i64(std::string_view key, int64_t value);
  /// Fixed-point double, printf "%.<decimals>f".
  void kv_f(std::string_view key, double value, int decimals);
  /// Shortest-form number: integral doubles print without a decimal point,
  /// others as %g — the format Snapshot::to_json uses for free-form values.
  void kv_num(std::string_view key, double value);
  /// Pre-rendered JSON (e.g. a nested Snapshot::to_json document).
  void kv_raw(std::string_view key, std::string_view raw_json);

  /// Close every open container and return the document (trailing newline
  /// included, matching the historic fprintf emitters).
  std::string str();

  static std::string escape(std::string_view s);
  /// The kv_num rendering, exposed for the Prometheus writer.
  static std::string format_number(double v);

 private:
  void item_prefix();           // separator + indent for the next item
  void key_prefix(std::string_view key);

  struct Frame {
    char close;       // '}' or ']'
    bool inline_obj;  // single-line container
    bool first = true;
  };
  std::string out_;
  std::vector<Frame> stack_;
};

}  // namespace json

}  // namespace lumen::telemetry
