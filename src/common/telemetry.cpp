#include "common/telemetry.h"

#include <algorithm>
#include <cstdio>

namespace lumen::telemetry {

namespace detail {

unsigned stripe_index() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

namespace {
struct TlSpan {
  Registry* reg;
  uint64_t id;
};

std::vector<TlSpan>& tl_span_stack() {
  thread_local std::vector<TlSpan> stack;
  return stack;
}
}  // namespace

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const size_t n = bounds_.size() + 1;  // +Inf bucket
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<uint64_t>[]>(n);
    for (size_t i = 0; i < n; ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += s.counts[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (const uint64_t c : bucket_counts()) n += c;
  return n;
}

double Histogram::sum() const {
  double s = 0.0;
  for (const Shard& sh : shards_) {
    s += detail::bits_double(sh.sum_bits.load(std::memory_order_relaxed));
  }
  return s;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (size_t i = 0; i < bounds_.size() + 1; ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
    s.sum_bits.store(0, std::memory_order_relaxed);
  }
}

const std::vector<double>& Histogram::default_ns_bounds() {
  static const std::vector<double> bounds = {
      100.0,    250.0,    500.0,    1000.0,   2500.0,
      5000.0,   10000.0,  25000.0,  50000.0,  100000.0,
      250000.0, 500000.0, 1000000.0, 10000000.0};
  return bounds;
}

// ---------------------------------------------------------------------------
// Registry

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

Registry& Registry::process() {
  static Registry reg;
  return reg;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  return histogram(name, Histogram::default_ns_bounds());
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.counts = h->bucket_counts();
    s.sum = h->sum();
    for (const uint64_t c : s.counts) s.count += c;
    snap.histograms.push_back(std::move(s));
  }
  snap.spans.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    snap.spans.push_back(spans_[(span_head_ + i) % spans_.size()]);
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  spans_.clear();
  span_head_ = 0;
}

void Registry::record_span(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < kSpanLogCapacity) {
    spans_.push_back(std::move(rec));
  } else {
    spans_[span_head_] = std::move(rec);
    span_head_ = (span_head_ + 1) % spans_.size();
  }
}

void Registry::set_span_flag(uint64_t id, bool flag) {
  std::lock_guard<std::mutex> lock(mu_);
  // Recently-recorded spans live near the logical end of the ring; scan
  // backwards from there.
  for (size_t i = spans_.size(); i-- > 0;) {
    SpanRecord& rec = spans_[(span_head_ + i) % spans_.size()];
    if (rec.id == id) {
      rec.flag = flag;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Span

Span::Span(Registry* reg, std::string name, std::string detail)
    : reg_(reg), name_(std::move(name)), detail_(std::move(detail)) {
  if (reg_ == nullptr) return;
  id_ = reg_->next_span_id();
  auto& stack = detail::tl_span_stack();
  for (size_t i = stack.size(); i-- > 0;) {
    if (stack[i].reg == reg_) {
      parent_ = stack[i].id;
      break;
    }
  }
  for (const auto& e : stack) depth_ += e.reg == reg_;
  stack.push_back({reg_, id_});
  t0_ = std::chrono::steady_clock::now();  // after bookkeeping: time the body
}

void Span::stop() {
  if (reg_ == nullptr || seconds_ >= 0.0) return;
  seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0_)
                 .count();
}

double Span::seconds() const { return seconds_ < 0.0 ? 0.0 : seconds_; }

Span::~Span() {
  if (reg_ == nullptr) return;
  stop();
  auto& stack = detail::tl_span_stack();
  // Spans are scoped objects, so this span is the innermost entry for its
  // registry; erase it even if foreign-registry spans were opened above it.
  for (size_t i = stack.size(); i-- > 0;) {
    if (stack[i].reg == reg_ && stack[i].id == id_) {
      stack.erase(stack.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  SpanRecord rec;
  rec.id = id_;
  rec.parent = parent_;
  rec.depth = depth_;
  rec.name = std::move(name_);
  rec.detail = std::move(detail_);
  rec.start = reg_->epoch_seconds(t0_);
  rec.seconds = seconds_;
  rec.value = value_;
  rec.flag = flag_;
  reg_->record_span(std::move(rec));
}

// ---------------------------------------------------------------------------
// Snapshot lookups

const CounterSample* Snapshot::find_counter(std::string_view name) const {
  for (const CounterSample& s : counters) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const GaugeSample* Snapshot::find_gauge(std::string_view name) const {
  for (const GaugeSample& s : gauges) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const HistogramSample* Snapshot::find_histogram(std::string_view name) const {
  for (const HistogramSample& s : histograms) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SpanRecord* Snapshot::find_span(uint64_t id) const {
  for (const SpanRecord& s : spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

uint64_t Snapshot::counter_value(std::string_view name, uint64_t dflt) const {
  const CounterSample* s = find_counter(name);
  return s == nullptr ? dflt : s->value;
}

double Snapshot::gauge_value(std::string_view name, double dflt) const {
  const GaugeSample* s = find_gauge(name);
  return s == nullptr ? dflt : s->value;
}

// ---------------------------------------------------------------------------
// Prometheus exposition

namespace {

std::string prom_name(std::string_view name) {
  std::string out = "lumen_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out;
  for (const CounterSample& s : counters) {
    const std::string n = prom_name(s.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(s.value) + "\n";
  }
  for (const GaugeSample& s : gauges) {
    const std::string n = prom_name(s.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + json::Writer::format_number(s.value) + "\n";
  }
  for (const HistogramSample& s : histograms) {
    const std::string n = prom_name(s.name);
    out += "# TYPE " + n + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < s.bounds.size(); ++b) {
      cumulative += s.counts[b];
      out += n + "_bucket{le=\"" + json::Writer::format_number(s.bounds[b]) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    cumulative += s.counts.empty() ? 0 : s.counts.back();
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += n + "_sum " + json::Writer::format_number(s.sum) + "\n";
    out += n + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON exposition

std::string Snapshot::to_json() const {
  json::Writer w;
  w.begin_object("counters");
  for (const CounterSample& s : counters) w.kv_u64(s.name, s.value);
  w.end();
  w.begin_object("gauges");
  for (const GaugeSample& s : gauges) w.kv_num(s.name, s.value);
  w.end();
  w.begin_array("histograms");
  for (const HistogramSample& s : histograms) {
    w.begin_inline_object();
    w.kv_str("name", s.name);
    std::string bounds, counts;
    for (size_t i = 0; i < s.bounds.size(); ++i) {
      bounds += (i ? ", " : "") + json::Writer::format_number(s.bounds[i]);
    }
    for (size_t i = 0; i < s.counts.size(); ++i) {
      counts += (i ? ", " : "") + std::to_string(s.counts[i]);
    }
    w.kv_raw("bounds", "[" + bounds + "]");
    w.kv_raw("counts", "[" + counts + "]");
    w.kv_num("sum", s.sum);
    w.kv_u64("count", s.count);
    w.end();
  }
  w.end();
  w.begin_array("spans");
  for (const SpanRecord& s : spans) {
    w.begin_inline_object();
    w.kv_u64("id", s.id);
    w.kv_u64("parent", s.parent);
    w.kv_u64("depth", s.depth);
    w.kv_str("name", s.name);
    w.kv_str("detail", s.detail);
    w.kv_f("start", s.start, 9);
    w.kv_f("seconds", s.seconds, 9);
    w.kv_u64("value", s.value);
    w.kv_bool("flag", s.flag);
    w.end();
  }
  w.end();
  return w.str();
}

namespace json {

Writer::Writer() {
  out_.push_back('{');
  stack_.push_back({'}', false});
}

void Writer::item_prefix() {
  Frame& top = stack_.back();
  if (!top.first) out_ += ",";
  top.first = false;
  if (top.inline_obj) {
    // `{"a": 1, "b": 2}`: no space after the brace, one after each comma.
    if (out_.back() != '{') out_ += " ";
  } else {
    out_ += "\n";
    out_.append(2 * stack_.size(), ' ');
  }
}

void Writer::key_prefix(std::string_view key) {
  item_prefix();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": ";
}

void Writer::begin_object(std::string_view key) {
  key_prefix(key);
  out_ += "{";
  stack_.push_back({'}', false});
}

void Writer::begin_array(std::string_view key) {
  key_prefix(key);
  out_ += "[";
  stack_.push_back({']', false});
}

void Writer::begin_inline_object() {
  item_prefix();
  out_ += "{";
  stack_.push_back({'}', true});
}

void Writer::begin_inline_object(std::string_view key) {
  key_prefix(key);
  out_ += "{";
  stack_.push_back({'}', true});
}

void Writer::end() {
  Frame top = stack_.back();
  stack_.pop_back();
  if (!top.inline_obj && !top.first) {
    out_ += "\n";
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += top.close;
}

void Writer::kv_str(std::string_view key, std::string_view value) {
  key_prefix(key);
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
}

void Writer::kv_bool(std::string_view key, bool value) {
  key_prefix(key);
  out_ += value ? "true" : "false";
}

void Writer::kv_u64(std::string_view key, uint64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
}

void Writer::kv_i64(std::string_view key, int64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
}

void Writer::kv_f(std::string_view key, double value, int decimals) {
  key_prefix(key);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  out_ += buf;
}

void Writer::kv_num(std::string_view key, double value) {
  key_prefix(key);
  out_ += format_number(value);
}

void Writer::kv_raw(std::string_view key, std::string_view raw_json) {
  key_prefix(key);
  out_ += raw_json;
}

std::string Writer::str() {
  while (!stack_.empty()) end();
  out_ += "\n";
  return std::move(out_);
}

std::string Writer::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string Writer::format_number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace json

}  // namespace lumen::telemetry
