#include "core/kitsune_extractor.h"

namespace lumen::core {

namespace {

/// 48-bit MAC packed into the low bytes of a uint64 (big-endian order, so
/// distinct MACs map to distinct keys).
uint64_t pack_mac(const netio::MacAddr& m) {
  uint64_t k = 0;
  for (uint8_t b : m) k = (k << 8) | b;
  return k;
}

/// features::DampedStat::decay's rule on a context clock: the first time
/// sets it, and a later time decays the levels only when it is ahead.
/// Returns the elapsed time to decay the levels by (0: no decay).
double advance(double& last, double t) {
  if (last < 0.0) {
    last = t;
    return 0.0;
  }
  const double dt = t - last;
  if (!(dt > 0.0)) return 0.0;
  last = t;
  return dt;
}

/// Decays a level by `dt` (from advance) at rate `lambda`: one exp2 for
/// every sum the level holds.
void decay(auto& level, double lambda, double dt) {
  if (dt > 0.0) level.decay(std::exp2(-lambda * dt));
}

double* put(double* out, const auto& s) {
  out[0] = s.w;
  out[1] = s.mean();
  out[2] = s.stddev();
  return out + 3;
}

}  // namespace

KitsuneExtractor::KitsuneExtractor(std::vector<double> lambdas,
                                   size_t max_contexts)
    : lambdas_(std::move(lambdas)), max_contexts_(max_contexts) {
  if (lambdas_.empty()) lambdas_ = {5.0, 3.0, 1.0, 0.1, 0.01};
  for (size_t li = 1; li < lambdas_.size(); ++li) {
    if (lambdas_[li] < lambdas_[slow_]) slow_ = li;
  }
  mac_.configure(lambdas_.size());
  src_.configure(lambdas_.size());
  chan_.configure(lambdas_.size());
  sock_.configure(lambdas_.size());
  for (double l : lambdas_) {
    // "l" and the first four characters of the lambda: "l5.00", "l0.01".
    std::string s = std::to_string(l);
    if (s.size() > 4) s.resize(4);
    s.insert(s.begin(), 'l');
    for (const char* ctx_name : {"mac", "src", "chan", "sock"}) {
      names_.push_back(s + "_" + ctx_name + "_w");
      names_.push_back(s + "_" + ctx_name + "_mean");
      names_.push_back(s + "_" + ctx_name + "_std");
    }
    for (const char* p : {"chan", "sock"}) {
      names_.push_back(s + "_" + p + "_mag");
      names_.push_back(s + "_" + p + "_rad");
      names_.push_back(s + "_" + p + "_cov");
      names_.push_back(s + "_" + p + "_pcc");
    }
    names_.push_back(s + "_jit_w");
    names_.push_back(s + "_jit_mean");
    names_.push_back(s + "_jit_std");
  }
}

void KitsuneExtractor::process(const netio::PacketView& v,
                               std::vector<double>& out) {
  if (out.size() != dim()) out.resize(dim());
  const size_t levels = lambdas_.size();
  const double size = v.wire_len;
  const double ts = v.ts;

  const auto mac = mac_.find_or_create(pack_mac(v.src_mac));
  const double mac_dt = advance(mac.head->last, ts);

  if (!v.has_ip) {
    // Non-IP frame (ARP / 802.11): only the MAC context applies. Every
    // other slot must read as zero, and the historic 17-slot skip width of
    // the reference implementation is preserved
    // (tests/kitsune_extractor_ref.h).
    std::fill(out.begin(), out.end(), 0.0);
    double* o = out.data();
    for (size_t li = 0; li < levels; ++li) {
      Sums& m = mac.levels[li];
      decay(m, lambdas_[li], mac_dt);
      m.insert(size);
      o = put(o, m) + 17;
    }
    maybe_evict(ts);
    return;
  }

  // Canonical channel/socket keys; side a when src <= dst, and the port
  // pair follows the IP comparison (the smaller endpoint's port first),
  // exactly as the reference string keys were built.
  const bool fwd = v.src_ip <= v.dst_ip;
  const uint32_t ip_a = fwd ? v.src_ip : v.dst_ip;
  const uint32_t ip_b = fwd ? v.dst_ip : v.src_ip;
  const uint64_t chan_key = (uint64_t{ip_a} << 32) | ip_b;
  const uint16_t port_a = fwd ? v.src_port : v.dst_port;
  const uint16_t port_b = fwd ? v.dst_port : v.src_port;
  const Key128 sock_key{chan_key, (uint64_t{port_a} << 16) | port_b};

  const auto src = src_.find_or_create(uint64_t{v.src_ip});
  const auto chan = chan_.find_or_create(chan_key);
  const auto sock = sock_.find_or_create(sock_key);
  const double src_dt = advance(src.head->last, ts);
  const double chan_dt = advance(chan.head->last, ts);
  const double sock_dt = advance(sock.head->last, ts);
  // The jitter's value is the gap since the channel's previous packet, so
  // a channel's first packet inserts none.
  const bool has_jitter = !chan.created;
  const double jitter = ts - chan.head->last_seen;
  const double jitter_dt =
      has_jitter ? advance(chan.head->jitter_last, ts) : 0.0;
  chan.head->last_seen = ts;

  double* o = out.data();
  for (size_t li = 0; li < levels; ++li) {
    const double lambda = lambdas_[li];
    Sums& m = mac.levels[li];
    decay(m, lambda, mac_dt);
    m.insert(size);
    o = put(o, m);

    Sums& s = src.levels[li];
    decay(s, lambda, src_dt);
    s.insert(size);
    o = put(o, s);

    ChanLevel& ch = chan.levels[li];
    decay(ch.joint, lambda, chan_dt);
    ch.joint.insert(fwd, size);
    o = put(o, fwd ? ch.joint.a : ch.joint.b);

    Joint& so = sock.levels[li];
    decay(so, lambda, sock_dt);
    so.insert(fwd, size);
    o = put(o, fwd ? so.a : so.b);

    *o++ = ch.joint.magnitude();
    *o++ = ch.joint.radius();
    *o++ = ch.joint.covariance();
    *o++ = ch.joint.pcc();
    *o++ = so.magnitude();
    *o++ = so.radius();
    *o++ = so.covariance();
    *o++ = so.pcc();

    if (has_jitter) {
      decay(ch.jitter, lambda, jitter_dt);
      ch.jitter.insert(jitter);
    }
    o = put(o, ch.jitter);
  }
  maybe_evict(ts);
}

void KitsuneExtractor::maybe_evict(double now) {
  if (max_contexts_ == 0) return;
  // Evict down to 3/4 of the cap so GC runs rarely, keeping the contexts
  // with the highest slowest-lambda weight decayed to `now` (a balance of
  // recency and activity; brand-new contexts have weight ~1 and survive).
  const size_t keep = std::max<size_t>(1, max_contexts_ * 3 / 4);
  const double lambda = lambdas_[slow_];
  // A weight decayed from the context clock `last` to `now`, as
  // DampedStat::decay would (each direction of a joint on its own).
  const auto decayed = [lambda, now](double last, double w) {
    const double dt = advance(last, now);
    return dt > 0.0 ? w * std::exp2(-lambda * dt) : w;
  };
  const auto sums_score = [&](const Clock& h, const Sums* lv) {
    return decayed(h.last, lv[slow_].w);
  };
  if (mac_.size() > max_contexts_) mac_.evict(keep, sums_score);
  if (src_.size() > max_contexts_) src_.evict(keep, sums_score);
  if (chan_.size() > max_contexts_) {
    chan_.evict(keep, [&](const ChanHead& h, const ChanLevel* lv) {
      const Joint& j = lv[slow_].joint;
      return decayed(h.last, j.a.w) + decayed(h.last, j.b.w);
    });
  }
  if (sock_.size() > max_contexts_) {
    sock_.evict(keep, [&](const Clock& h, const Joint* lv) {
      return decayed(h.last, lv[slow_].a.w) + decayed(h.last, lv[slow_].b.w);
    });
  }
}

size_t KitsuneExtractor::tracked_contexts() const {
  // Matches the reference accounting: per lambda, one statistic each for
  // mac/src/sock plus two per channel (the 2D stat and the jitter stat).
  return lambdas_.size() *
         (mac_.size() + src_.size() + 2 * chan_.size() + sock_.size());
}

KitsuneExtractor::ContextCounts KitsuneExtractor::context_counts() const {
  return ContextCounts{mac_.size(), src_.size(), chan_.size(), sock_.size()};
}

void KitsuneExtractor::reset() {
  mac_.clear();
  src_.clear();
  chan_.clear();
  sock_.clear();
}

}  // namespace lumen::core
