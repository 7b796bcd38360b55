// The original string-keyed Kitsune feature extractor, kept verbatim as the
// golden reference for the packed-key hot path in core/kitsune_extractor.h:
// extractor_golden_test.cpp proves the production extractor emits
// bit-identical feature vectors to this implementation. A test oracle
// only: it builds several heap-allocated string keys and walks ~5 std::map
// trees per context per packet.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "features/stats.h"
#include "netio/bytes.h"
#include "netio/packet.h"

namespace lumen::core {

class ReferenceKitsuneExtractor {
 public:
  explicit ReferenceKitsuneExtractor(std::vector<double> lambdas = {})
      : lambdas_(std::move(lambdas)) {
    if (lambdas_.empty()) lambdas_ = {5.0, 3.0, 1.0, 0.1, 0.01};
    state_.resize(lambdas_.size());
  }

  size_t dim() const { return 23 * lambdas_.size(); }

  void process(const netio::PacketView& v, std::vector<double>& out) {
    out.assign(dim(), 0.0);
    const double size = v.wire_len;
    const double ts = v.ts;
    size_t c = 0;
    for (size_t li = 0; li < lambdas_.size(); ++li) {
      LambdaState& st = state_[li];
      const double lam = lambdas_[li];

      auto& mac = st.mac.try_emplace(mac_key(v), lam).first->second;
      mac.insert(size, ts);
      out[c++] = mac.weight();
      out[c++] = mac.mean();
      out[c++] = mac.stddev();

      if (!v.has_ip) {
        // Non-IP frame (ARP / 802.11): only the MAC context applies. The
        // historic skip width (17, not the 20 remaining slots) is part of
        // the observable feature layout and is preserved as-is.
        c += 17;
        continue;
      }
      const std::string sk = netio::ipv4_to_string(v.src_ip);
      auto& src = st.src.try_emplace(sk, lam).first->second;
      src.insert(size, ts);
      out[c++] = src.weight();
      out[c++] = src.mean();
      out[c++] = src.stddev();

      // Canonical channel/socket keys; dir 0 when src <= dst.
      const bool fwd = v.src_ip <= v.dst_ip;
      const std::string ch =
          fwd ? sk + ">" + netio::ipv4_to_string(v.dst_ip)
              : netio::ipv4_to_string(v.dst_ip) + ">" + sk;
      auto& chan = st.chan.try_emplace(ch, lam).first->second;
      chan.insert(fwd ? 0 : 1, size, ts);
      const features::DampedStat& cd = fwd ? chan.a() : chan.b();
      out[c++] = cd.weight();
      out[c++] = cd.mean();
      out[c++] = cd.stddev();

      const std::string sock =
          ch + ":" + std::to_string(fwd ? v.src_port : v.dst_port) + "-" +
          std::to_string(fwd ? v.dst_port : v.src_port);
      auto& so = st.sock.try_emplace(sock, lam).first->second;
      so.insert(fwd ? 0 : 1, size, ts);
      const features::DampedStat& sd = fwd ? so.a() : so.b();
      out[c++] = sd.weight();
      out[c++] = sd.mean();
      out[c++] = sd.stddev();

      out[c++] = chan.magnitude();
      out[c++] = chan.radius();
      out[c++] = chan.covariance();
      out[c++] = chan.pcc();
      out[c++] = so.magnitude();
      out[c++] = so.radius();
      out[c++] = so.covariance();
      out[c++] = so.pcc();

      auto& jit = st.jitter.try_emplace(ch, lam).first->second;
      auto [lit, fresh] = st.last_seen.try_emplace(ch, ts);
      if (!fresh) {
        jit.insert(ts - lit->second, ts);
        lit->second = ts;
      }
      out[c++] = jit.weight();
      out[c++] = jit.mean();
      out[c++] = jit.stddev();
    }
  }

  size_t tracked_contexts() const {
    size_t n = 0;
    for (const LambdaState& st : state_) {
      n += st.mac.size() + st.src.size() + st.chan.size() + st.sock.size() +
           st.jitter.size();
    }
    return n;
  }

 private:
  struct LambdaState {
    std::map<std::string, features::DampedStat> mac, src;
    std::map<std::string, features::DampedStat2D> chan, sock;
    std::map<std::string, features::DampedStat> jitter;  // per channel
    std::map<std::string, double> last_seen;             // per channel
  };

  static std::string mac_key(const netio::PacketView& v) {
    char buf[13];
    std::snprintf(buf, sizeof(buf), "%02x%02x%02x%02x%02x%02x", v.src_mac[0],
                  v.src_mac[1], v.src_mac[2], v.src_mac[3], v.src_mac[4],
                  v.src_mac[5]);
    return buf;
  }

  std::vector<double> lambdas_;
  std::vector<LambdaState> state_;
};

}  // namespace lumen::core
