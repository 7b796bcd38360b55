#include "netio/builder.h"

namespace lumen::netio {

namespace {

constexpr uint16_t kEtherIpv4 = 0x0800;
constexpr uint16_t kEtherArp = 0x0806;

void write_ethernet(ByteWriter& w, const MacAddr& dst, const MacAddr& src,
                    uint16_t ether_type) {
  for (const uint8_t b : dst) w.u8(b);
  for (const uint8_t b : src) w.u8(b);
  w.u16(ether_type);
}

/// Writes the 20-byte IPv4 header; returns the offset of the header so the
/// checksum can be patched once the total length is known.
size_t write_ipv4(ByteWriter& w, uint32_t src_ip, uint32_t dst_ip,
                  uint8_t proto, uint16_t payload_len, const Ipv4Opts& ip) {
  const size_t off = w.size();
  const uint16_t total_len = static_cast<uint16_t>(20 + payload_len);
  w.u8(0x45);  // version 4, IHL 5
  w.u8(ip.tos);
  w.u16(total_len);
  w.u16(ip.ident);
  w.u16(ip.dont_fragment ? 0x4000 : 0x0000);
  w.u8(ip.ttl);
  w.u8(proto);
  w.u16(0);  // checksum placeholder
  w.u32(src_ip);
  w.u32(dst_ip);
  return off;
}

void patch_ipv4_checksum(Bytes& frame, size_t ip_off) {
  const uint16_t csum = internet_checksum(
      std::span<const uint8_t>(frame.data() + ip_off, 20));
  frame[ip_off + 10] = static_cast<uint8_t>(csum >> 8);
  frame[ip_off + 11] = static_cast<uint8_t>(csum);
}

/// Pseudo-header sum for TCP/UDP checksums.
uint32_t pseudo_header_sum(uint32_t src_ip, uint32_t dst_ip, uint8_t proto,
                           uint16_t l4_len) {
  uint32_t sum = 0;
  sum += (src_ip >> 16) & 0xffff;
  sum += src_ip & 0xffff;
  sum += (dst_ip >> 16) & 0xffff;
  sum += dst_ip & 0xffff;
  sum += proto;
  sum += l4_len;
  return sum;
}

void patch_l4_checksum(Bytes& frame, size_t l4_off, size_t csum_off,
                       uint32_t src_ip, uint32_t dst_ip, uint8_t proto) {
  const size_t l4_len = frame.size() - l4_off;
  frame[csum_off] = 0;
  frame[csum_off + 1] = 0;
  const uint32_t pseudo =
      pseudo_header_sum(src_ip, dst_ip, proto, static_cast<uint16_t>(l4_len));
  uint16_t csum = internet_checksum(
      std::span<const uint8_t>(frame.data() + l4_off, l4_len), pseudo);
  if (csum == 0 && proto == 17) csum = 0xffff;  // UDP: zero means "absent"
  frame[csum_off] = static_cast<uint8_t>(csum >> 8);
  frame[csum_off + 1] = static_cast<uint8_t>(csum);
}

}  // namespace

Bytes build_tcp(const MacAddr& src_mac, const MacAddr& dst_mac,
                uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                uint16_t dst_port, const TcpOpts& tcp, const Bytes& payload,
                const Ipv4Opts& ip) {
  Bytes frame;
  frame.reserve(14 + 20 + 20 + payload.size());
  ByteWriter w(frame);
  write_ethernet(w, dst_mac, src_mac, kEtherIpv4);
  const size_t ip_off = write_ipv4(
      w, src_ip, dst_ip, 6, static_cast<uint16_t>(20 + payload.size()), ip);
  const size_t l4_off = w.size();
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(tcp.seq);
  w.u32(tcp.ack);
  w.u8(0x50);  // data offset 5 words
  w.u8(tcp.flags);
  w.u16(tcp.window);
  w.u16(0);  // checksum placeholder
  w.u16(0);  // urgent pointer
  w.raw(payload);
  patch_ipv4_checksum(frame, ip_off);
  patch_l4_checksum(frame, l4_off, l4_off + 16, src_ip, dst_ip, 6);
  return frame;
}

Bytes build_udp(const MacAddr& src_mac, const MacAddr& dst_mac,
                uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                uint16_t dst_port, const Bytes& payload, const Ipv4Opts& ip) {
  Bytes frame;
  frame.reserve(14 + 20 + 8 + payload.size());
  ByteWriter w(frame);
  write_ethernet(w, dst_mac, src_mac, kEtherIpv4);
  const size_t ip_off = write_ipv4(
      w, src_ip, dst_ip, 17, static_cast<uint16_t>(8 + payload.size()), ip);
  const size_t l4_off = w.size();
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(static_cast<uint16_t>(8 + payload.size()));
  w.u16(0);  // checksum placeholder
  w.raw(payload);
  patch_ipv4_checksum(frame, ip_off);
  patch_l4_checksum(frame, l4_off, l4_off + 6, src_ip, dst_ip, 17);
  return frame;
}

Bytes build_icmp(const MacAddr& src_mac, const MacAddr& dst_mac,
                 uint32_t src_ip, uint32_t dst_ip, uint8_t type, uint8_t code,
                 const Bytes& payload, const Ipv4Opts& ip) {
  Bytes frame;
  frame.reserve(14 + 20 + 8 + payload.size());
  ByteWriter w(frame);
  write_ethernet(w, dst_mac, src_mac, kEtherIpv4);
  const size_t ip_off = write_ipv4(
      w, src_ip, dst_ip, 1, static_cast<uint16_t>(8 + payload.size()), ip);
  const size_t icmp_off = w.size();
  w.u8(type);
  w.u8(code);
  w.u16(0);  // checksum placeholder
  w.u32(0);  // rest of header (id/seq)
  w.raw(payload);
  patch_ipv4_checksum(frame, ip_off);
  const uint16_t csum = internet_checksum(std::span<const uint8_t>(
      frame.data() + icmp_off, frame.size() - icmp_off));
  frame[icmp_off + 2] = static_cast<uint8_t>(csum >> 8);
  frame[icmp_off + 3] = static_cast<uint8_t>(csum);
  return frame;
}

Bytes build_arp(const MacAddr& src_mac, const MacAddr& dst_mac, uint16_t op,
                const MacAddr& sender_mac, uint32_t sender_ip,
                const MacAddr& target_mac, uint32_t target_ip) {
  Bytes frame;
  frame.reserve(14 + 28);
  ByteWriter w(frame);
  write_ethernet(w, dst_mac, src_mac, kEtherArp);
  w.u16(1);       // hardware type: ethernet
  w.u16(0x0800);  // protocol type: IPv4
  w.u8(6);
  w.u8(4);
  w.u16(op);
  w.raw(std::span<const uint8_t>(sender_mac.data(), 6));
  w.u32(sender_ip);
  w.raw(std::span<const uint8_t>(target_mac.data(), 6));
  w.u32(target_ip);
  return frame;
}

Bytes build_dot11_mgmt(uint8_t subtype, const MacAddr& src, const MacAddr& dst,
                       const MacAddr& bssid, const Bytes& body) {
  Bytes frame;
  frame.reserve(24 + body.size());
  ByteWriter w(frame);
  // Frame control (little-endian on the wire): type 0 (mgmt), given subtype.
  const uint16_t fc = static_cast<uint16_t>((0u << 2) | (subtype << 4));
  w.u16le(fc);
  w.u16le(0);  // duration
  w.raw(std::span<const uint8_t>(dst.data(), 6));
  w.raw(std::span<const uint8_t>(src.data(), 6));
  w.raw(std::span<const uint8_t>(bssid.data(), 6));
  w.u16le(0);  // sequence control
  w.raw(body);
  return frame;
}

Bytes build_dot11_data(const MacAddr& src, const MacAddr& dst,
                       const MacAddr& bssid, size_t body_len, uint8_t fill) {
  Bytes frame;
  frame.reserve(24 + body_len);
  ByteWriter w(frame);
  const uint16_t fc = static_cast<uint16_t>((2u << 2) | (0u << 4) | 0x4000);
  w.u16le(fc);  // type 2 (data), protected bit set
  w.u16le(0);
  w.raw(std::span<const uint8_t>(dst.data(), 6));
  w.raw(std::span<const uint8_t>(src.data(), 6));
  w.raw(std::span<const uint8_t>(bssid.data(), 6));
  w.u16le(0);
  frame.insert(frame.end(), body_len, fill);
  return frame;
}

Bytes payload_dns_query(uint16_t txid, const std::string& qname) {
  Bytes p;
  ByteWriter w(p);
  w.u16(txid);
  w.u16(0x0100);  // standard query, recursion desired
  w.u16(1);       // QDCOUNT
  w.u16(0);
  w.u16(0);
  w.u16(0);
  // QNAME: length-prefixed labels.
  size_t start = 0;
  while (start <= qname.size()) {
    size_t dot = qname.find('.', start);
    if (dot == std::string::npos) dot = qname.size();
    const size_t len = dot - start;
    w.u8(static_cast<uint8_t>(len));
    w.raw(qname.substr(start, len));
    if (dot >= qname.size()) break;
    start = dot + 1;
  }
  w.u8(0);    // root label
  w.u16(1);   // QTYPE A
  w.u16(1);   // QCLASS IN
  return p;
}

Bytes payload_http_request(const std::string& method, const std::string& uri,
                           const std::string& host) {
  const std::string text = method + " " + uri + " HTTP/1.1\r\nHost: " + host +
                           "\r\nUser-Agent: lumen-iot/1.0\r\n\r\n";
  return Bytes(text.begin(), text.end());
}

Bytes payload_mqtt(uint8_t type, size_t body_len) {
  Bytes p;
  ByteWriter w(p);
  w.u8(static_cast<uint8_t>(type << 4));
  // Remaining-length varint (we only need 1-2 bytes at our sizes).
  if (body_len < 128) {
    w.u8(static_cast<uint8_t>(body_len));
  } else {
    w.u8(static_cast<uint8_t>((body_len & 0x7f) | 0x80));
    w.u8(static_cast<uint8_t>(body_len >> 7));
  }
  p.insert(p.end(), body_len, 0x4d);
  return p;
}

Bytes payload_ntp_request() {
  Bytes p(48, 0);
  p[0] = 0x23;  // LI 0, VN 4, mode 3 (client)
  return p;
}

Bytes payload_ssdp_msearch() {
  const std::string text =
      "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"
      "MAN: \"ssdp:discover\"\r\nMX: 2\r\nST: ssdp:all\r\n\r\n";
  return Bytes(text.begin(), text.end());
}

Bytes payload_tls_appdata(size_t body_len, uint8_t fill) {
  Bytes p;
  ByteWriter w(p);
  w.u8(0x17);    // application data
  w.u16(0x0303); // TLS 1.2
  w.u16(static_cast<uint16_t>(body_len));
  p.insert(p.end(), body_len, fill);
  return p;
}

}  // namespace lumen::netio
