#include "core/op.h"

#include <strings.h>

#include <cstdio>
#include <mutex>

#include "netio/bytes.h"

namespace lumen::core {

OperationRegistry& OperationRegistry::instance() {
  static OperationRegistry reg;
  return reg;
}

void OperationRegistry::register_op(const std::string& func,
                                    OperationFactory factory) {
  factories_[func] = std::move(factory);
}

Result<OperationPtr> OperationRegistry::create(OpSpec spec) const {
  auto it = factories_.find(spec.func);
  if (it == factories_.end()) {
    return Error::make("registry", "unknown operation '" + spec.func + "'");
  }
  return it->second(std::move(spec));
}

std::vector<std::string> OperationRegistry::known_ops() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [k, v] : factories_) out.push_back(k);
  return out;
}

bool OperationRegistry::knows(const std::string& func) const {
  return factories_.count(func) > 0;
}

namespace {

using netio::IpProto;
using V = const netio::PacketView&;

/// The packet-field table: every name find_packet_field and
/// known_packet_fields know, with the template spelling as an alias.
struct PacketFieldDef {
  const char* name;
  const char* alias;  // nullptr: none
  PacketFieldFn get;
};

double is(bool b) { return b ? 1.0 : 0.0; }

const PacketFieldDef kPacketFields[] = {
    {"ts", nullptr, [](V v) { return v.ts; }},
    {"len", "packetLength", [](V v) -> double { return v.wire_len; }},
    {"ip_len", nullptr, [](V v) -> double { return v.ip_len; }},
    {"payload_len", nullptr, [](V v) -> double { return v.payload_len; }},
    {"srcip", "srcIP", [](V v) -> double { return v.src_ip; }},
    {"dstip", "dstIP", [](V v) -> double { return v.dst_ip; }},
    {"sport", "srcPort", [](V v) -> double { return v.src_port; }},
    {"dport", "dstPort", [](V v) -> double { return v.dst_port; }},
    {"proto", nullptr, [](V v) -> double { return v.proto_raw; }},
    {"ttl", nullptr, [](V v) -> double { return v.ttl; }},
    {"tcpflags", "TCPFlags", [](V v) -> double { return v.tcp_flags; }},
    {"tcp_window", nullptr, [](V v) -> double { return v.tcp_window; }},
    {"tcp_seq", nullptr, [](V v) -> double { return v.tcp_seq; }},
    {"icmp_type", nullptr, [](V v) -> double { return v.icmp_type; }},
    {"app", nullptr, [](V v) { return static_cast<double>(v.app); }},
    {"is_syn", nullptr, [](V v) { return is(v.tcp_flag(netio::kSyn)); }},
    {"is_ack", nullptr, [](V v) { return is(v.tcp_flag(netio::kAck)); }},
    {"is_fin", nullptr, [](V v) { return is(v.tcp_flag(netio::kFin)); }},
    {"is_rst", nullptr, [](V v) { return is(v.tcp_flag(netio::kRst)); }},
    {"is_psh", nullptr, [](V v) { return is(v.tcp_flag(netio::kPsh)); }},
    {"has_ip", nullptr, [](V v) { return is(v.has_ip); }},
    {"is_tcp", nullptr, [](V v) { return is(v.proto == IpProto::kTcp); }},
    {"is_udp", nullptr, [](V v) { return is(v.proto == IpProto::kUdp); }},
    {"is_icmp", nullptr, [](V v) { return is(v.proto == IpProto::kIcmp); }},
    {"dot11_type", nullptr,
     [](V v) { return static_cast<double>(v.dot11_type); }},
    {"dot11_subtype", nullptr, [](V v) -> double { return v.dot11_subtype; }},
};

using K = const Key128&;

std::string ip(uint64_t a) {
  return netio::ipv4_to_string(static_cast<uint32_t>(a));
}

/// The group-key table. Each packing is injective per kind, and `render`
/// inverts it into the printable key.
const GroupKey kGroupKeys[] = {
    {"srcip", nullptr, [](V v) { return Key128{0, v.src_ip}; },
     [](K k) { return ip(k.lo); }},
    {"dstip", nullptr, [](V v) { return Key128{0, v.dst_ip}; },
     [](K k) { return ip(k.lo); }},
    {"srcdst", "channel", [](V v) { return Key128{v.src_ip, v.dst_ip}; },
     [](K k) { return ip(k.hi) + ">" + ip(k.lo); }},
    {"socket", nullptr,
     [](V v) {
       return Key128{uint64_t{v.src_ip} << 32 | v.dst_ip,
                     uint64_t{v.src_port} << 32 | uint64_t{v.dst_port} << 16 |
                         v.proto_raw};
     },
     [](K k) {
       return ip(k.hi >> 32) + ":" + std::to_string(k.lo >> 32) + ">" +
              ip(k.hi & 0xffffffff) + ":" +
              std::to_string(k.lo >> 16 & 0xffff) + "/" +
              std::to_string(k.lo & 0xff);
     }},
    {"srcmac", nullptr,
     [](V v) {
       uint64_t mac = 0;
       for (int i = 0; i < 6; ++i) mac = mac << 8 | v.src_mac[i];
       return Key128{0, mac};
     },
     [](K k) {
       char buf[13];
       std::snprintf(buf, sizeof buf, "%012llx",
                     static_cast<unsigned long long>(k.lo));
       return std::string(buf);
     }},
    {"dstport", nullptr, [](V v) { return Key128{0, v.dst_port}; },
     [](K k) { return std::to_string(k.lo); }},
    {"proto", nullptr, [](V v) { return Key128{0, v.proto_raw}; },
     [](K k) { return std::to_string(k.lo); }},
};

}  // namespace

PacketFieldFn find_packet_field(std::string_view field) {
  for (const PacketFieldDef& f : kPacketFields) {
    if (field == f.name || (f.alias != nullptr && field == f.alias)) {
      return f.get;
    }
  }
  return nullptr;
}

const std::vector<std::string>& known_packet_fields() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const PacketFieldDef& f : kPacketFields) names.push_back(f.name);
    return names;
  }();
  return kNames;
}

Result<const GroupKey*> find_group_key(const std::string& key,
                                       const std::string& op) {
  for (const GroupKey& k : kGroupKeys) {
    if (strcasecmp(key.c_str(), k.name) == 0 ||
        (k.alias != nullptr && strcasecmp(key.c_str(), k.alias) == 0)) {
      return &k;
    }
  }
  return Error::make(op, "unknown group key '" + key + "'");
}

// Registrars defined by the ops_*.cpp translation units.
void register_packet_ops();
void register_flow_ops();
void register_table_ops();
void register_model_ops();
void register_io_ops();

void register_builtin_operations() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_packet_ops();
    register_flow_ops();
    register_table_ops();
    register_model_ops();
    register_io_ops();
  });
}

}  // namespace lumen::core
