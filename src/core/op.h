// Operation abstraction: the unit of composition in Lumen pipelines.
//
// An OpSpec is one entry of the user's template file ("func", "input",
// "output", plus operation-specific parameters). The OperationRegistry maps
// func names to factories; each Operation declares its input/output kinds so
// the engine can type-check pipelines before execution (§3.2).
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "common/flat_map.h"
#include "common/rng.h"
#include "core/json.h"
#include "core/value.h"

namespace lumen::core {

/// One parsed template entry.
struct OpSpec {
  std::string func;
  std::vector<std::string> inputs;  // binding names consumed
  std::string output;               // binding name produced
  Json params;                      // the full template object
};

/// Execution context handed to every operation.
struct OpContext {
  const trace::Dataset* dataset = nullptr;
  Rng rng{12345};
  /// Datasets loaded mid-pipeline (e.g. by pcap_source) live here so that
  /// PacketSet values referencing them stay valid for the whole run.
  std::vector<std::shared_ptr<trace::Dataset>> owned_datasets;
};

class Operation {
 public:
  explicit Operation(OpSpec spec) : spec_(std::move(spec)) {}
  virtual ~Operation() = default;

  const OpSpec& spec() const { return spec_; }

  /// Expected input kinds (kAny entries accept anything).
  virtual std::vector<ValueKind> input_kinds() const = 0;
  virtual ValueKind output_kind() const = 0;

  virtual Result<Value> run(const std::vector<const Value*>& inputs,
                            OpContext& ctx) = 0;

 protected:
  OpSpec spec_;
};

using OperationPtr = std::unique_ptr<Operation>;
using OperationFactory = std::function<Result<OperationPtr>(OpSpec)>;

/// Global func-name -> factory registry.
class OperationRegistry {
 public:
  static OperationRegistry& instance();

  void register_op(const std::string& func, OperationFactory factory);
  Result<OperationPtr> create(OpSpec spec) const;
  std::vector<std::string> known_ops() const;
  bool knows(const std::string& func) const;

 private:
  std::map<std::string, OperationFactory> factories_;
};

/// Registers every built-in operation (idempotent; called by the engine).
void register_builtin_operations();

// ---- shared helpers used by several operations ----

/// Numeric accessor of one packet field.
using PacketFieldFn = double (*)(const netio::PacketView&);

/// The accessor of packet field `field` ("len", or its alias
/// "packetLength", ...); nullptr when unknown. "iat" is contextual, so it
/// is not a packet field.
PacketFieldFn find_packet_field(std::string_view field);

/// The canonical names of the packet fields, in table order.
const std::vector<std::string>& known_packet_fields();

/// A group-key kind of the groupby-style ops: `pack` maps a packet to a
/// Key128 that is equal iff the groups are, `render` prints the group key.
struct GroupKey {
  const char* name;
  const char* alias;  // nullptr: none
  Key128 (*pack)(const netio::PacketView&);
  std::string (*render)(const Key128&);
};

/// The group key named `key`, case-insensitive ("srcip", "dstip", "srcdst",
/// "channel", "socket", "srcmac", "dstport", "proto"); errors naming `op`.
Result<const GroupKey*> find_group_key(const std::string& key,
                                       const std::string& op);

}  // namespace lumen::core
