#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

#include "common/options.h"

namespace lumen::core {

Result<void> Engine::type_check(const PipelineSpec& spec,
                                const std::map<std::string, Value>* seed)
    const {
  register_builtin_operations();
  const OperationRegistry& reg = OperationRegistry::instance();

  std::map<std::string, ValueKind> env;
  if (seed != nullptr) {
    for (const auto& [name, value] : *seed) env[name] = kind_of(value);
  }
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    const OpSpec& op = spec.ops[i];
    if (!reg.knows(op.func)) {
      return Error::make("type_check",
                         "op #" + std::to_string(i) + ": unknown operation '" +
                             op.func + "'");
    }
    // Instantiate to read the declared signature (factories are cheap).
    Result<OperationPtr> inst = reg.create(op);
    if (!inst.ok()) return inst.error();
    const std::vector<ValueKind> expected = inst.value()->input_kinds();
    if (op.inputs.size() > expected.size()) {
      return Error::make(
          "type_check", "op #" + std::to_string(i) + " ('" + op.func +
                            "'): got " + std::to_string(op.inputs.size()) +
                            " inputs, accepts at most " +
                            std::to_string(expected.size()));
    }
    for (size_t k = 0; k < op.inputs.size(); ++k) {
      auto it = env.find(op.inputs[k]);
      if (it == env.end()) {
        return Error::make("type_check",
                           "op #" + std::to_string(i) + " ('" + op.func +
                               "'): input '" + op.inputs[k] +
                               "' is not defined by any earlier operation");
      }
      if (expected[k] != ValueKind::kAny && it->second != expected[k]) {
        return Error::make(
            "type_check",
            "op #" + std::to_string(i) + " ('" + op.func + "'): input '" +
                op.inputs[k] + "' has kind " + value_kind_name(it->second) +
                " but the operation expects " + value_kind_name(expected[k]));
      }
    }
    env[op.output] = inst.value()->output_kind();
  }
  return {};
}

std::vector<OpProfile> profile_from_spans(const telemetry::Snapshot& snap,
                                          const std::vector<uint64_t>& span_ids,
                                          std::string_view op_prefix) {
  std::vector<OpProfile> profile;
  profile.reserve(span_ids.size());
  for (const uint64_t id : span_ids) {
    const telemetry::SpanRecord* rec = snap.find_span(id);
    if (rec == nullptr) continue;  // span log overflowed (giant pipeline)
    OpProfile p;
    p.func = rec->name.rfind(op_prefix, 0) == 0
                 ? rec->name.substr(op_prefix.size())
                 : rec->name;
    p.output = rec->detail;
    p.seconds = rec->seconds;
    p.output_bytes = rec->value;
    p.freed_early = rec->flag;
    profile.push_back(std::move(p));
  }
  return profile;
}

Result<PipelineReport> Engine::run(const PipelineSpec& spec, OpContext& ctx,
                                   const std::map<std::string, Value>* seed)
    const {
  Result<void> ok = type_check(spec, seed);
  if (!ok.ok()) return ok.error();

  const OperationRegistry& reg = OperationRegistry::instance();

  // Telemetry sink: the configured registry, or a run-local scratch one
  // when the embedder silenced publishing.
  telemetry::Registry local_tel;
  telemetry::Registry& tel =
      opts_.registry != nullptr ? *opts_.registry : local_tel;
  const std::string op_prefix = opts_.instrument_prefix + "op.";
  telemetry::Counter& ops_run = tel.counter(opts_.instrument_prefix + "ops");
  telemetry::Gauge& live_gauge =
      tel.gauge(opts_.instrument_prefix + "live_bytes");
  telemetry::Gauge& peak_gauge =
      tel.gauge(opts_.instrument_prefix + "peak_bytes");

  // Last-use index per binding, for dead-value elimination.
  std::map<std::string, size_t> last_use;
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    for (const std::string& in : spec.ops[i].inputs) last_use[in] = i;
  }
  const std::set<std::string> keep(opts_.keep.begin(), opts_.keep.end());

  PipelineReport report;
  std::map<std::string, Value> env;
  std::map<std::string, size_t> env_bytes;
  std::map<std::string, uint64_t> span_of_output;  // for freed-early patches
  size_t live_bytes = 0;

  if (seed != nullptr) {
    for (const auto& [name, value] : *seed) {
      const size_t bytes = value_bytes(value);
      env.emplace(name, value);
      env_bytes[name] = bytes;
      live_bytes += bytes;
    }
    report.peak_bytes = std::max(report.peak_bytes, live_bytes);
  }

  for (size_t i = 0; i < spec.ops.size(); ++i) {
    const OpSpec& op = spec.ops[i];
    Result<OperationPtr> inst = reg.create(op);
    if (!inst.ok()) return inst.error();

    std::vector<const Value*> inputs;
    inputs.reserve(op.inputs.size());
    for (const std::string& name : op.inputs) {
      auto it = env.find(name);
      if (it == env.end()) {
        return Error::make("engine", "op #" + std::to_string(i) +
                                         ": input '" + name +
                                         "' was freed or never produced");
      }
      inputs.push_back(&it->second);
    }

    // One span per op: wall time covers exactly the operation body; bytes
    // are annotated after stop() so they don't count against the clock.
    telemetry::Span span(&tel, op_prefix + op.func, op.output);
    Result<Value> out = inst.value()->run(inputs, ctx);
    span.stop();
    if (!out.ok()) {
      return Error::make("engine", "op #" + std::to_string(i) + " ('" +
                                       op.func + "'): " + out.error().message);
    }

    const size_t output_bytes = value_bytes(out.value());
    span.set_value(output_bytes);
    report.span_ids.push_back(span.id());
    span_of_output[op.output] = span.id();
    ops_run.add(1);

    // Rebinding replaces the old value.
    if (auto it = env.find(op.output); it != env.end()) {
      live_bytes -= env_bytes[op.output];
      env.erase(it);
    }
    live_bytes += output_bytes;
    env_bytes[op.output] = output_bytes;
    env.emplace(op.output, std::move(out).value());
    report.peak_bytes = std::max(report.peak_bytes, live_bytes);

    // Free bindings whose last consumer has now run.
    if (opts_.free_dead_values) {
      for (auto it = env.begin(); it != env.end();) {
        const std::string& name = it->first;
        auto lu = last_use.find(name);
        const bool consumed_out = lu != last_use.end() && lu->second <= i;
        const bool never_used = lu == last_use.end();
        if (consumed_out && !never_used && keep.count(name) == 0 &&
            name != op.output) {
          live_bytes -= env_bytes[name];
          if (auto sp = span_of_output.find(name);
              sp != span_of_output.end()) {
            tel.set_span_flag(sp->second, true);
          }
          it = env.erase(it);
        } else {
          ++it;
        }
      }
    }
    live_gauge.set(static_cast<double>(live_bytes));
    peak_gauge.update_max(static_cast<double>(report.peak_bytes));
  }

  report.bindings = std::move(env);
  return report;
}

std::string render_op_profile(const std::vector<OpProfile>& profile,
                              size_t peak_bytes) {
  std::string out =
      "op                    output                time(ms)   out_bytes  freed\n";
  char line[160];
  for (const OpProfile& p : profile) {
    std::snprintf(line, sizeof(line), "%-21s %-21s %9.3f %11zu  %s\n",
                  p.func.c_str(), p.output.c_str(), p.seconds * 1e3,
                  p.output_bytes, p.freed_early ? "yes" : "no");
    out += line;
  }
  std::snprintf(line, sizeof(line), "peak resident: %zu bytes\n", peak_bytes);
  out += line;
  return out;
}

Engine::Options Engine::Options::normalized(Options opts,
                                            std::string* diagnostic) {
  OptionNormalizer norm("engine");
  norm.default_if_empty(opts.instrument_prefix, "instrument_prefix", "engine.");
  std::vector<std::string> unique;
  unique.reserve(opts.keep.size());
  for (std::string& name : opts.keep) {
    if (std::find(unique.begin(), unique.end(), name) == unique.end()) {
      unique.push_back(std::move(name));
    }
  }
  size_t keep_count = opts.keep.size();
  norm.replace(keep_count, unique.size(), "keep",
               std::to_string(opts.keep.size()) + " names",
               std::to_string(unique.size()) + " unique");
  opts.keep = std::move(unique);
  norm.emit(diagnostic);
  return opts;
}

}  // namespace lumen::core
