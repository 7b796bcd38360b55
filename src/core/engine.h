// The execution engine (§3.2): verifies a pipeline's wiring and types before
// running it, executes operations in order, profiles per-operation wall time
// and output memory, and frees intermediates once no later operation uses
// them (the paper's "basic memory optimizations").
#pragma once

#include <map>

#include "common/telemetry.h"
#include "core/pipeline.h"

namespace lumen::core {

/// One row of the engine's time/memory profile: a view over one of the
/// telemetry spans (common/telemetry.h) Engine::run records per operation
/// into Options::registry (name `<prefix>op.<func>`, detail = the output
/// binding, value = output bytes, flag = freed-early). Rows exist only when
/// an embedder asks for them: profile_from_spans over a snapshot of that
/// registry and PipelineReport::span_ids. Scrapers read the spans directly.
struct OpProfile {
  std::string func;
  std::string output;
  double seconds = 0.0;
  size_t output_bytes = 0;
  bool freed_early = false;  // dropped by dead-value elimination
};

/// Rebuild per-op profile rows from the telemetry spans a run recorded
/// (`span_ids` in execution order, names prefixed with `op_prefix`). This is
/// the only constructor of OpProfile rows.
std::vector<OpProfile> profile_from_spans(const telemetry::Snapshot& snap,
                                          const std::vector<uint64_t>& span_ids,
                                          std::string_view op_prefix);

/// Render profile rows (from profile_from_spans) as an aligned text table
/// plus the peak-resident footer (the engine's "plots").
std::string render_op_profile(const std::vector<OpProfile>& profile,
                              size_t peak_bytes);

struct PipelineReport {
  /// Bindings still alive at the end of the run (pipeline results).
  std::map<std::string, Value> bindings;
  size_t peak_bytes = 0;
  /// Span ids (execution order) of this run's per-op telemetry spans in
  /// Options::registry — the keys profile_from_spans reads. With a null
  /// registry the spans lived in a run-local registry and are gone.
  std::vector<uint64_t> span_ids;

  const Value* find(const std::string& name) const {
    auto it = bindings.find(name);
    return it == bindings.end() ? nullptr : &it->second;
  }

  /// Typed result accessor; nullptr when missing or of another kind.
  template <typename T>
  const T* get(const std::string& name) const {
    const Value* v = find(name);
    return v == nullptr ? nullptr : std::get_if<T>(v);
  }
};

class Engine {
 public:
  struct Options {
    bool free_dead_values = true;
    /// Bindings to keep alive even if consumed (besides never-consumed ones).
    std::vector<std::string> keep;
    /// Where per-op spans and byte gauges land. Default: the process-wide
    /// registry, so any embedder can scrape engine activity. nullptr keeps
    /// the run's telemetry in a run-local registry (nothing published);
    /// the report's bindings and peak_bytes still work. Same shape as
    /// IngestRuntime::Options.
    telemetry::Registry* registry = &telemetry::Registry::process();
    /// Prepended to every instrument and span name this engine records.
    std::string instrument_prefix = "engine.";

    /// Returns a copy with out-of-range fields adjusted: duplicate `keep`
    /// names deduplicated (keeping first occurrence) and an empty
    /// instrument_prefix reset to "engine.". When anything moved and
    /// `diagnostic` is non-null, it receives one line naming every
    /// adjustment (same contract as IngestRuntime::Options::normalized).
    static Options normalized(Options opts, std::string* diagnostic);
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(Options opts)
      : opts_(Options::normalized(std::move(opts), nullptr)) {}

  /// Static analysis only: unknown ops, undefined inputs, kind mismatches.
  /// `seed` optionally pre-populates the binding environment (name -> value
  /// kind is derived from the values) — how a deploy spec consumes a model
  /// trained by an earlier run; compile_streaming checks specs the same way
  /// with StreamingOptions::bindings.
  Result<void> type_check(const PipelineSpec& spec,
                          const std::map<std::string, Value>* seed =
                              nullptr) const;

  /// Type-check then execute against the dataset in `ctx`. Seeded bindings
  /// (copied in before the first op) behave like outputs of an op #-1: any
  /// op may consume them, dead-value elimination may free them.
  Result<PipelineReport> run(const PipelineSpec& spec, OpContext& ctx,
                             const std::map<std::string, Value>* seed =
                                 nullptr) const;

 private:
  Options opts_;
};

}  // namespace lumen::core
