// The execution engine (§3.2): verifies a pipeline's wiring and types before
// running it, executes operations in order, profiles per-operation wall time
// and output memory, and frees intermediates once no later operation uses
// them (the paper's "basic memory optimizations").
#pragma once

#include <map>

#include "common/telemetry.h"
#include "core/pipeline.h"

namespace lumen::core {

/// One row of the engine's time/memory profile.
///
/// DEPRECATION NOTE: OpProfile is now a compatibility view over the
/// unified telemetry API (common/telemetry.h). Engine::run records
/// one telemetry::Span per operation (name `<prefix>op.<func>`, detail = the
/// output binding, value = output bytes, flag = freed-early) into
/// Options::registry and rebuilds this struct from the registry snapshot, so
/// the numbers here and in the registry are the same by construction. New
/// consumers should scrape the registry instead of this struct.
struct OpProfile {
  std::string func;
  std::string output;
  double seconds = 0.0;
  size_t output_bytes = 0;
  bool freed_early = false;  // dropped by dead-value elimination
};

/// Rebuild per-op profile rows from the telemetry spans a run recorded
/// (`span_ids` in execution order, names prefixed with `op_prefix`). This is
/// the only constructor of OpProfile rows the engine uses.
std::vector<OpProfile> profile_from_spans(const telemetry::Snapshot& snap,
                                          const std::vector<uint64_t>& span_ids,
                                          std::string_view op_prefix);

/// Render profile rows as an aligned text table plus the peak-resident
/// footer (the engine's "plots"): pass a PipelineReport's `profile` and
/// `peak_bytes`, or rows rebuilt with profile_from_spans — no
/// PipelineReport needed.
std::string render_op_profile(const std::vector<OpProfile>& profile,
                              size_t peak_bytes);

struct PipelineReport {
  /// Bindings still alive at the end of the run (pipeline results).
  std::map<std::string, Value> bindings;
  std::vector<OpProfile> profile;
  size_t peak_bytes = 0;
  /// Span ids (execution order) of this run's per-op telemetry spans — the
  /// keys for re-deriving `profile` from a registry snapshot.
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
    /// the run's telemetry in a run-local registry (nothing published) —
    /// the report and its profile still work. Same shape as
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
