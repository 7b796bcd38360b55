// lumen — command-line front end to the framework.
//
//   lumen list-algorithms            the Table-2 registry
//   lumen list-datasets              the Table-3 benchmark suite
//   lumen list-ops                   the operation catalogue
//   lumen generate <id> <out.pcap> [--scale S] [--labels out.csv]
//                                    materialize a benchmark dataset
//   lumen run --template F --dataset <id|path.pcap> [--scale S]
//                                    execute a pipeline template file
//   lumen evaluate --algo A --dataset D [--train T] [--scale S]
//                                    same- or cross-dataset evaluation
//   lumen compare [--granularity connection|packet] [--scale S]
//                                    same-dataset precision matrix
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/benchmark.h"
#include "eval/relevance.h"
#include "eval/report.h"
#include "netio/pcap.h"

namespace {

using namespace lumen;

/// A flag value the command cannot use; main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Minimal flag parser: --name value pairs after the positional args.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        const std::string name = argv[i] + 2;
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          a.flags[name] = argv[++i];
        } else {
          a.flags[name] = "true";
        }
      } else {
        a.positional.push_back(argv[i]);
      }
    }
    return a;
  }

  std::string flag(const std::string& name, const std::string& dflt = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  }
  /// A numeric flag: the whole value must parse as a finite number > 0.
  double flag_num(const std::string& name, double dflt) const {
    auto it = flags.find(name);
    if (it == flags.end()) return dflt;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
      throw UsageError("--" + name + " must be a finite number > 0, got '" +
                       it->second + "'");
    }
    return v;
  }
};

int cmd_list_algorithms() {
  std::printf("%-5s %-40s %-11s %s\n", "ID", "Description", "Granularity",
              "Source");
  for (const core::AlgorithmDef& a : core::algorithm_registry()) {
    std::printf("%-5s %-40.40s %-11s %s\n", a.id.c_str(), a.label.c_str(),
                trace::granularity_name(a.granularity), a.paper.c_str());
  }
  return 0;
}

int cmd_list_datasets() {
  std::printf("%-4s %-32s %-11s %s\n", "ID", "Stand-in for", "Granularity",
              "Attacks");
  for (const auto& d : trace::dataset_inventory()) {
    std::printf("%-4s %-32.32s %-11s %s\n", d.id.c_str(), d.standin.c_str(),
                trace::granularity_name(d.granularity),
                d.attack_summary.c_str());
  }
  return 0;
}

int cmd_list_ops() {
  core::register_builtin_operations();
  for (const std::string& op : core::OperationRegistry::instance().known_ops()) {
    std::printf("%s\n", op.c_str());
  }
  return 0;
}

int cmd_generate(const Args& args) {
  if (args.positional.size() < 3) {
    std::fprintf(stderr, "usage: lumen generate <dataset-id> <out.pcap>\n");
    return 2;
  }
  const std::string id = args.positional[1];
  const std::string out = args.positional[2];
  const double scale = args.flag_num("scale", 1.0);
  const trace::Dataset ds = trace::make_dataset(id, scale);
  if (ds.packets() == 0) {
    std::fprintf(stderr, "unknown dataset id '%s'\n", id.c_str());
    return 1;
  }
  if (auto w = netio::write_pcap(out, ds.trace); !w.ok()) {
    std::fprintf(stderr, "%s\n", w.error().message.c_str());
    return 1;
  }
  std::printf("wrote %zu packets (%zu malicious) to %s\n", ds.packets(),
              ds.malicious_packets(), out.c_str());
  const std::string labels = args.flag("labels");
  if (!labels.empty()) {
    std::FILE* f = std::fopen(labels.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", labels.c_str());
      return 1;
    }
    std::fprintf(f, "packet,label,attack\n");
    for (size_t i = 0; i < ds.packets(); ++i) {
      std::fprintf(f, "%zu,%d,%s\n", i, ds.label_at(i),
                   trace::attack_name(
                       static_cast<trace::AttackType>(ds.attack_at(i))));
    }
    std::fclose(f);
    std::printf("wrote per-packet labels to %s\n", labels.c_str());
  }
  return 0;
}

int cmd_run(const Args& args) {
  const std::string tpl_path = args.flag("template");
  const std::string ds_arg = args.flag("dataset");
  if (tpl_path.empty() || ds_arg.empty()) {
    std::fprintf(stderr,
                 "usage: lumen run --template FILE --dataset <id|pcap>\n");
    return 2;
  }
  std::ifstream in(tpl_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", tpl_path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  auto spec = core::PipelineSpec::parse(buf.str());
  if (!spec.ok()) {
    std::fprintf(stderr, "template: %s\n", spec.error().message.c_str());
    return 1;
  }

  // Dataset: registry id or a pcap path.
  trace::Dataset ds;
  if (ds_arg.size() > 5 && ds_arg.substr(ds_arg.size() - 5) == ".pcap") {
    auto t = netio::read_pcap(ds_arg);
    if (!t.ok()) {
      std::fprintf(stderr, "%s\n", t.error().message.c_str());
      return 1;
    }
    ds.id = ds_arg;
    ds.trace = std::move(t).value();
    ds.pkt_label.assign(ds.trace.view.size(), 0);
    ds.pkt_attack.assign(ds.trace.view.size(), 0);
    ds.label_granularity = trace::Granularity::kPacket;
  } else {
    ds = trace::make_dataset(ds_arg, args.flag_num("scale", 1.0));
  }

  core::OpContext ctx;
  ctx.dataset = &ds;
  auto report = core::Engine().run(spec.value(), ctx);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.error().message.c_str());
    return 1;
  }
  for (const auto& [name, value] : report.value().bindings) {
    std::printf("binding '%s': %s\n", name.c_str(),
                core::value_kind_name(core::kind_of(value)));
    if (const auto* m = std::get_if<core::Metrics>(&value)) {
      for (const auto& [k, v] : m->values) {
        std::printf("  %-10s %.4f\n", k.c_str(), v);
      }
    }
    if (const auto* t = std::get_if<features::FeatureTable>(&value)) {
      std::printf("  %zu rows x %zu columns\n", t->rows, t->cols);
    }
  }
  std::printf("\n%s",
              core::render_op_profile(
                  core::profile_from_spans(
                      telemetry::Registry::process().snapshot(),
                      report.value().span_ids, "engine.op."),
                  report.value().peak_bytes)
                  .c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  const std::string algo = args.flag("algo");
  const std::string ds = args.flag("dataset");
  if (algo.empty() || ds.empty()) {
    std::fprintf(stderr,
                 "usage: lumen evaluate --algo A14 --dataset F4 [--train F5]\n");
    return 2;
  }
  eval::Benchmark::Options opts;
  opts.dataset_scale = args.flag_num("scale", 0.5);
  eval::Benchmark bench(opts);
  const std::string train = args.flag("train", ds);
  auto run = train == ds ? bench.same_dataset(algo, ds)
                         : bench.cross_dataset(algo, train, ds);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.error().message.c_str());
    return 1;
  }
  const eval::EvalRecord& r = run.value().record;
  std::printf("%s trained on %s, tested on %s:\n", algo.c_str(),
              r.train_ds.c_str(), r.test_ds.c_str());
  std::printf("  precision %.4f\n  recall    %.4f\n  f1        %.4f\n"
              "  accuracy  %.4f\n  auc       %.4f\n",
              r.precision, r.recall, r.f1, r.accuracy, r.auc);
  std::printf("\nper-attack breakdown:\n");
  for (const eval::AttackScore& s : bench.per_attack(run.value())) {
    std::printf("  %-18s precision %.3f recall %.3f (%zu positives)\n",
                trace::attack_name(s.attack), s.precision, s.recall,
                s.positives);
  }
  return 0;
}

int cmd_explain(const Args& args) {
  const std::string algo = args.flag("algo");
  const std::string ds = args.flag("dataset");
  if (algo.empty() || ds.empty()) {
    std::fprintf(stderr, "usage: lumen explain --algo A10 --dataset F1\n");
    return 2;
  }
  eval::Benchmark::Options opts;
  opts.dataset_scale = args.flag_num("scale", 0.5);
  eval::Benchmark bench(opts);
  auto reports = eval::per_attack_relevance(bench, algo, ds, 5);
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.error().message.c_str());
    return 1;
  }
  std::printf("most discriminative features of %s on %s (|Cohen's d| vs "
              "benign):\n",
              algo.c_str(), ds.c_str());
  for (const auto& rep : reports.value()) {
    std::printf("  %-18s:", trace::attack_name(rep.attack));
    for (const auto& f : rep.top) {
      std::printf("  %s (%.1f)", f.feature.c_str(), f.score);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const std::string gran = args.flag("granularity", "connection");
  eval::Benchmark::Options opts;
  opts.dataset_scale = args.flag_num("scale", 0.4);
  eval::Benchmark bench(opts);

  std::vector<std::string> algos, datasets;
  for (const core::AlgorithmDef& a : core::algorithm_registry()) {
    const bool pkt = a.granularity == trace::Granularity::kPacket;
    if (pkt == (gran == "packet") && a.id.rfind("AM", 0) != 0) {
      algos.push_back(a.id);
    }
  }
  datasets = gran == "packet" ? trace::packet_dataset_ids()
                              : trace::connection_dataset_ids();

  eval::Heatmap heat = eval::Heatmap::make(
      "same-dataset precision (" + gran + " granularity)", algos, datasets);
  for (size_t r = 0; r < algos.size(); ++r) {
    for (size_t c = 0; c < datasets.size(); ++c) {
      auto run = bench.same_dataset(algos[r], datasets[c]);
      if (run.ok()) heat.at(r, c) = run.value().record.precision;
    }
  }
  std::printf("%s", heat.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: lumen <list-algorithms|list-datasets|list-ops|"
                 "generate|run|evaluate|compare|explain> ...\n");
    return 2;
  }
  const std::string& cmd = args.positional[0];
  try {
    if (cmd == "list-algorithms") return cmd_list_algorithms();
    if (cmd == "list-datasets") return cmd_list_datasets();
    if (cmd == "list-ops") return cmd_list_ops();
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "compare") return cmd_compare(args);
    if (cmd == "explain") return cmd_explain(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "lumen %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
