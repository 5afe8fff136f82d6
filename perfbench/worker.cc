// End-to-end benchmark worker. One process does exactly one job, so
// the clean it times is the first clean of a fresh process — what a
// CLI invocation pays:
//
//   setup  generates a workload (gen/), injects noise and serializes
//          the dirty CSV, several times, timing each step; writes the
//          dirty CSV, the FD list and the repair parameters into --dir.
//   clean  ingests the dirty CSV text and repairs it through the public
//          API (ReadCsvString -> Repairer::Repair), timed; then checks
//          the output and scores it against the generator's clean
//          table (regenerated from the same seed), untimed.
//   trace  performs the same repair by calling each module's public
//          functions in the order Repair does, timing every call from
//          here (no spans inside the library); only the target
//          assignment nested inside the multi-FD solvers is read from
//          the RepairStats they fill. Runs an untraced repair before
//          it, to warm the process, and one after it, to compare with;
//          checks the output of both.
//
// Each job prints one JSON object on its last stdout line; run.py turns
// those into the benchmark's metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "constraint/fd_graph.h"
#include "constraint/fd_parser.h"
#include "core/appro_multi.h"
#include "core/greedy_multi.h"
#include "core/greedy_single.h"
#include "core/multi_common.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "detect/detector.h"
#include "detect/pattern.h"
#include "eval/quality.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"

namespace ftrepair {
namespace {

// ---------------------------------------------------------------------
// Plumbing: arguments, files, clocks, JSON output.

using Args = std::map<std::string, std::string>;

std::string Arg(const Args& args, const std::string& key,
                const std::string& fallback = "") {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_worker: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Die("cannot write " + path);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

// One JSON object, built key by key. Doubles round-trip exactly, so
// run.py can compare costs for equality across processes.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumberExact(v));
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonNumberExact(vs[i]);
    }
    return Raw(key, out + "]");
  }
  JsonObject& Strs(const std::string& key,
                   const std::vector<std::string>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonString(vs[i]);
    }
    return Raw(key, out + "]");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += JsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------
// The workload as the repair sees it: CSV text, an FD list and the
// repair parameters a CLI user would pass as flags.

struct Workload {
  std::string dirty_csv;
  std::string fds_text;
  RepairOptions options;
};

// params.txt: "w_l V", "w_r V", "tau FD V" lines, written by setup.
Workload LoadWorkload(const Args& args) {
  const std::string dir = Arg(args, "--dir");
  if (dir.empty()) Die("--dir is required");
  Workload w;
  w.dirty_csv = ReadFile(dir + "/dirty.csv");
  w.fds_text = ReadFile(dir + "/fds.txt");
  std::istringstream params(ReadFile(dir + "/params.txt"));
  std::string key;
  while (params >> key) {
    if (key == "w_l") {
      params >> w.options.w_l;
    } else if (key == "w_r") {
      params >> w.options.w_r;
    } else if (key == "tau") {
      std::string fd;
      double tau = 0;
      params >> fd >> tau;
      w.options.tau_by_fd[fd] = tau;
    } else {
      Die("unknown params.txt key " + key);
    }
  }
  const std::string algorithm = Arg(args, "--algorithm", "greedy");
  if (algorithm == "greedy") {
    w.options.algorithm = RepairAlgorithm::kGreedy;
  } else if (algorithm == "appro") {
    w.options.algorithm = RepairAlgorithm::kApproJoin;
  } else {
    Die("unknown --algorithm " + algorithm);
  }
  w.options.threads = std::stoi(Arg(args, "--threads", "1"));
  return w;
}

// ---------------------------------------------------------------------
// setup

std::string FdSpec(const FD& fd, const Schema& schema) {
  auto cols = [&](const std::vector<int>& ids) {
    std::string out;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) out += ", ";
      out += schema.column(ids[i]).name;
    }
    return out;
  };
  return fd.name() + ": " + cols(fd.lhs()) + " -> " + cols(fd.rhs());
}

// The generator's clean table for --dataset/--rows/--gen-seed. HOSP 7
// and Tax 11 are the generators' own default seeds.
Dataset Generate(const Args& args) {
  const std::string dataset = Arg(args, "--dataset");
  const int rows = std::stoi(Arg(args, "--rows", "0"));
  if (rows <= 0) Die("--rows must be positive");
  if (dataset == "hosp") {
    HospOptions options;
    options.num_rows = rows;
    options.seed = std::stoull(Arg(args, "--gen-seed", "7"));
    return Check(GenerateHosp(options), "GenerateHosp");
  }
  if (dataset == "tax") {
    TaxOptions options;
    options.num_rows = rows;
    options.seed = std::stoull(Arg(args, "--gen-seed", "11"));
    return Check(GenerateTax(options), "GenerateTax");
  }
  Die("unknown --dataset " + dataset);
}

// One setup batch repeats at least kSetupReps times and for at least
// kSetupSeconds, so small workloads still give a steady median.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 0.5;

int RunSetup(const Args& args) {
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = std::stoull(Arg(args, "--noise-seed", "42"));

  std::vector<double> generate_s, inject_s, serialize_s, setup_s;
  Dataset first;
  std::string first_csv;
  NoiseReport report;
  Timer all;
  // Repetition 0 only warms the allocator and the code, so a short
  // batch's median is not pulled by its cold first run.
  for (int rep = 0; rep <= kSetupReps || all.Seconds() < kSetupSeconds;
       ++rep) {
    Timer total;
    Timer step;
    Dataset ds = Generate(args);
    const double gen = step.Seconds();
    step.Reset();
    Table dirty = Check(InjectErrors(ds.clean, ds.fds, noise, &report),
                        "InjectErrors");
    const double inject = step.Seconds();
    step.Reset();
    std::string csv = WriteCsvString(dirty);
    const double serialize = step.Seconds();
    if (rep > 0) {
      generate_s.push_back(gen);
      inject_s.push_back(inject);
      serialize_s.push_back(serialize);
      setup_s.push_back(total.Seconds());
    }
    if (rep == 0) {
      first = std::move(ds);
      first_csv = std::move(csv);
    } else if (csv != first_csv) {
      Die("setup is not deterministic: repetition " + std::to_string(rep) +
          " produced a different dirty CSV");
    }
  }

  const std::string dir = Arg(args, "--dir");
  if (dir.empty()) Die("--dir is required");
  WriteFile(dir + "/dirty.csv", first_csv);
  std::string fds;
  std::string params;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "w_l %.17g\nw_r %.17g\n",
                first.recommended_w_l, first.recommended_w_r);
  params += buf;
  for (const FD& fd : first.fds) {
    fds += FdSpec(fd, first.clean.schema()) + "\n";
    auto it = first.recommended_tau.find(fd.name());
    if (it != first.recommended_tau.end()) {
      std::snprintf(buf, sizeof(buf), " %.17g\n", it->second);
      params += "tau " + fd.name() + buf;
    }
  }
  WriteFile(dir + "/fds.txt", fds);
  WriteFile(dir + "/params.txt", params);

  std::printf("%s\n", JsonObject()
                          .Nums("setup_s", setup_s)
                          .Nums("generate_s", generate_s)
                          .Nums("inject_s", inject_s)
                          .Nums("serialize_s", serialize_s)
                          .Int("rows", static_cast<uint64_t>(
                                           first.clean.num_rows()))
                          .Int("fds", first.fds.size())
                          .Int("cells_dirtied",
                               static_cast<uint64_t>(report.cells_dirtied))
                          .str()
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------------
// clean: the timed repair, then the output check.

// Deliberate damage for the self-tests, applied to the repaired table
// before the check so the check can be shown to catch it.
//   absent:   one cell set to a value that occurs nowhere in its column
//             of the dirty input;
//   residual: one repaired cell put back to its dirty value, choosing
//             the first whose revert re-creates an FT-violation (a
//             dirty value is close-world valid, so only the violation
//             recount can catch this one).
void Corrupt(const std::string& kind, const Table& dirty,
             const std::vector<FD>& fds, const DistanceModel& model,
             const RepairOptions& options, Table* repaired) {
  if (kind == "absent") {
    for (int c = 0; c < dirty.num_columns(); ++c) {
      if (!dirty.cell(0, c).is_string()) continue;
      std::string fresh = dirty.cell(0, c).str() + "#corrupt";
      repaired->SetCell(0, c, Value(fresh));
      return;
    }
    Die("corrupt=absent: no string column");
  }
  if (kind == "residual") {
    for (int r = 0; r < dirty.num_rows(); ++r) {
      for (int c = 0; c < dirty.num_columns(); ++c) {
        if (repaired->cell(r, c) == dirty.cell(r, c)) continue;
        Value fixed = repaired->cell(r, c);
        repaired->SetCell(r, c, dirty.cell(r, c));
        for (const FD& fd : fds) {
          if (CountFTViolations(*repaired, fd, model, options.FTFor(fd))) {
            return;
          }
        }
        repaired->SetCell(r, c, fixed);
      }
    }
    Die("corrupt=residual: no revert re-creates a violation");
  }
  Die("unknown --corrupt " + kind);
}

// The output check. Every miss is one message; an empty list passes.
std::vector<std::string> CheckOutput(const Table& dirty,
                                     const std::vector<FD>& fds,
                                     const RepairOptions& options,
                                     const RepairResult& result,
                                     uint64_t* residual) {
  std::vector<std::string> misses;
  const Table& out = result.repaired;
  if (out.num_rows() != dirty.num_rows() ||
      out.num_columns() != dirty.num_columns()) {
    misses.push_back("output shape differs from the input");
    return misses;
  }
  // Close-world: a changed cell takes a value its column already had.
  int outside = 0;
  for (int c = 0; c < dirty.num_columns(); ++c) {
    const ColumnDictionary& column = dirty.dictionary(c);
    for (int r = 0; r < dirty.num_rows(); ++r) {
      const Value& v = out.cell(r, c);
      uint32_t code = 0;
      if (!(v == dirty.cell(r, c)) && !column.Lookup(v, &code)) ++outside;
    }
  }
  if (outside > 0) {
    misses.push_back(std::to_string(outside) +
                     " changed cells take values absent from their column");
  }
  // Residual FT-violations, recounted per FD with the effective options.
  DistanceModel model(dirty);
  *residual = 0;
  for (const FD& fd : fds) {
    *residual += CountFTViolations(out, fd, model, options.FTFor(fd));
  }
  if (*residual != result.stats.ft_violations_after) {
    misses.push_back("recounted " + std::to_string(*residual) +
                     " FT-violations, Repair reported " +
                     std::to_string(result.stats.ft_violations_after));
  }
  if (*residual > 0) {
    misses.push_back(std::to_string(*residual) +
                     " FT-violations remain in the output");
  }
  const double cost = TableRepairCost(dirty, out, model);
  if (std::fabs(cost - result.stats.repair_cost) > 1e-9) {
    misses.push_back("TableRepairCost " + JsonNumberExact(cost) +
                     " != reported " +
                     JsonNumberExact(result.stats.repair_cost));
  }
  if (result.stats.degraded()) {
    misses.push_back(std::to_string(result.stats.degradations.size()) +
                     " degradation events");
  }
  if (result.stats.join_empty) misses.push_back("join_empty");
  return misses;
}

// The generator's clean table, typed like the ingested dirty table.
// CSV ingest infers a column's type from its cells: a typo in a code
// column ("0116") keeps the dirty column a string, while a clean one
// reads as a number. Parsing each true cell's text with the dirty
// column's type is what ingesting the truth alongside would give; a
// truth re-read from CSV on its own would drop the leading zeros and
// score every such cell as an error.
Table TruthAs(const Schema& schema, const Table& clean) {
  Table truth(schema);
  for (int r = 0; r < clean.num_rows(); ++r) {
    Row row;
    for (int c = 0; c < clean.num_columns(); ++c) {
      row.push_back(
          Value::Parse(clean.cell(r, c).ToString(), schema.column(c).type));
    }
    if (!truth.AppendRow(std::move(row)).ok()) Die("truth: bad row");
  }
  return truth;
}

// One untraced repair through the public API, timed from the first
// byte of CSV ingest to the returned result.
struct TimedRepair {
  double ingest_s = 0;
  double clean_s = 0;
  double cpu_s = 0;
  Table dirty;
  std::vector<FD> fds;
  Result<RepairResult> result = Status::Internal("not run");
};

TimedRepair RepairOnce(const Workload& w) {
  TimedRepair t;
  const double cpu0 = ProcessCpuSeconds();
  Timer wall;
  Result<Table> ingested = ReadCsvString(w.dirty_csv);
  t.ingest_s = wall.Seconds();
  if (ingested.ok()) {
    t.dirty = std::move(ingested).value();
    Result<std::vector<FD>> parsed = ParseFDList(w.fds_text, t.dirty.schema());
    if (parsed.ok()) {
      t.fds = std::move(parsed).value();
      t.result = Repairer(w.options).Repair(t.dirty, t.fds);
    } else {
      t.result = parsed.status();
    }
  } else {
    t.result = ingested.status();
  }
  t.clean_s = wall.Seconds();
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  return t;
}

// The fields both clean and trace report for an untraced repair. A
// repair that returned an error reports only its times and the error.
JsonObject RepairJson(const TimedRepair& t, const Workload& w,
                      const std::vector<std::string>& misses,
                      uint64_t residual) {
  JsonObject out;
  out.Num("clean_s", t.clean_s)
      .Num("cpu_s", t.cpu_s)
      .Num("ingest_s", t.ingest_s)
      .Bool("ok", t.result.ok() && misses.empty());
  if (!t.result.ok()) {
    out.Strs("misses", {t.result.status().ToString()});
    return out;
  }
  const RepairStats& stats = t.result.value().stats;
  const PhaseTimings& p = stats.phases;
  out.Strs("misses", misses)
      .Num("repair_cost", stats.repair_cost)
      .Int("residual_violations", residual)
      .Int("ft_violations_before", stats.ft_violations_before)
      .Int("cells_changed", static_cast<uint64_t>(stats.cells_changed))
      .Int("threads", static_cast<uint64_t>(ResolveThreads(w.options.threads)))
      .Raw("phases_s", JsonObject()
                           .Num("detect", p.detect_ms / 1e3)
                           .Num("graph", p.graph_ms / 1e3)
                           .Num("solve", p.solve_ms / 1e3)
                           .Num("targets", p.targets_ms / 1e3)
                           .Num("apply", p.apply_ms / 1e3)
                           .Num("stats", p.stats_ms / 1e3)
                           .Num("total", p.total_ms / 1e3)
                           .str());
  return out;
}

int RunClean(const Args& args) {
  Workload w = LoadWorkload(args);
  const std::string corrupt = Arg(args, "--corrupt", "none");
  TimedRepair t = RepairOnce(w);
  const double peak_rss_mb = PeakRssMb();
  if (!t.result.ok()) {
    std::printf("%s\n", RepairJson(t, w, {}, 0)
                             .Num("peak_rss_mb", peak_rss_mb)
                             .str()
                             .c_str());
    return 0;
  }
  RepairResult& result = t.result.value();
  if (corrupt != "none") {
    Corrupt(corrupt, t.dirty, t.fds, DistanceModel(t.dirty), w.options,
            &result.repaired);
  }
  uint64_t residual = 0;
  std::vector<std::string> misses =
      CheckOutput(t.dirty, t.fds, w.options, result, &residual);

  Quality q = EvaluateRepair(t.dirty, result.repaired,
                             TruthAs(t.dirty.schema(), Generate(args).clean));
  std::printf("%s\n", RepairJson(t, w, misses, residual)
                           .Num("peak_rss_mb", peak_rss_mb)
                           .Num("f1", q.f1)
                           .Num("precision", q.precision)
                           .Num("recall", q.recall)
                           .str()
                           .c_str());
  return 0;
}

// ---------------------------------------------------------------------
// trace: the same repair, one public call at a time.

// What one FD component's solve produced, and what it cost. Filled on
// whichever thread ran the component.
struct ComponentTrace {
  double graph_s = 0;
  double solver_s = 0;  // includes the solver's nested AssignTargets
  uint64_t patterns = 0;
  uint64_t edges = 0;
  uint64_t generated = 0;
  uint64_t verified = 0;
  bool single = false;
  const FD* fd = nullptr;
  ViolationGraph graph;
  SingleFDSolution single_solution;
  ComponentContext context;
  MultiFDSolution multi_solution;
  RepairStats stats;
  Status status = Status::OK();
};

void CountGraph(const ViolationGraph& graph, ComponentTrace* t) {
  t->patterns += static_cast<uint64_t>(graph.num_patterns());
  t->edges += graph.num_edges();
  t->generated += graph.candidates_generated();
  t->verified += graph.candidates_verified();
}

void TraceComponent(const Table& table, const std::vector<FD>& fds,
                    const std::vector<int>& component,
                    const DistanceModel& model, const RepairOptions& opts,
                    ComponentTrace* t) {
  Timer timer;
  if (component.size() == 1) {
    // Single-FD components take the greedy rung for both algorithm
    // families, as in Repair.
    t->single = true;
    t->fd = &fds[static_cast<size_t>(component[0])];
    t->graph = ViolationGraph::Build(BuildPatterns(table, t->fd->attrs()),
                                     *t->fd, model, opts.FTFor(*t->fd));
    t->graph_s = timer.Seconds();
    CountGraph(t->graph, t);
    timer.Reset();
    t->single_solution = SolveGreedySingle(t->graph);
    t->solver_s = timer.Seconds();
    return;
  }
  std::vector<const FD*> members;
  for (int idx : component) members.push_back(&fds[static_cast<size_t>(idx)]);
  t->context = BuildComponentContext(table, members, model, opts);
  t->graph_s = timer.Seconds();
  for (const ViolationGraph& graph : t->context.graphs) CountGraph(graph, t);
  timer.Reset();
  Result<MultiFDSolution> solved =
      opts.algorithm == RepairAlgorithm::kApproJoin
          ? SolveApproMulti(t->context, model, opts, &t->stats)
          : SolveGreedyMulti(t->context, model, opts, &t->stats);
  t->solver_s = timer.Seconds();
  if (!solved.ok()) {
    t->status = solved.status();
    return;
  }
  t->multi_solution = std::move(solved).value();
}

int RunTrace(const Args& args) {
  Workload w = LoadWorkload(args);
  const RepairOptions& opts = w.options;
  std::vector<std::string> misses;

  // A process's first repair runs 13-19% slower than later ones, and
  // consecutive processes differ by up to 25%. So a cold untraced repair
  // comes first, and the traced decomposition is compared with the warm
  // untraced repair that follows it in the same process.
  std::string cold_json;
  {
    TimedRepair cold = RepairOnce(w);
    uint64_t residual = 0;
    std::vector<std::string> cold_misses;
    if (cold.result.ok()) {
      cold_misses = CheckOutput(cold.dirty, cold.fds, opts,
                                cold.result.value(), &residual);
    }
    cold_json = RepairJson(cold, w, cold_misses, residual).str();
    if (!cold.result.ok()) {
      std::printf("%s\n", JsonObject()
                               .Bool("ok", false)
                               .Raw("cold", cold_json)
                               .str()
                               .c_str());
      return 0;
    }
  }

  Timer wall;
  Timer timer;
  Table table = Check(ReadCsvString(w.dirty_csv), "ReadCsvString");
  std::vector<FD> fds =
      Check(ParseFDList(w.fds_text, table.schema()), "ParseFDList");
  const double ingest_s = timer.Seconds();
  uint64_t distinct = 0;
  for (int c = 0; c < table.num_columns(); ++c) {
    distinct += table.dictionary(c).size();
  }

  DistanceModel model(table);

  timer.Reset();
  uint64_t before = 0;
  for (const FD& fd : fds) {
    before += CountFTViolations(table, fd, model, opts.FTFor(fd));
  }
  const double count_s = timer.Seconds();

  FDGraph fd_graph(fds);
  const std::vector<std::vector<int>>& components = fd_graph.Components();
  size_t largest = 0;
  for (const auto& component : components) {
    largest = std::max(largest, component.size());
  }

  // Components run concurrently exactly as Repair runs them.
  std::vector<ComponentTrace> traces(components.size());
  int parallelism = 1;
  if (components.size() > 1) {
    parallelism = std::min(ResolveThreads(opts.threads),
                           static_cast<int>(components.size()));
  }
  timer.Reset();
  ParallelFor(static_cast<int>(components.size()), parallelism, [&](int c) {
    TraceComponent(table, fds, components[static_cast<size_t>(c)], model,
                   opts, &traces[static_cast<size_t>(c)]);
  });

  Table repaired = table;
  timer.Reset();
  std::vector<CellChange> changes;
  for (const ComponentTrace& t : traces) {
    if (!t.status.ok()) {
      misses.push_back(t.status.ToString());
      continue;
    }
    if (t.single) {
      ApplySingleFDSolution(t.graph, *t.fd, t.single_solution, &repaired,
                            &changes);
    } else {
      ApplyMultiFDSolution(t.multi_solution, &repaired, &changes);
    }
  }
  const double apply_s = timer.Seconds();

  timer.Reset();
  uint64_t after = 0;
  for (const FD& fd : fds) {
    after += CountFTViolations(repaired, fd, model, opts.FTFor(fd));
  }
  const double recount_s = timer.Seconds();
  timer.Reset();
  const double repair_cost = TableRepairCost(table, repaired, model);
  const double cost_s = timer.Seconds();
  const double traced_wall_s = wall.Seconds();

  // The multi-FD solvers run AssignTargets nested inside them, and it
  // adds its own time to the RepairStats they fill (the PhaseTimer
  // behind PhaseTimings::targets_ms); the solve layer is the rest. A
  // separately timed AssignTargets re-run would not do: on hosp-appro
  // targets take ~2.3 s of a ~5 ms solve, and the drift between the two
  // calls exceeds the difference.
  double graph_s = 0, solver_s = 0;
  uint64_t patterns = 0, edges = 0, generated = 0, verified = 0;
  RepairStats solver_stats;  // solver counters and nested targets time
  for (const ComponentTrace& t : traces) {
    graph_s += t.graph_s;
    solver_s += t.solver_s;
    patterns += t.patterns;
    edges += t.edges;
    generated += t.generated;
    verified += t.verified;
    solver_stats.Merge(t.stats);
  }
  const double targets_s = solver_stats.phases.targets_ms / 1e3;

  TimedRepair warm = RepairOnce(w);
  uint64_t residual = 0;
  std::vector<std::string> warm_misses;
  if (warm.result.ok()) {
    warm_misses = CheckOutput(warm.dirty, warm.fds, opts, warm.result.value(),
                              &residual);
  }

  JsonObject out;
  out.Bool("ok", misses.empty())
      .Strs("misses", misses)
      .Raw("cold", cold_json)
      .Raw("untraced", RepairJson(warm, w, warm_misses, residual).str())
      .Num("traced_wall_s", traced_wall_s)
      .Num("ingest_s", ingest_s)
      .Num("count_s", count_s)
      .Num("graph_s", graph_s)
      .Num("solve_s", solver_s - targets_s)
      .Num("targets_s", targets_s)
      .Num("apply_s", apply_s)
      .Num("recount_s", recount_s)
      .Num("cost_s", cost_s)
      .Int("distinct_values", distinct)
      .Int("components", components.size())
      .Int("largest_component_fds", largest)
      .Int("patterns", patterns)
      .Int("edges", edges)
      .Int("candidates_generated", generated)
      .Int("candidates_verified", verified)
      .Int("target_nodes_visited", solver_stats.target_nodes_visited)
      .Int("target_nodes_pruned", solver_stats.target_nodes_pruned)
      .Int("ft_violations_before", before)
      .Int("ft_violations_after", after)
      .Int("cells_changed", changes.size())
      .Num("repair_cost", repair_cost);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace ftrepair

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_worker setup|clean|trace --key value...\n");
    return 2;
  }
  ftrepair::Args args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const std::string mode = argv[1];
  if (mode == "setup") return ftrepair::RunSetup(args);
  if (mode == "clean") return ftrepair::RunClean(args);
  if (mode == "trace") return ftrepair::RunTrace(args);
  std::fprintf(stderr, "perfbench_worker: unknown mode %s\n", mode.c_str());
  return 2;
}
