// Golden end-to-end regression suite for the default (ft-cost) repair
// semantics.
//
// Every (corpus, algorithm) instance is repaired across the full flag
// matrix {columnar on/off} x {threads 1,2,4,8} x {distance kernel
// scalar/bit-parallel} x {detect index all-pairs/blocked}, the whole
// RepairResult is fingerprinted byte for byte (repaired table, change
// list, cost, stats counters), and the fingerprint hash is compared
// against a committed golden. The committed goldens were generated
// BEFORE the RepairSemantics strategy refactor, so a passing run
// proves `--semantics=ft-cost` is bit-identical to the pre-refactor
// pipeline — future refactors diff against these files instead of
// recomputing oracles.
//
// A second suite, the Greedy-M sweep, pins the multi-FD greedy solver
// over more seeded inputs than the three matrix corpora reach (noise
// draws, cross-FD scoring on and off, trusted rows, and one run whose
// step budget runs out inside the round loop). Its digests live in the
// same goldens file under the "greedy_m_sweep/" prefix.
//
// Regenerating (only when an intentional behavior change lands):
//   FTREPAIR_UPDATE_GOLDENS=1 ./semantics_golden_test
// rewrites tests/goldens/ft_cost_fingerprints.txt in the source tree.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/strings.h"
#include "constraint/fd.h"
#include "core/greedy_multi.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "metric/distance.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::ScopedEnv;

#ifndef FTREPAIR_GOLDEN_DIR
#error "build must define FTREPAIR_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

std::string GoldenPath() {
  return std::string(FTREPAIR_GOLDEN_DIR) + "/ft_cost_fingerprints.txt";
}

// Byte-level fingerprint of everything a repair produced (the
// columnar_test differential format: two runs with equal fingerprints
// made the same decisions everywhere).
std::string Fingerprint(const RepairResult& result) {
  std::string fp = WriteCsvString(result.repaired);
  fp += "|changes:";
  for (const CellChange& c : result.changes) {
    fp += std::to_string(c.row) + "," + std::to_string(c.col) + ":" +
          c.old_value.ToString() + "->" + c.new_value.ToString() + ";";
  }
  fp += "|cost:" + FormatDouble(result.stats.repair_cost);
  fp += "|cells:" + std::to_string(result.stats.cells_changed);
  fp += "|tuples:" + std::to_string(result.stats.tuples_changed);
  fp += "|before:" + std::to_string(result.stats.ft_violations_before);
  fp += "|after:" + std::to_string(result.stats.ft_violations_after);
  return fp;
}

// Stable 64-bit FNV-1a of the fingerprint bytes, committed (with the
// byte length) instead of the multi-kilobyte fingerprint itself.
std::string FingerprintDigest(const std::string& fp) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : fp) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx:%zu",
                static_cast<unsigned long long>(h), fp.size());
  return buf;
}

// One repair corpus of the golden matrix.
struct Corpus {
  std::string name;
  Table table;
  std::vector<FD> fds;
  double w_l = 0.5;
  double w_r = 0.5;
  double default_tau = 0.2;
  std::unordered_map<std::string, double> tau_by_fd;
};

Table DirtySlice(const Dataset& dataset, int rows) {
  NoiseOptions noise;
  noise.error_rate = 0.04;
  Table dirty =
      std::move(InjectErrors(dataset.clean, dataset.fds, noise, nullptr))
          .ValueOrDie();
  return dirty.Head(rows);
}

// Citizens at full size; HOSP/Tax sliced so the exact expansion solver
// finishes in test time (its valves would otherwise degrade the run,
// which is still deterministic but stops pinning the exact rung).
std::vector<Corpus> GoldenCorpora() {
  std::vector<Corpus> corpora;
  {
    Corpus c;
    c.name = "citizens";
    c.table = CitizensDirty();
    c.fds = CitizensFDs(c.table.schema());
    c.default_tau = 0.4;
    corpora.push_back(std::move(c));
  }
  {
    Dataset hosp =
        std::move(GenerateHosp({.num_rows = 400, .seed = 7})).ValueOrDie();
    Corpus c;
    c.name = "hosp";
    c.table = DirtySlice(hosp, 400);
    c.fds = hosp.fds;
    c.w_l = hosp.recommended_w_l;
    c.w_r = hosp.recommended_w_r;
    c.tau_by_fd = hosp.recommended_tau;
    corpora.push_back(std::move(c));
  }
  {
    Dataset tax =
        std::move(GenerateTax({.num_rows = 300, .seed = 11})).ValueOrDie();
    Corpus c;
    c.name = "tax";
    c.table = DirtySlice(tax, 300);
    c.fds = tax.fds;
    c.w_l = tax.recommended_w_l;
    c.w_r = tax.recommended_w_r;
    c.tau_by_fd = tax.recommended_tau;
    corpora.push_back(std::move(c));
  }
  return corpora;
}

RepairOptions BaseOptions(const Corpus& corpus, RepairAlgorithm algorithm) {
  RepairOptions options;
  options.algorithm = algorithm;
  options.w_l = corpus.w_l;
  options.w_r = corpus.w_r;
  options.default_tau = corpus.default_tau;
  options.tau_by_fd = corpus.tau_by_fd;
  return options;
}

const char* AlgorithmKey(RepairAlgorithm algorithm) {
  switch (algorithm) {
    case RepairAlgorithm::kExact:
      return "exact";
    case RepairAlgorithm::kGreedy:
      return "greedy";
    case RepairAlgorithm::kApproJoin:
      return "appro";
  }
  return "?";
}

bool UpdateMode() {
  const char* env = std::getenv("FTREPAIR_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The full matrix evaluation: every corpus x algorithm pinned to ONE
// digest across {columnar} x {threads} x {kernel} x {index} — one
// golden per (corpus, algorithm), because none of those knobs may
// change a single output byte.
void ComputeDigests(std::map<std::string, std::string>* digests) {
  for (const Corpus& corpus : GoldenCorpora()) {
    for (RepairAlgorithm algorithm :
         {RepairAlgorithm::kExact, RepairAlgorithm::kGreedy,
          RepairAlgorithm::kApproJoin}) {
      const std::string key =
          corpus.name + "/" + AlgorithmKey(algorithm);
      std::string reference;
      // Axis 1: columnar x threads (kernel/index at defaults).
      for (bool columnar : {true, false}) {
        for (int threads : {1, 2, 4, 8}) {
          RepairOptions options = BaseOptions(corpus, algorithm);
          options.columnar = columnar;
          options.threads = threads;
          auto result = Repairer(options).Repair(corpus.table, corpus.fds);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          std::string fp = Fingerprint(result.value());
          if (reference.empty()) {
            reference = fp;
          } else {
            ASSERT_EQ(FingerprintDigest(fp), FingerprintDigest(reference))
                << key << " diverged at columnar=" << columnar
                << " threads=" << threads;
          }
        }
      }
      // Axis 2: distance kernel x detect index (threads=2, both
      // columnar settings) — same digest again.
      for (DistanceKernel kernel :
           {DistanceKernel::kScalar, DistanceKernel::kBitParallel}) {
        SetDistanceKernel(kernel);
        for (DetectIndexMode index :
             {DetectIndexMode::kAllPairs, DetectIndexMode::kBlocked}) {
          for (bool columnar : {true, false}) {
            RepairOptions options = BaseOptions(corpus, algorithm);
            options.columnar = columnar;
            options.threads = 2;
            options.detect_index = index;
            auto result =
                Repairer(options).Repair(corpus.table, corpus.fds);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            ASSERT_EQ(FingerprintDigest(Fingerprint(result.value())),
                      FingerprintDigest(reference))
                << key << " diverged at kernel="
                << DistanceKernelName(kernel)
                << " index=" << DetectIndexModeName(index)
                << " columnar=" << columnar;
          }
        }
      }
      SetDistanceKernel(DistanceKernel::kAuto);
      (*digests)[key] = FingerprintDigest(reference);
    }
  }
}

constexpr char kSweepPrefix[] = "greedy_m_sweep/";

bool InSweep(const std::string& key) {
  return key.compare(0, sizeof(kSweepPrefix) - 1, kSweepPrefix) == 0;
}

// Reads the committed goldens file (all suites). Empty when missing.
std::map<std::string, std::string> ReadGoldens() {
  std::map<std::string, std::string> goldens;
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::string body(Trim(line));
    if (body.empty()) continue;
    size_t eq = body.find('=');
    EXPECT_NE(eq, std::string::npos) << "malformed golden: " << line;
    if (eq == std::string::npos) continue;
    goldens[body.substr(0, eq)] = body.substr(eq + 1);
  }
  return goldens;
}

// Compares one suite's digests (the matrix, or the sweep when `sweep`)
// with its share of the committed goldens. In update mode, rewrites
// that share instead and keeps the other suite's lines.
void CheckGoldens(const std::map<std::string, std::string>& digests,
                  bool sweep) {
  std::map<std::string, std::string> all = ReadGoldens();
  if (UpdateMode()) {
    std::erase_if(all, [&](const auto& kv) {
      return InSweep(kv.first) == sweep;
    });
    all.insert(digests.begin(), digests.end());
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << "# Pre-refactor ft-cost RepairResult fingerprint digests\n"
        << "# (FNV-1a 64 of the full fingerprint, ':', byte length).\n"
        << "# One digest per corpus/algorithm: every {columnar} x\n"
        << "# {threads 1,2,4,8} x {distance kernel} x {detect index}\n"
        << "# combination must reproduce it byte for byte.\n"
        << "# greedy_m_sweep/ lines: the Greedy-M sweep, one digest per\n"
        << "# case, reproduced at threads 1 and 4.\n"
        << "# Regenerate: FTREPAIR_UPDATE_GOLDENS=1 "
           "./semantics_golden_test\n";
    for (const auto& [key, digest] : all) {
      out << key << "=" << digest << "\n";
    }
    GTEST_SKIP() << "goldens rewritten at " << GoldenPath();
  }
  ASSERT_FALSE(all.empty())
      << GoldenPath()
      << " missing; run with FTREPAIR_UPDATE_GOLDENS=1 to create it";
  std::erase_if(all, [&](const auto& kv) {
    return InSweep(kv.first) != sweep;
  });
  EXPECT_EQ(digests, all)
      << "ft-cost output drifted from the committed goldens";
}

TEST(SemanticsGoldenTest, FtCostMatrixMatchesCommittedGoldens) {
  std::map<std::string, std::string> digests;
  ComputeDigests(&digests);
  if (HasFatalFailure()) return;
  ASSERT_EQ(digests.size(), 9u);  // 3 corpora x 3 algorithms
  CheckGoldens(digests, /*sweep=*/false);
}

// --- Greedy-M sweep ---------------------------------------------------

struct SweepInstance {
  std::string name;
  Dataset dataset;
};

std::vector<SweepInstance> SweepInstances() {
  std::vector<SweepInstance> instances;
  instances.push_back(
      {"tax300",
       std::move(GenerateTax({.num_rows = 300, .seed = 11})).ValueOrDie()});
  instances.push_back(
      {"hosp400",
       std::move(GenerateHosp({.num_rows = 400, .seed = 7})).ValueOrDie()});
  return instances;
}

Table NoisyTable(const Dataset& dataset, uint64_t noise_seed) {
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = noise_seed;
  return std::move(InjectErrors(dataset.clean, dataset.fds, noise, nullptr))
      .ValueOrDie();
}

RepairOptions SweepOptions(const Dataset& dataset) {
  RepairOptions options;
  options.algorithm = RepairAlgorithm::kGreedy;
  options.w_l = dataset.recommended_w_l;
  options.w_r = dataset.recommended_w_r;
  options.tau_by_fd = dataset.recommended_tau;
  return options;
}

// The repair fingerprint plus what the sweep's knobs can move that the
// matrix fingerprint leaves out.
std::string SweepFingerprint(const RepairResult& result) {
  std::string fp = Fingerprint(result);
  fp += "|trusted_conflicts:" +
        std::to_string(result.stats.trusted_conflicts);
  fp += "|degradations:";
  for (const DegradationEvent& event : result.stats.degradations) {
    fp += event.component + ":" + event.stage + ";";
  }
  return fp;
}

// Everything a Greedy-M solution decided, chosen sets in pick order.
std::string SolutionFingerprint(const MultiFDSolution& solution) {
  std::string fp = "chosen:";
  for (const std::vector<int>& chosen : solution.chosen) {
    for (int v : chosen) fp += std::to_string(v) + ",";
    fp += ";";
  }
  fp += "|targets:";
  for (size_t i = 0; i < solution.targets.size(); ++i) {
    for (const Value& value : solution.targets[i]) {
      fp += value.ToString() + ",";
    }
    fp += "@" + FormatDouble(solution.target_costs[i]) + ";";
  }
  fp += "|cost:" + FormatDouble(solution.cost);
  fp += "|truncated:" + std::to_string(solution.truncated);
  return fp;
}

// Greedy-M solved directly on the largest component of the Tax
// instance, with the step budget set to run out halfway through the
// round loop (one budget unit per round). The untruncated solve gives
// the number of rounds: every chosen pattern that is not isolated was
// picked by a round.
void ComputeTruncatedDigest(std::map<std::string, std::string>* digests) {
  SweepInstance tax = std::move(SweepInstances().front());
  Table dirty = NoisyTable(tax.dataset, 1);
  std::vector<const FD*> fds =
      testing_util::LargestComponentFDs(tax.dataset.fds);
  ASSERT_GT(fds.size(), 1u);
  DistanceModel model(dirty);
  RepairOptions options = SweepOptions(tax.dataset);
  options.threads = 1;
  ComponentContext context =
      BuildComponentContext(dirty, fds, model, options);

  RepairStats full_stats;
  auto full = SolveGreedyMulti(context, model, options, &full_stats);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  size_t rounds = 0;
  for (size_t k = 0; k < context.graphs.size(); ++k) {
    for (int v : full.value().chosen[k]) {
      if (context.graphs[k].degree(v) > 0) ++rounds;
    }
  }
  ASSERT_GE(rounds, 4u);

  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", std::to_string(rounds / 2));
  Budget budget(1e9);  // limited, so the fault seam is live
  options.budget = &budget;
  RepairStats stats;
  auto truncated = SolveGreedyMulti(context, model, options, &stats);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  ASSERT_TRUE(truncated.value().truncated);
  std::string fp = SolutionFingerprint(truncated.value());
  ASSERT_NE(fp, SolutionFingerprint(full.value()));
  (*digests)[std::string(kSweepPrefix) + tax.name +
             "/noise1/budget-truncated"] = FingerprintDigest(fp);
}

// Noise seed x cross_weight x trusted rows per instance, each pinned to
// one digest across threads 1 and 4, plus the truncated case.
void ComputeSweepDigests(std::map<std::string, std::string>* digests) {
  for (const SweepInstance& instance : SweepInstances()) {
    for (uint64_t noise_seed : {1, 2, 3}) {
      Table dirty = NoisyTable(instance.dataset, noise_seed);
      for (double cross_weight : {0.0, RepairOptions().cross_weight}) {
        for (bool trusted : {false, true}) {
          const std::string key =
              std::string(kSweepPrefix) + instance.name + "/noise" +
              std::to_string(noise_seed) + "/cw" +
              FormatDouble(cross_weight) + (trusted ? "/trusted" : "");
          std::string reference;
          for (int threads : {1, 4}) {
            RepairOptions options = SweepOptions(instance.dataset);
            options.cross_weight = cross_weight;
            options.threads = threads;
            if (trusted) {
              for (int r = 0; r < dirty.num_rows(); r += 9) {
                options.trusted_rows.insert(r);
              }
            }
            auto result =
                Repairer(options).Repair(dirty, instance.dataset.fds);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            std::string fp = SweepFingerprint(result.value());
            if (reference.empty()) {
              reference = fp;
            } else {
              ASSERT_EQ(FingerprintDigest(fp), FingerprintDigest(reference))
                  << key << " diverged at threads=" << threads;
            }
          }
          (*digests)[key] = FingerprintDigest(reference);
        }
      }
    }
  }
  ComputeTruncatedDigest(digests);
}

TEST(SemanticsGoldenTest, GreedyMultiSweepMatchesCommittedGoldens) {
  std::map<std::string, std::string> digests;
  ComputeSweepDigests(&digests);
  if (HasFatalFailure()) return;
  ASSERT_EQ(digests.size(), 25u);  // 2 instances x 3 x 2 x 2, + truncated
  CheckGoldens(digests, /*sweep=*/true);
}

}  // namespace
}  // namespace ftrepair
