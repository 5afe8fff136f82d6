#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/appro_multi.h"
#include "core/cross_fd_index.h"
#include "core/expansion_multi.h"
#include "core/greedy_multi.h"
#include "detect/detector.h"
#include "gen/error_injector.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::CitizensTruth;

struct CitizensComponent {
  Table table = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(table.schema());
  DistanceModel model{table};
  RepairOptions options;
  ComponentContext context;

  CitizensComponent() {
    options.w_l = 0.5;
    options.w_r = 0.5;
    // tau = 0.5 admits the cross-city FT-violations the paper's
    // Example 3 reasons about (t5 vs the New York tuples) while the
    // legitimate phi2/phi3 patterns stay pairwise above 0.5.
    options.tau_by_fd = {{"phi2", 0.5}, {"phi3", 0.5}};
    // The connected component {phi2, phi3}.
    context = BuildComponentContext(table, {&fds[1], &fds[2]}, model,
                                    options);
  }

  Table ApplySolution(const MultiFDSolution& solution) const {
    Table out = table;
    ApplyMultiFDSolution(solution, &out, nullptr);
    return out;
  }
};

TEST(ComponentContextTest, BuildsSigmaAndPhiPatterns) {
  CitizensComponent c;
  EXPECT_EQ(c.context.component_cols, (std::vector<int>{3, 4, 5, 6}));
  EXPECT_EQ(c.context.fds.size(), 2u);
  // Every Sigma-pattern maps to a phi-pattern in both FDs, and the
  // reverse mapping is consistent.
  for (size_t k = 0; k < 2; ++k) {
    for (size_t i = 0; i < c.context.sigma_patterns.size(); ++i) {
      int phi = c.context.phi_of_sigma[k][i];
      ASSERT_GE(phi, 0);
      const auto& back = c.context.sigma_of_phi[k][static_cast<size_t>(phi)];
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<int>(i)),
                back.end());
    }
  }
  // phi-pattern multiplicity equals the sum of its sigma multiplicities.
  for (size_t k = 0; k < 2; ++k) {
    for (int j = 0; j < c.context.graphs[k].num_patterns(); ++j) {
      int total = 0;
      for (int sigma : c.context.sigma_of_phi[k][static_cast<size_t>(j)]) {
        total += c.context.sigma_patterns[static_cast<size_t>(sigma)].count();
      }
      EXPECT_EQ(c.context.graphs[k].pattern(j).count(), total);
    }
  }
}

TEST(GreedyMultiTest, RepairsT5JointlyPerExample3) {
  // Considering phi2 and phi3 jointly, t5 (Boston, Main, Manhattan, NY)
  // must become (New York, Main, Manhattan, NY): one City change fixes
  // both constraints (§1 Example 3).
  CitizensComponent c;
  RepairStats stats;
  MultiFDSolution solution =
      std::move(SolveGreedyMulti(c.context, c.model, c.options, &stats))
          .ValueOrDie();
  Table repaired = c.ApplySolution(solution);
  EXPECT_EQ(repaired.cell(4, 3), Value("New York"));  // t5.City fixed
  EXPECT_EQ(repaired.cell(4, 6), Value("NY"));        // State untouched
  EXPECT_EQ(repaired.cell(4, 5), Value("Manhattan"));
  // t10 State fixed to MA.
  EXPECT_EQ(repaired.cell(9, 6), Value("MA"));
  // t8 City fixed to Boston.
  EXPECT_EQ(repaired.cell(7, 3), Value("Boston"));
}

TEST(GreedyMultiTest, OutputIsFTConsistent) {
  CitizensComponent c;
  RepairStats stats;
  MultiFDSolution solution =
      std::move(SolveGreedyMulti(c.context, c.model, c.options, &stats))
          .ValueOrDie();
  Table repaired = c.ApplySolution(solution);
  for (size_t k = 1; k <= 2; ++k) {
    EXPECT_TRUE(IsFTConsistent(repaired, c.fds[k], c.model,
                               c.options.FTFor(c.fds[k])))
        << c.fds[k].name();
  }
}

TEST(GreedyMultiTest, RoundsRescoreOnlyInvalidatedSlots) {
  // A full rescan scores every live slot in every round; the
  // incremental loop scores each slot once up front and then only the
  // slots an Add invalidated. On this instance that is far below a
  // quarter of rounds x slots, which a return to full rescans is not.
  Dataset tax =
      std::move(GenerateTax({.num_rows = 400, .seed = 11})).ValueOrDie();
  Table dirty =
      std::move(InjectErrors(tax.clean, tax.fds, NoiseOptions{}, nullptr))
          .ValueOrDie();
  DistanceModel model(dirty);
  RepairOptions options;
  options.w_l = tax.recommended_w_l;
  options.w_r = tax.recommended_w_r;
  options.tau_by_fd = tax.recommended_tau;
  ComponentContext context = BuildComponentContext(
      dirty, testing_util::LargestComponentFDs(tax.fds), model, options);
  uint64_t slots = 0;
  for (const ViolationGraph& graph : context.graphs) {
    slots += static_cast<uint64_t>(graph.num_patterns());
  }

  Counter* rounds = Metrics().GetCounter("ftrepair.solve.greedy_rounds");
  Counter* evals = Metrics().GetCounter("ftrepair.solve.cost_evals");
  const uint64_t rounds_before = rounds->value();
  const uint64_t evals_before = evals->value();
  RepairStats stats;
  ASSERT_TRUE(SolveGreedyMulti(context, model, options, &stats).ok());
  const uint64_t num_rounds = rounds->value() - rounds_before;
  const uint64_t num_evals = evals->value() - evals_before;

  ASSERT_GT(context.fds.size(), 1u);
  ASSERT_GT(num_rounds, 10u);
  EXPECT_GT(num_evals, 0u);
  EXPECT_LT(num_evals, num_rounds * slots / 4)
      << num_rounds << " rounds over " << slots << " slots";
}

// Greedy-M's cross-FD work per cost evaluation, measured on the largest
// Tax component at `rows` rows.
struct GreedyWork {
  uint64_t rounds = 0;
  uint64_t cost_evals = 0;
  uint64_t conflict_lookups = 0;
};

GreedyWork SolveTaxComponent(int rows) {
  Dataset tax =
      std::move(GenerateTax({.num_rows = rows, .seed = 11})).ValueOrDie();
  Table dirty =
      std::move(InjectErrors(tax.clean, tax.fds, NoiseOptions{}, nullptr))
          .ValueOrDie();
  DistanceModel model(dirty);
  RepairOptions options;
  options.w_l = tax.recommended_w_l;
  options.w_r = tax.recommended_w_r;
  options.tau_by_fd = tax.recommended_tau;
  ComponentContext context = BuildComponentContext(
      dirty, testing_util::LargestComponentFDs(tax.fds), model, options);
  Counter* rounds = Metrics().GetCounter("ftrepair.solve.greedy_rounds");
  Counter* evals = Metrics().GetCounter("ftrepair.solve.cost_evals");
  Counter* lookups = Metrics().GetCounter("ftrepair.solve.conflict_lookups");
  const GreedyWork before{rounds->value(), evals->value(), lookups->value()};
  RepairStats stats;
  EXPECT_TRUE(SolveGreedyMulti(context, model, options, &stats).ok());
  return {rounds->value() - before.rounds,
          evals->value() - before.cost_evals,
          lookups->value() - before.conflict_lookups};
}

TEST(GreedyMultiTest, ConflictLookupsPerEvalStayFlatAsRowsGrow) {
  // Vertex degree grows with the row count, and so does the number of
  // (neighbour, target) scores one CandidateCost evaluation needs. The
  // score memo recomputes only the scores whose blocked entries
  // changed, so rewrite probes per evaluation grow much slower than
  // the graph: from Tax 1k to 4k they rise 12.2 -> 18.5 (1.52x), where
  // re-scoring every target on every evaluation rises 23.4 -> 52.7
  // (2.25x).
  const GreedyWork small = SolveTaxComponent(1000);
  const GreedyWork large = SolveTaxComponent(4000);
  // The memo changes no pick and no invalidation.
  EXPECT_EQ(small.rounds, 273u);
  EXPECT_EQ(small.cost_evals, 4448u);
  ASSERT_GT(small.conflict_lookups, 0u);
  ASSERT_GT(large.cost_evals, small.cost_evals);
  const double small_ratio = static_cast<double>(small.conflict_lookups) /
                             static_cast<double>(small.cost_evals);
  const double large_ratio = static_cast<double>(large.conflict_lookups) /
                             static_cast<double>(large.cost_evals);
  EXPECT_LT(large_ratio / small_ratio, 1.8)
      << "lookups per evaluation " << small_ratio << " at 1k rows, "
      << large_ratio << " at 4k rows";
}

// A seeded table for the cross-FD index oracle: string columns A, B, D
// and numeric columns C, E, with nulls, numeric typos kept as text in
// the numeric columns, -0.0 next to 0.0, and one programmatic NaN in
// each numeric column.
Table CrossIndexTable(uint64_t seed) {
  Table table{Schema({Column{"A", ValueType::kString},
                      Column{"B", ValueType::kString},
                      Column{"C", ValueType::kNumber},
                      Column{"D", ValueType::kString},
                      Column{"E", ValueType::kNumber}})};
  Rng rng(seed);
  auto pick = [&rng](const std::vector<Value>& domain) {
    return rng.Bernoulli(0.08) ? Value() : domain[rng.Index(domain.size())];
  };
  const std::vector<Value> as = {Value("a0"), Value("a1"), Value("a2"),
                                 Value("a3")};
  const std::vector<Value> bs = {Value("b0"), Value("b1"), Value("b2")};
  const std::vector<Value> cs = {Value(0.0), Value(-0.0), Value(1.5),
                                 Value(2.0), Value("2x")};
  const std::vector<Value> ds = {Value("d0"), Value("d1"), Value("d2")};
  const std::vector<Value> es = {Value(10.0), Value(20.0), Value("1O"),
                                 Value(30.0)};
  for (int r = 0; r < 48; ++r) {
    (void)table.AppendRow(
        Row{pick(as), pick(bs), pick(cs), pick(ds), pick(es)});
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  table.SetCell(static_cast<int>(rng.Index(48)), 2, Value(nan));
  table.SetCell(static_cast<int>(rng.Index(48)), 4, Value(nan));
  return table;
}

// The j-pattern that j-pattern `cur` becomes when FD k's attributes
// take the values of k-pattern `u`: a Value projection rewrite plus a
// linear search by Value equality, as a Value-keyed map would answer.
int RewriteOracle(const ComponentContext& context, size_t k, int u,
                  size_t j, int cur) {
  std::vector<Value> proj = context.graphs[j].pattern(cur).values;
  const std::vector<Value>& u_values = context.graphs[k].pattern(u).values;
  const std::vector<int>& k_attrs = context.fds[k]->attrs();
  for (size_t a = 0; a < k_attrs.size(); ++a) {
    const int at = context.fds[j]->AttrPosition(k_attrs[a]);
    if (at >= 0) proj[static_cast<size_t>(at)] = u_values[a];
  }
  for (int q = 0; q < context.graphs[j].num_patterns(); ++q) {
    if (context.graphs[j].pattern(q).values == proj) return q;
  }
  return CrossFdIndex::kMissing;
}

TEST(GreedyMultiCrossIndexTest, RewritesMatchValueProjectionOracle) {
  // x0/x1 share two attributes (A, B); x2 shares one with x0 (C), x3
  // one with x1 (D) and x2 (E), x4 one with x2/x3 (E) and x0/x1 (A).
  std::vector<FD> fds;
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> specs = {
      {{0, 1}, {2}}, {{0, 1}, {3}}, {{2}, {4}}, {{3}, {4}}, {{4}, {0}}};
  RepairOptions options;
  options.w_l = 0.5;
  options.w_r = 0.5;
  for (size_t f = 0; f < specs.size(); ++f) {
    fds.push_back(std::move(FD::Make(specs[f].first, specs[f].second,
                                     "x" + std::to_string(f)))
                      .ValueOrDie());
    options.tau_by_fd[fds.back().name()] = 0.5;
  }
  std::vector<const FD*> component;
  for (const FD& fd : fds) component.push_back(&fd);

  int hits = 0, misses = 0, unchanged = 0, nan_patterns = 0;
  uint64_t probes = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Table table = CrossIndexTable(seed);
    DistanceModel model(table);
    ComponentContext context =
        BuildComponentContext(table, component, model, options);
    for (const ViolationGraph& graph : context.graphs) {
      for (const Pattern& pattern : graph.patterns()) {
        for (const Value& v : pattern.values) {
          nan_patterns += v.is_number() && std::isnan(v.num()) ? 1 : 0;
        }
      }
    }
    CrossFdIndex index;
    ASSERT_TRUE(index.Build(context, nullptr));
    for (size_t k = 0; k < fds.size(); ++k) {
      for (size_t j = 0; j < fds.size(); ++j) {
        if (j == k) continue;
        EXPECT_EQ(index.Shares(k, j), fds[k].Overlaps(fds[j]));
        for (int u = 0; u < context.graphs[k].num_patterns(); ++u) {
          for (int cur = 0; cur < context.graphs[j].num_patterns(); ++cur) {
            const int want = RewriteOracle(context, k, u, j, cur);
            ASSERT_EQ(index.Rewrite(k, u, j, cur, &probes), want)
                << "seed " << seed << " k " << k << " u " << u << " j " << j
                << " cur " << cur;
            if (want == CrossFdIndex::kMissing) {
              ++misses;
            } else if (want == cur) {
              ++unchanged;
            } else {
              ++hits;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(nan_patterns, 0);
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_GT(unchanged, 0);
  EXPECT_GT(probes, 0u);
}

TEST(ApproMultiTest, OutputIsFTConsistent) {
  CitizensComponent c;
  RepairStats stats;
  MultiFDSolution solution =
      std::move(SolveApproMulti(c.context, c.model, c.options, &stats))
          .ValueOrDie();
  Table repaired = c.ApplySolution(solution);
  for (size_t k = 1; k <= 2; ++k) {
    EXPECT_TRUE(IsFTConsistent(repaired, c.fds[k], c.model,
                               c.options.FTFor(c.fds[k])));
  }
  EXPECT_FALSE(stats.join_empty);
}

TEST(ExpansionMultiTest, OptimalOnCitizens) {
  CitizensComponent c;
  RepairStats stats;
  auto exact = SolveExpansionMulti(c.context, c.model, c.options, &stats);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  RepairStats greedy_stats;
  auto greedy =
      SolveGreedyMulti(c.context, c.model, c.options, &greedy_stats);
  RepairStats appro_stats;
  auto appro = SolveApproMulti(c.context, c.model, c.options, &appro_stats);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(appro.ok());
  EXPECT_LE(exact.value().cost, greedy.value().cost + 1e-9);
  EXPECT_LE(exact.value().cost, appro.value().cost + 1e-9);
  // And the exact repair reproduces the Example 3 outcome for t5.
  Table repaired = c.ApplySolution(exact.value());
  EXPECT_EQ(repaired.cell(4, 3), Value("New York"));
}

TEST(ExpansionMultiTest, CloseWorldTargets) {
  // Every repaired projection value must already exist in the table
  // (valid repairs, §2.2).
  CitizensComponent c;
  RepairStats stats;
  auto exact = SolveExpansionMulti(c.context, c.model, c.options, &stats);
  ASSERT_TRUE(exact.ok());
  const MultiFDSolution& solution = exact.value();
  for (size_t i = 0; i < solution.targets.size(); ++i) {
    if (solution.targets[i].empty()) continue;
    for (size_t p = 0; p < solution.component_cols.size(); ++p) {
      int col = solution.component_cols[p];
      bool exists = false;
      for (int r = 0; r < c.table.num_rows() && !exists; ++r) {
        exists = c.table.cell(r, col) == solution.targets[i][p];
      }
      EXPECT_TRUE(exists) << "column " << col << " value "
                          << solution.targets[i][p].ToString();
    }
  }
}

TEST(MultiFDTest, GroupingAblationGivesSameRepairs) {
  CitizensComponent grouped;
  RepairOptions ungrouped_options = grouped.options;
  ungrouped_options.group_tuples = false;
  ComponentContext ungrouped = BuildComponentContext(
      grouped.table, {&grouped.fds[1], &grouped.fds[2]}, grouped.model,
      ungrouped_options);
  RepairStats s1, s2;
  auto a = SolveApproMulti(grouped.context, grouped.model, grouped.options,
                           &s1);
  auto b = SolveApproMulti(ungrouped, grouped.model, ungrouped_options, &s2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Table ta = grouped.table;
  ApplyMultiFDSolution(a.value(), &ta, nullptr);
  Table tb = grouped.table;
  ApplyMultiFDSolution(b.value(), &tb, nullptr);
  for (int r = 0; r < ta.num_rows(); ++r) {
    for (int col : grouped.context.component_cols) {
      EXPECT_EQ(ta.cell(r, col), tb.cell(r, col))
          << "row " << r << " col " << col;
    }
  }
}

TEST(MultiFDTest, LinearScanAblationMatchesTree) {
  CitizensComponent c;
  RepairOptions no_tree = c.options;
  no_tree.use_target_tree = false;
  RepairStats s1, s2;
  auto with_tree = SolveApproMulti(c.context, c.model, c.options, &s1);
  auto without = SolveApproMulti(c.context, c.model, no_tree, &s2);
  ASSERT_TRUE(with_tree.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_NEAR(with_tree.value().cost, without.value().cost, 1e-9);
  EXPECT_GT(s2.targets_materialized, 0u);
}

}  // namespace
}  // namespace ftrepair
