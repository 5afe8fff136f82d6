#include <algorithm>
#include <cstring>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/rng.h"
#include "core/lazy_targets.h"
#include "core/multi_common.h"
#include "core/target_tree.h"
#include "detect/violation_graph.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;

// The paper's Example 13 setup: independent sets for phi2 (City ->
// State) and phi3 (City, Street -> District) over Table 1.
struct Example13 {
  Table table = CitizensDirty();
  std::vector<FD> fds = CitizensFDs(table.schema());
  std::vector<TargetTree::LevelInput> inputs;
  std::vector<int> cols;

  Example13() {
    TargetTree::LevelInput phi2;
    phi2.fd = &fds[1];
    phi2.elements = {{Value("New York"), Value("NY")},
                     {Value("Boston"), Value("MA")}};
    TargetTree::LevelInput phi3;
    phi3.fd = &fds[2];
    phi3.elements = {
        {Value("New York"), Value("Main"), Value("Manhattan")},
        {Value("New York"), Value("Western"), Value("Queens")},
        {Value("Boston"), Value("Main"), Value("Financial")},
        {Value("Boston"), Value("Arlingto"), Value("Brookside")}};
    inputs = {phi2, phi3};
    // Component columns: City(3), Street(4), District(5), State(6).
    cols = {3, 4, 5, 6};
  }
};

std::vector<Value> Target(const char* city, const char* street,
                          const char* district, const char* state) {
  return {Value(city), Value(street), Value(district), Value(state)};
}

TEST(TargetTreeTest, Example13BuildsFourTargets) {
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  EXPECT_EQ(tree.num_targets(), 4u);
  std::set<std::vector<Value>> targets;
  for (auto& t : tree.EnumerateTargets()) targets.insert(t);
  EXPECT_TRUE(targets.count(Target("New York", "Main", "Manhattan", "NY")));
  EXPECT_TRUE(targets.count(Target("New York", "Western", "Queens", "NY")));
  EXPECT_TRUE(targets.count(Target("Boston", "Main", "Financial", "MA")));
  EXPECT_TRUE(
      targets.count(Target("Boston", "Arlingto", "Brookside", "MA")));
}

TEST(TargetTreeTest, Example14SearchRepairsT4) {
  // t4 = (New York, Western, Queens, MA); the best target keeps the
  // first three values and fixes State to NY, at cost dist(NY, MA) = 1.
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<Value> t4_proj = Target("New York", "Western", "Queens", "MA");
  double cost = 0;
  TargetTree::SearchStats stats;
  std::vector<Value> best = tree.FindBest(t4_proj, model, &cost, &stats);
  EXPECT_EQ(best, Target("New York", "Western", "Queens", "NY"));
  EXPECT_DOUBLE_EQ(cost, 1.0);  // dist("MA", "NY") = 1
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(TargetTreeTest, Example3SearchRepairsT5) {
  // t5 = (Boston, Main, Manhattan, NY): joint repair picks
  // (New York, Main, Manhattan, NY) — changing City only (§1 Example 3).
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<Value> t5_proj = Target("Boston", "Main", "Manhattan", "NY");
  double cost = 0;
  TargetTree::SearchStats stats;
  std::vector<Value> best = tree.FindBest(t5_proj, model, &cost, &stats);
  EXPECT_EQ(best, Target("New York", "Main", "Manhattan", "NY"));
}

TEST(TargetTreeTest, SearchMatchesLinearScan) {
  Example13 ex;
  TargetTree tree =
      std::move(TargetTree::Build(ex.inputs, ex.cols, 100000)).ValueOrDie();
  DistanceModel model(ex.table);
  std::vector<std::vector<Value>> targets = tree.EnumerateTargets();
  // Probe with every tuple of the table.
  for (int r = 0; r < ex.table.num_rows(); ++r) {
    std::vector<Value> proj;
    for (int c : ex.cols) proj.push_back(ex.table.cell(r, c));
    double tree_cost = 0;
    tree.FindBest(proj, model, &tree_cost, nullptr);
    double linear_cost = 0;
    FindBestTargetLinear(targets, proj, ex.cols, model, &linear_cost);
    EXPECT_NEAR(tree_cost, linear_cost, 1e-12) << "row " << r;
  }
}

TEST(TargetTreeTest, DisagreeingSetsYieldEmptyJoin) {
  Example13 ex;
  // Restrict phi3 to a Boston element but phi2 to New York only: the
  // join on City is empty.
  ex.inputs[0].elements = {{Value("New York"), Value("NY")}};
  ex.inputs[1].elements = {
      {Value("Boston"), Value("Main"), Value("Financial")}};
  auto result = TargetTree::Build(ex.inputs, ex.cols, 100000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(TargetTreeTest, NodeCapReturnsResourceExhausted) {
  Example13 ex;
  auto result = TargetTree::Build(ex.inputs, ex.cols, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(TargetTreeTest, SingleLevelTree) {
  Example13 ex;
  std::vector<TargetTree::LevelInput> inputs = {ex.inputs[0]};
  std::vector<int> cols = {3, 6};  // City, State
  TargetTree tree =
      std::move(TargetTree::Build(inputs, cols, 1000)).ValueOrDie();
  EXPECT_EQ(tree.num_targets(), 2u);
  DistanceModel model(ex.table);
  double cost = 0;
  std::vector<Value> best = tree.FindBest(
      {Value("Boton"), Value("MA")}, model, &cost, nullptr);
  EXPECT_EQ(best, (std::vector<Value>{Value("Boston"), Value("MA")}));
  EXPECT_NEAR(cost, 1.0 / 6.0, 1e-12);  // edit(Boton, Boston) = 1/6
}

TEST(TargetTreeTest, UncoveredColumnIsError) {
  Example13 ex;
  std::vector<TargetTree::LevelInput> inputs = {ex.inputs[0]};
  // Street (4) is covered by no FD here.
  auto result = TargetTree::Build(inputs, {3, 4, 6}, 1000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TargetTreeTest, NoInputsIsError) {
  auto result = TargetTree::Build({}, {0}, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}


// --- Oracle: table-priced search against a Value-priced reference ---
//
// ReferenceTree is the target tree as it was before the search read a
// TargetDistances table: the same level order, trie and subtree value
// sets, but nodes hold Values and Algorithm 5 prices every node with
// CellDistance itself. The table-priced tree must return the same
// assignment, a bit-identical cost and the same SearchStats.

class ReferenceTree {
 public:
  /// Empty when the join is.
  static std::optional<ReferenceTree> Build(
      std::vector<TargetTree::LevelInput> inputs, std::vector<int> cols) {
    std::stable_sort(inputs.begin(), inputs.end(),
                     [](const TargetTree::LevelInput& a,
                        const TargetTree::LevelInput& b) {
                       return a.elements.size() < b.elements.size();
                     });
    ReferenceTree tree;
    tree.cols_ = std::move(cols);
    tree.num_levels_ = static_cast<int>(inputs.size());
    size_t width = tree.cols_.size();
    std::unordered_map<int, int> col_to_pos;
    for (size_t p = 0; p < width; ++p) {
      col_to_pos.emplace(tree.cols_[p], static_cast<int>(p));
    }
    std::vector<std::vector<int>> attr_pos(inputs.size());
    std::vector<bool> fixed(width, false);
    tree.fixed_positions_.resize(inputs.size());
    for (size_t l = 0; l < inputs.size(); ++l) {
      for (int c : inputs[l].fd->attrs()) {
        int pos = col_to_pos.at(c);
        attr_pos[l].push_back(pos);
        if (!fixed[static_cast<size_t>(pos)]) {
          fixed[static_cast<size_t>(pos)] = true;
          tree.fixed_positions_[l].push_back(pos);
        }
      }
    }
    tree.future_positions_.assign(inputs.size() + 1, {});
    for (size_t l = inputs.size(); l-- > 0;) {
      tree.future_positions_[l] = tree.future_positions_[l + 1];
      for (int p : tree.fixed_positions_[l]) {
        tree.future_positions_[l].push_back(p);
      }
      std::sort(tree.future_positions_[l].begin(),
                tree.future_positions_[l].end());
    }
    Node root;
    root.assign.assign(width, Value());
    tree.nodes_.push_back(std::move(root));
    std::vector<int> leaves = {0};
    for (size_t l = 0; l < inputs.size(); ++l) {
      std::vector<int> next;
      for (int node_id : leaves) {
        for (const std::vector<Value>& elem : inputs[l].elements) {
          const Node& parent = tree.nodes_[static_cast<size_t>(node_id)];
          bool agrees = true;
          for (size_t k = 0; k < attr_pos[l].size() && agrees; ++k) {
            int pos = attr_pos[l][k];
            const std::vector<int>& here = tree.fixed_positions_[l];
            bool fixed_earlier =
                std::find(here.begin(), here.end(), pos) == here.end();
            agrees = !fixed_earlier ||
                     parent.assign[static_cast<size_t>(pos)] == elem[k];
          }
          if (!agrees) continue;
          Node child;
          child.level = static_cast<int>(l);
          child.parent = node_id;
          child.assign = parent.assign;
          for (size_t k = 0; k < attr_pos[l].size(); ++k) {
            child.assign[static_cast<size_t>(attr_pos[l][k])] = elem[k];
          }
          int child_id = static_cast<int>(tree.nodes_.size());
          tree.nodes_.push_back(std::move(child));
          tree.nodes_[static_cast<size_t>(node_id)].children.push_back(
              child_id);
          next.push_back(child_id);
        }
      }
      if (next.empty()) return std::nullopt;
      leaves = std::move(next);
    }
    for (int leaf : leaves) {
      for (int cur = leaf;
           cur >= 0 && !tree.nodes_[static_cast<size_t>(cur)].alive;
           cur = tree.nodes_[static_cast<size_t>(cur)].parent) {
        tree.nodes_[static_cast<size_t>(cur)].alive = true;
      }
    }
    for (size_t id = tree.nodes_.size(); id-- > 0;) {
      Node& node = tree.nodes_[id];
      if (!node.alive) continue;
      const std::vector<int>& future =
          tree.future_positions_[static_cast<size_t>(node.level + 1)];
      std::vector<std::set<Value>> sets(future.size());
      for (int child_id : node.children) {
        const Node& child = tree.nodes_[static_cast<size_t>(child_id)];
        if (!child.alive) continue;
        const std::vector<int>& child_future =
            tree.future_positions_[static_cast<size_t>(child.level + 1)];
        for (size_t fi = 0; fi < future.size(); ++fi) {
          auto it = std::lower_bound(child_future.begin(),
                                     child_future.end(), future[fi]);
          if (it != child_future.end() && *it == future[fi]) {
            for (const Value& v :
                 child.below[static_cast<size_t>(it - child_future.begin())]) {
              sets[fi].insert(v);
            }
          } else {
            sets[fi].insert(child.assign[static_cast<size_t>(future[fi])]);
          }
        }
      }
      for (const std::set<Value>& set : sets) {
        node.below.emplace_back(set.begin(), set.end());
      }
    }
    return tree;
  }

  std::vector<Value> FindBest(const std::vector<Value>& tuple,
                              const DistanceModel& model, double* cost,
                              TargetTree::SearchStats* stats,
                              const Budget* budget = nullptr) const {
    struct Entry {
      double f;
      int node;
      double rdist;
      bool operator>(const Entry& other) const { return f > other.f; }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
    queue.push(Entry{Edist(nodes_[0], tuple, model), 0, 0.0});
    double c_min = ViolationGraph::kInfinity;
    int best_leaf = -1;
    while (!queue.empty()) {
      if (!BudgetCharge(budget)) break;
      Entry top = queue.top();
      queue.pop();
      if (top.f >= c_min) {
        ++stats->nodes_pruned;
        continue;
      }
      const Node& node = nodes_[static_cast<size_t>(top.node)];
      ++stats->nodes_visited;
      if (node.level == num_levels_ - 1) {
        c_min = top.f;
        best_leaf = top.node;
        continue;
      }
      for (int child_id : node.children) {
        const Node& child = nodes_[static_cast<size_t>(child_id)];
        if (!child.alive) continue;
        double rdist = top.rdist;
        for (int pos : fixed_positions_[static_cast<size_t>(child.level)]) {
          rdist += model.CellDistance(cols_[static_cast<size_t>(pos)],
                                      tuple[static_cast<size_t>(pos)],
                                      child.assign[static_cast<size_t>(pos)]);
        }
        double f = rdist + Edist(child, tuple, model);
        if (f < c_min) {
          queue.push(Entry{f, child_id, rdist});
        } else {
          ++stats->nodes_pruned;
        }
      }
    }
    if (best_leaf < 0) {
      *cost = ViolationGraph::kInfinity;
      return {};
    }
    *cost = c_min;
    return nodes_[static_cast<size_t>(best_leaf)].assign;
  }

 private:
  struct Node {
    int level = -1;
    int parent = -1;
    std::vector<int> children;
    std::vector<Value> assign;
    std::vector<std::vector<Value>> below;
    bool alive = false;
  };

  double Edist(const Node& node, const std::vector<Value>& tuple,
               const DistanceModel& model) const {
    const std::vector<int>& future =
        future_positions_[static_cast<size_t>(node.level + 1)];
    double sum = 0;
    for (size_t fi = 0; fi < future.size(); ++fi) {
      int pos = future[fi];
      double best = 1.0;
      for (const Value& v : node.below[fi]) {
        best = std::min(best,
                        model.CellDistance(cols_[static_cast<size_t>(pos)],
                                           tuple[static_cast<size_t>(pos)],
                                           v));
        if (best == 0) break;
      }
      sum += best;
    }
    return sum;
  }

  std::vector<int> cols_;
  std::vector<std::vector<int>> fixed_positions_;
  std::vector<std::vector<int>> future_positions_;
  std::vector<Node> nodes_;
  int num_levels_ = 0;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr ColumnMetric kAllMetrics[] = {
    ColumnMetric::kAuto,        ColumnMetric::kEdit,
    ColumnMetric::kEuclidean,   ColumnMetric::kJaccard,
    ColumnMetric::kJaroWinkler, ColumnMetric::kQGramCosine,
    ColumnMetric::kDiscrete};
constexpr int kNumMetrics = 7;

// A seeded multi-FD instance over five columns (c1 and c4 numeric) and
// three FDs sharing c0 and c3: f0: c0 -> c1, f1: c0, c2 -> c3,
// f2: c3 -> c4. Column c takes metric kAllMetrics[(seed + c) % 7], so
// seven consecutive seeds put every metric on every column. Values
// come from small pools with nulls, text typos in the numeric columns
// ("1O", "12a"), and built-in ties (bat/cat/cut, 8/12 around 10,
// "new york"/"york new").
struct OracleInstance {
  std::vector<FD> fds;
  std::vector<int> cols = {0, 1, 2, 3, 4};
  std::vector<std::vector<Value>> base;     // consistent tuples
  std::vector<std::vector<Value>> queries;  // tuples to repair
  Table table;
  DistanceModel model;
  std::vector<TargetTree::LevelInput> inputs;

  static Table MakeTable(const std::vector<std::vector<Value>>& base,
                         const std::vector<std::vector<Value>>& queries) {
    Table t(Schema({{"c0", ValueType::kString},
                    {"c1", ValueType::kNumber},
                    {"c2", ValueType::kString},
                    {"c3", ValueType::kString},
                    {"c4", ValueType::kNumber}}));
    for (const auto& rows : {base, queries}) {
      for (const auto& row : rows) (void)t.AppendRow(Row(row));
    }
    return t;
  }

  static std::vector<Value> RandomTuple(Rng& rng) {
    static const std::vector<Value> kText = {
        Value("boston"), Value("bostn"),    Value("austin"),
        Value("dallas"), Value("dalas"),    Value("cat"),
        Value("bat"),    Value("cut"),      Value("new york"),
        Value("york new"), Value()};
    static const std::vector<Value> kNumbers = {
        Value(10),  Value(8),     Value(12),    Value(15.5),
        Value(100), Value("1O"),  Value("12a"), Value()};
    std::vector<Value> tuple;
    for (int c = 0; c < 5; ++c) {
      const std::vector<Value>& pool = (c == 1 || c == 4) ? kNumbers : kText;
      tuple.push_back(pool[rng.Index(pool.size())]);
    }
    return tuple;
  }

  static std::vector<std::vector<Value>> Tuples(Rng& rng, int n) {
    std::vector<std::vector<Value>> out;
    for (int i = 0; i < n; ++i) out.push_back(RandomTuple(rng));
    return out;
  }

  explicit OracleInstance(uint64_t seed)
      : OracleInstance(seed, Rng(seed)) {}

 private:
  OracleInstance(uint64_t seed, Rng rng)
      : base(Tuples(rng, 10)),
        queries(Tuples(rng, 40)),
        table(MakeTable(base, queries)),
        model(table) {
    for (int c = 0; c < 5; ++c) {
      model.SetColumnMetric(c, kAllMetrics[(seed + static_cast<uint64_t>(c)) %
                                           kNumMetrics]);
    }
    fds.push_back(std::move(FD::Make({0}, {1}, "f0")).ValueOrDie());
    fds.push_back(std::move(FD::Make({0, 2}, {3}, "f1")).ValueOrDie());
    fds.push_back(std::move(FD::Make({3}, {4}, "f2")).ValueOrDie());
    // Each level: the base tuples' distinct projections, then two
    // random elements that may join nothing.
    for (const FD& fd : fds) {
      TargetTree::LevelInput input;
      input.fd = &fd;
      std::set<std::vector<Value>> seen;
      auto add = [&](const std::vector<Value>& tuple) {
        std::vector<Value> proj;
        for (int c : fd.attrs()) proj.push_back(tuple[static_cast<size_t>(c)]);
        if (seen.insert(proj).second) input.elements.push_back(proj);
      };
      for (const auto& tuple : base) add(tuple);
      for (int extra = 0; extra < 2; ++extra) add(RandomTuple(rng));
      inputs.push_back(std::move(input));
    }
    // Half the queries copy a base tuple's value per column, so exact
    // matches (and the EDIST early exit at 0) occur often.
    for (auto& query : queries) {
      const std::vector<Value>& anchor = base[rng.Index(base.size())];
      for (size_t c = 0; c < query.size(); ++c) {
        if (rng.Bernoulli(0.5)) query[c] = anchor[c];
      }
    }
  }
};

TEST(TargetTreeOracleTest, TablePricedSearchMatchesValuePricedReference) {
  int ties = 0;
  int null_queries = 0;
  int typo_queries = 0;
  for (uint64_t seed = 0; seed < 2 * kNumMetrics; ++seed) {
    OracleInstance inst(seed);
    std::optional<ReferenceTree> ref =
        ReferenceTree::Build(inst.inputs, inst.cols);
    ASSERT_TRUE(ref.has_value()) << "seed " << seed;
    TargetTree tree =
        std::move(TargetTree::Build(inst.inputs, inst.cols, 100000))
            .ValueOrDie();
    std::vector<const std::vector<Value>*> queries;
    for (const auto& q : inst.queries) queries.push_back(&q);
    TargetDistances table =
        std::move(TargetDistances::Build(inst.cols, tree.position_values(),
                                         queries, inst.model, 1))
            .ValueOrDie();
    // The lazy search reads a table over its own value sets; it breaks
    // ties its own way, but its optimum is the same sum of the same
    // doubles.
    LazyTargetSearch lazy =
        std::move(LazyTargetSearch::Build(inst.inputs, inst.cols))
            .ValueOrDie();
    TargetDistances lazy_table =
        std::move(TargetDistances::Build(inst.cols, lazy.position_values(),
                                         queries, inst.model, 1))
            .ValueOrDie();
    std::vector<std::vector<Value>> targets = tree.EnumerateTargets();
    for (size_t q = 0; q < inst.queries.size(); ++q) {
      const std::vector<Value>& tuple = inst.queries[q];
      double ref_cost = 0;
      TargetTree::SearchStats ref_stats;
      std::vector<Value> expected =
          ref->FindBest(tuple, inst.model, &ref_cost, &ref_stats);
      double cost = 0;
      TargetTree::SearchStats stats;
      std::vector<Value> got = tree.FindBest(table, q, &cost, &stats);
      EXPECT_EQ(got, expected) << "seed " << seed << " query " << q;
      EXPECT_TRUE(SameBits(cost, ref_cost))
          << "seed " << seed << " query " << q << ": " << cost << " vs "
          << ref_cost;
      EXPECT_EQ(stats.nodes_visited, ref_stats.nodes_visited);
      EXPECT_EQ(stats.nodes_pruned, ref_stats.nodes_pruned);
      // The one-query overload prices through its own table.
      double single_cost = 0;
      TargetTree::SearchStats single_stats;
      EXPECT_EQ(tree.FindBest(tuple, inst.model, &single_cost, &single_stats),
                expected);
      EXPECT_TRUE(SameBits(single_cost, ref_cost));
      EXPECT_EQ(single_stats.nodes_visited, ref_stats.nodes_visited);
      EXPECT_EQ(single_stats.nodes_pruned, ref_stats.nodes_pruned);

      LazyTargetSearch::QueryResult lazy_result =
          lazy.FindBest(lazy_table, q, 100000, nullptr);
      EXPECT_FALSE(lazy_result.truncated);
      EXPECT_TRUE(SameBits(lazy_result.cost, ref_cost))
          << "seed " << seed << " query " << q << ": lazy "
          << lazy_result.cost << " vs " << ref_cost;

      int at_min = 0;
      for (const auto& target : targets) {
        double c = 0;
        for (size_t p = 0; p < inst.cols.size(); ++p) {
          c += inst.model.CellDistance(inst.cols[p], tuple[p], target[p]);
        }
        if (c == ref_cost) ++at_min;
      }
      if (at_min > 1) ++ties;
      bool has_null = false;
      bool has_typo = false;
      for (size_t c = 0; c < tuple.size(); ++c) {
        has_null |= tuple[c].is_null();
        has_typo |= (c == 1 || c == 4) && tuple[c].is_string();
      }
      null_queries += has_null;
      typo_queries += has_typo;
    }
  }
  // The sweep must actually exercise the cases it claims to cover.
  EXPECT_GT(ties, 0);
  EXPECT_GT(null_queries, 0);
  EXPECT_GT(typo_queries, 0);
}

// A component context over the oracle instance: base tuples are
// repeated so their projections are the chosen independent sets, and
// every query pattern outside them is dirty.
struct OracleComponent {
  OracleInstance inst;
  Table table;
  std::vector<const FD*> fds;
  ComponentContext context;
  std::vector<std::vector<int>> chosen;
  RepairOptions options;

  explicit OracleComponent(uint64_t seed)
      : inst(seed), table(inst.table) {
    for (const FD& fd : inst.fds) fds.push_back(&fd);
    context = BuildComponentContext(table, fds, inst.model, options);
    int num_base = static_cast<int>(inst.base.size());
    chosen.resize(fds.size());
    for (size_t i = 0; i < context.sigma_patterns.size(); ++i) {
      const std::vector<int>& rows = context.sigma_patterns[i].rows;
      if (*std::min_element(rows.begin(), rows.end()) >= num_base) continue;
      for (size_t k = 0; k < fds.size(); ++k) {
        chosen[k].push_back(context.phi_of_sigma[k][i]);
      }
    }
    for (std::vector<int>& set : chosen) {
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
    }
  }

  // AssignTargets as the Value-priced reference computes it: the serial
  // loop over dirty patterns, stopping where the budget runs out.
  struct Expected {
    std::vector<std::vector<Value>> targets;
    std::vector<double> costs;
    double cost = 0;
    bool truncated = false;
    TargetTree::SearchStats stats;
  };
  Expected Reference(const Budget* budget) const {
    std::vector<TargetTree::LevelInput> inputs(fds.size());
    std::vector<std::vector<bool>> member(fds.size());
    for (size_t k = 0; k < fds.size(); ++k) {
      inputs[k].fd = fds[k];
      member[k].assign(
          static_cast<size_t>(context.graphs[k].num_patterns()), false);
      for (int j : chosen[k]) {
        member[k][static_cast<size_t>(j)] = true;
        inputs[k].elements.push_back(context.graphs[k].pattern(j).values);
      }
    }
    std::optional<ReferenceTree> ref =
        ReferenceTree::Build(inputs, context.component_cols);
    Expected out;
    out.targets.assign(context.sigma_patterns.size(), {});
    out.costs.assign(context.sigma_patterns.size(), 0.0);
    for (size_t i = 0; i < context.sigma_patterns.size(); ++i) {
      bool all_member = true;
      for (size_t k = 0; k < fds.size() && all_member; ++k) {
        all_member =
            member[k][static_cast<size_t>(context.phi_of_sigma[k][i])];
      }
      if (all_member) continue;
      if (BudgetExhausted(budget)) {
        out.truncated = true;
        break;
      }
      double c = 0;
      std::vector<Value> target = ref->FindBest(
          context.sigma_patterns[i].values, inst.model, &c, &out.stats,
          budget);
      if (target.empty()) {
        out.truncated = true;
        continue;
      }
      out.targets[i] = std::move(target);
      out.costs[i] = c;
      out.cost += context.sigma_patterns[i].count() * c;
    }
    return out;
  }
};

void ExpectSolutionMatches(const MultiFDSolution& got,
                           const RepairStats& stats,
                           const OracleComponent::Expected& expected,
                           const std::string& where) {
  EXPECT_EQ(got.targets, expected.targets) << where;
  ASSERT_EQ(got.target_costs.size(), expected.costs.size()) << where;
  for (size_t i = 0; i < expected.costs.size(); ++i) {
    EXPECT_TRUE(SameBits(got.target_costs[i], expected.costs[i]))
        << where << " pattern " << i;
  }
  EXPECT_TRUE(SameBits(got.cost, expected.cost)) << where;
  EXPECT_EQ(got.truncated, expected.truncated) << where;
  EXPECT_EQ(stats.target_nodes_visited, expected.stats.nodes_visited)
      << where;
  EXPECT_EQ(stats.target_nodes_pruned, expected.stats.nodes_pruned)
      << where;
}

TEST(TargetTreeOracleTest, AssignTargetsMatchesReferenceAtEveryThreadCount) {
  for (uint64_t seed = 0; seed < kNumMetrics; ++seed) {
    OracleComponent comp(seed);
    OracleComponent::Expected expected = comp.Reference(nullptr);
    ASSERT_GT(expected.stats.nodes_visited, 0u) << "seed " << seed;
    for (int threads : {1, 4}) {
      comp.options.threads = threads;
      RepairStats stats;
      auto result = AssignTargets(comp.context, comp.chosen, comp.inst.model,
                                  comp.options, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSolutionMatches(result.value(), stats, expected,
                            "seed " + std::to_string(seed) + " threads " +
                                std::to_string(threads));
    }
  }
}

TEST(TargetTreeOracleTest, BudgetFaultTruncatesAtTheSamePop) {
  // The table polls the budget but charges it no units, so a given
  // FTREPAIR_FAULT_BUDGET_UNITS value stops the search at the same
  // node pop as the Value-priced reference.
  OracleComponent comp(3);
  OracleComponent::Expected full = comp.Reference(nullptr);
  const uint64_t total = full.stats.nodes_visited + full.stats.nodes_pruned;
  ASSERT_GT(total, 8u);
  int truncated_runs = 0;
  for (uint64_t units : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{5},
                         total / 3, total / 2, total - 1, total + 50}) {
    testing_util::ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS",
                                  std::to_string(units));
    Budget ref_budget(1e9);
    OracleComponent::Expected expected = comp.Reference(&ref_budget);
    Budget budget(1e9);
    comp.options.threads = 1;
    comp.options.budget = &budget;
    RepairStats stats;
    auto result = AssignTargets(comp.context, comp.chosen, comp.inst.model,
                                comp.options, &stats);
    comp.options.budget = nullptr;
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSolutionMatches(result.value(), stats, expected,
                          "units " + std::to_string(units));
    EXPECT_EQ(budget.units_charged(), ref_budget.units_charged())
        << "units " << units;
    truncated_runs += expected.truncated;

    // And per query, on one shared table.
    TargetTree tree = std::move(TargetTree::Build(comp.inst.inputs,
                                                  comp.inst.cols, 100000))
                          .ValueOrDie();
    std::optional<ReferenceTree> ref =
        ReferenceTree::Build(comp.inst.inputs, comp.inst.cols);
    std::vector<const std::vector<Value>*> queries;
    for (const auto& q : comp.inst.queries) queries.push_back(&q);
    TargetDistances table =
        std::move(TargetDistances::Build(comp.inst.cols,
                                         tree.position_values(), queries,
                                         comp.inst.model, 1))
            .ValueOrDie();
    for (size_t q = 0; q < queries.size(); ++q) {
      testing_util::ScopedEnv per_query("FTREPAIR_FAULT_BUDGET_UNITS",
                                        std::to_string(units % 7 + 1));
      Budget a(1e9);
      Budget b(1e9);
      double ref_cost = 0;
      double cost = 0;
      TargetTree::SearchStats ref_stats;
      TargetTree::SearchStats got_stats;
      std::vector<Value> expected_target =
          ref->FindBest(*queries[q], comp.inst.model, &ref_cost, &ref_stats,
                        &a);
      std::vector<Value> got =
          tree.FindBest(table, q, &cost, &got_stats, &b);
      EXPECT_EQ(got, expected_target) << "query " << q;
      EXPECT_TRUE(SameBits(cost, ref_cost)) << "query " << q;
      EXPECT_EQ(got_stats.nodes_visited, ref_stats.nodes_visited);
      EXPECT_EQ(got_stats.nodes_pruned, ref_stats.nodes_pruned);
    }
  }
  EXPECT_GT(truncated_runs, 0);
}

TEST(TargetDistancesTest, RowsAreSharedAndExact) {
  OracleInstance inst(5);
  TargetTree tree =
      std::move(TargetTree::Build(inst.inputs, inst.cols, 100000))
          .ValueOrDie();
  // Every query twice: the duplicates must add no rows.
  std::vector<const std::vector<Value>*> queries;
  for (const auto& q : inst.queries) queries.push_back(&q);
  for (const auto& q : inst.queries) queries.push_back(&q);
  TargetDistances table =
      std::move(TargetDistances::Build(inst.cols, tree.position_values(),
                                       queries, inst.model, 4))
          .ValueOrDie();
  size_t rows = 0;
  size_t cells = 0;
  for (size_t p = 0; p < inst.cols.size(); ++p) {
    std::set<Value> distinct;
    for (const auto& q : inst.queries) distinct.insert(q[p]);
    rows += distinct.size();
    cells += distinct.size() * tree.position_values()[p].size();
  }
  EXPECT_EQ(table.num_rows(), rows);
  EXPECT_EQ(table.num_cells(), cells);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t p = 0; p < inst.cols.size(); ++p) {
      const std::vector<Value>& values = tree.position_values()[p];
      for (size_t id = 0; id < values.size(); ++id) {
        EXPECT_TRUE(SameBits(
            table.Row(q, static_cast<int>(p))[id],
            inst.model.CellDistance(inst.cols[p], (*queries[q])[p],
                                    values[id])));
      }
    }
  }
}

}  // namespace
}  // namespace ftrepair
