#include "core/target_tree.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"

namespace ftrepair {

namespace {

/// Id of a value absent from its position's id space (it can never
/// agree with a fixed value), and of a position not fixed yet.
constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

/// Table rows are priced in batches of about this many cells: one
/// ParallelFor shard, and one budget poll, per batch.
constexpr size_t kCellsPerShard = 4096;

uint32_t IdOf(const std::vector<Value>& values, const Value& v) {
  auto it = std::lower_bound(values.begin(), values.end(), v);
  if (it == values.end() || *it != v) return kNoId;
  return static_cast<uint32_t>(it - values.begin());
}

}  // namespace

Result<TargetDistances> TargetDistances::Build(
    const std::vector<int>& cols,
    const std::vector<std::vector<Value>>& targets,
    const std::vector<const std::vector<Value>*>& queries,
    const DistanceModel& model, int threads, const Budget* budget,
    const MemoryBudget* memory) {
  TraceSpan span("targets.distance_table");
  TargetDistances table;
  table.width_ = cols.size();
  table.row_offsets_.resize(queries.size() * table.width_);
  table.charges_ = MemoryCharges(memory);

  // One row per distinct (position, tuple value), in first-seen order.
  struct RowSpec {
    size_t pos;
    const Value* value;
    size_t offset;
  };
  std::vector<RowSpec> rows;
  size_t num_cells = 0;
  for (size_t p = 0; p < table.width_; ++p) {
    std::unordered_map<Value, size_t, ValueHash> offset_of;
    for (size_t q = 0; q < queries.size(); ++q) {
      const Value& v = (*queries[q])[p];
      auto [it, inserted] = offset_of.emplace(v, num_cells);
      if (inserted) {
        rows.push_back(RowSpec{p, &v, num_cells});
        num_cells += targets[p].size();
      }
      table.row_offsets_[q * table.width_ + p] = it->second;
    }
  }
  table.num_rows_ = rows.size();
  if (!table.charges_.Charge(num_cells * sizeof(double) +
                                 table.row_offsets_.size() * sizeof(size_t),
                             MemPhase::kTargets)) {
    return ResourceCheck(budget, memory, "target distance table");
  }
  table.cells_.resize(num_cells);

  // Batch boundaries over `rows`.
  std::vector<size_t> bounds = {0};
  size_t batch_cells = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    batch_cells += targets[rows[r].pos].size();
    if (batch_cells >= kCellsPerShard || r + 1 == rows.size()) {
      bounds.push_back(r + 1);
      batch_cells = 0;
    }
  }
  bool complete = ParallelFor(
      static_cast<int>(bounds.size() - 1), threads,
      [&](int shard) {
        for (size_t r = bounds[static_cast<size_t>(shard)];
             r < bounds[static_cast<size_t>(shard) + 1]; ++r) {
          const RowSpec& row = rows[r];
          const std::vector<Value>& values = targets[row.pos];
          int col = cols[row.pos];
          double* out = table.cells_.data() + row.offset;
          for (size_t t = 0; t < values.size(); ++t) {
            out[t] = model.CellDistance(col, *row.value, values[t]);
          }
        }
      },
      budget);
  if (!complete) return ResourceCheck(budget, memory, "target distance table");

  static Counter* evals =
      Metrics().GetCounter("ftrepair.targets.distance_evals");
  evals->Increment(num_cells);
  span.AddArg("rows", std::to_string(table.num_rows_));
  span.AddArg("cells", std::to_string(num_cells));
  return table;
}

Result<TargetTree> TargetTree::Build(std::vector<LevelInput> inputs,
                                     std::vector<int> component_cols,
                                     size_t max_nodes,
                                     const MemoryBudget* memory) {
  FTR_TRACE_SPAN("targets.tree_build");
  if (inputs.empty()) {
    return Status::InvalidArgument("target tree needs >= 1 independent set");
  }
  // Smaller sets near the root (§5.1); stable for determinism.
  std::stable_sort(inputs.begin(), inputs.end(),
                   [](const LevelInput& a, const LevelInput& b) {
                     return a.elements.size() < b.elements.size();
                   });

  TargetTree tree;
  tree.charges_ = MemoryCharges(memory);
  tree.component_cols_ = std::move(component_cols);
  tree.num_levels_ = static_cast<int>(inputs.size());
  int width = static_cast<int>(tree.component_cols_.size());

  std::unordered_map<int, int> col_to_pos;
  for (int p = 0; p < width; ++p) {
    col_to_pos.emplace(tree.component_cols_[static_cast<size_t>(p)], p);
  }

  // Positions fixed at each level = attrs of that FD not fixed earlier.
  // attr_pos[l][k] = component position of the k-th attr of level l's FD;
  // fixed_here[l][k] = that position is first fixed at level l.
  std::vector<std::vector<int>> attr_pos(
      static_cast<size_t>(tree.num_levels_));
  std::vector<std::vector<bool>> fixed_here(
      static_cast<size_t>(tree.num_levels_));
  std::vector<bool> fixed(static_cast<size_t>(width), false);
  tree.fixed_positions_.resize(static_cast<size_t>(tree.num_levels_));
  for (int l = 0; l < tree.num_levels_; ++l) {
    const FD* fd = inputs[static_cast<size_t>(l)].fd;
    for (int c : fd->attrs()) {
      auto it = col_to_pos.find(c);
      if (it == col_to_pos.end()) {
        return Status::InvalidArgument(
            "FD attribute not in component columns");
      }
      attr_pos[static_cast<size_t>(l)].push_back(it->second);
      bool first = !fixed[static_cast<size_t>(it->second)];
      fixed_here[static_cast<size_t>(l)].push_back(first);
      if (first) {
        fixed[static_cast<size_t>(it->second)] = true;
        tree.fixed_positions_[static_cast<size_t>(l)].push_back(it->second);
      }
    }
  }
  for (int p = 0; p < width; ++p) {
    if (!fixed[static_cast<size_t>(p)]) {
      return Status::InvalidArgument(
          "component column covered by no FD in the target tree");
    }
  }
  // future_positions_[l] = positions fixed at level >= l.
  tree.future_positions_.assign(static_cast<size_t>(tree.num_levels_ + 1),
                                {});
  for (int l = tree.num_levels_ - 1; l >= 0; --l) {
    tree.future_positions_[static_cast<size_t>(l)] =
        tree.future_positions_[static_cast<size_t>(l + 1)];
    for (int p : tree.fixed_positions_[static_cast<size_t>(l)]) {
      tree.future_positions_[static_cast<size_t>(l)].push_back(p);
    }
    std::sort(tree.future_positions_[static_cast<size_t>(l)].begin(),
              tree.future_positions_[static_cast<size_t>(l)].end());
  }

  // Intern each position's values, ascending, from its fixing level;
  // then lay every element out as ids. A value a later level shares
  // but the fixing level lacks gets kNoId and agrees with nothing.
  tree.values_.assign(static_cast<size_t>(width), {});
  for (int l = 0; l < tree.num_levels_; ++l) {
    const LevelInput& input = inputs[static_cast<size_t>(l)];
    for (size_t k = 0; k < attr_pos[static_cast<size_t>(l)].size(); ++k) {
      if (!fixed_here[static_cast<size_t>(l)][k]) continue;
      std::vector<Value>& values = tree.values_[static_cast<size_t>(
          attr_pos[static_cast<size_t>(l)][k])];
      for (const std::vector<Value>& elem : input.elements) {
        values.push_back(elem[k]);
      }
    }
  }
  for (std::vector<Value>& values : tree.values_) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  std::vector<std::vector<std::vector<uint32_t>>> elements(
      static_cast<size_t>(tree.num_levels_));
  for (int l = 0; l < tree.num_levels_; ++l) {
    LevelInput& input = inputs[static_cast<size_t>(l)];
    const std::vector<int>& positions = attr_pos[static_cast<size_t>(l)];
    for (const std::vector<Value>& elem : input.elements) {
      std::vector<uint32_t> ids(positions.size());
      for (size_t k = 0; k < positions.size(); ++k) {
        ids[k] = IdOf(tree.values_[static_cast<size_t>(positions[k])],
                      elem[k]);
      }
      elements[static_cast<size_t>(l)].push_back(std::move(ids));
    }
    input.elements = {};
  }

  // Level-by-level construction.
  tree.nodes_.clear();
  Node root;
  root.level = -1;
  root.assign.assign(static_cast<size_t>(width), kNoId);
  tree.nodes_.push_back(std::move(root));
  std::vector<int> current_leaves = {0};

  for (int l = 0; l < tree.num_levels_; ++l) {
    const std::vector<int>& positions = attr_pos[static_cast<size_t>(l)];
    const std::vector<bool>& here = fixed_here[static_cast<size_t>(l)];
    std::vector<int> next_leaves;
    for (int node_id : current_leaves) {
      for (const std::vector<uint32_t>& elem :
           elements[static_cast<size_t>(l)]) {
        // Agreement on already-fixed shared positions.
        bool agrees = true;
        const Node& parent = tree.nodes_[static_cast<size_t>(node_id)];
        for (size_t k = 0; k < positions.size(); ++k) {
          if (!here[k] &&
              parent.assign[static_cast<size_t>(positions[k])] != elem[k]) {
            agrees = false;
            break;
          }
        }
        if (!agrees) continue;
        if (tree.nodes_.size() >= max_nodes) {
          return Status::ResourceExhausted(
              "target tree exceeded " + std::to_string(max_nodes) +
              " nodes");
        }
        if (!tree.charges_.Charge(
                sizeof(Node) + static_cast<uint64_t>(width) * sizeof(uint32_t),
                MemPhase::kTargets)) {
          return memory->Check("target tree build");
        }
        Node child;
        child.level = l;
        child.parent = node_id;
        child.assign = parent.assign;
        for (size_t k = 0; k < positions.size(); ++k) {
          child.assign[static_cast<size_t>(positions[k])] = elem[k];
        }
        int child_id = static_cast<int>(tree.nodes_.size());
        tree.nodes_.push_back(std::move(child));
        tree.nodes_[static_cast<size_t>(node_id)].children.push_back(
            child_id);
        next_leaves.push_back(child_id);
      }
    }
    if (next_leaves.empty()) {
      return Status::NotFound("target join is empty");
    }
    current_leaves = std::move(next_leaves);
  }

  // Mark alive = on a complete path; leaves of the last level are alive.
  for (int leaf : current_leaves) {
    int cur = leaf;
    while (cur >= 0 && !tree.nodes_[static_cast<size_t>(cur)].alive) {
      tree.nodes_[static_cast<size_t>(cur)].alive = true;
      cur = tree.nodes_[static_cast<size_t>(cur)].parent;
    }
  }
  tree.num_targets_ = current_leaves.size();

  // `below` id lists, bottom-up (node ids are topological: parent < child).
  for (int id = static_cast<int>(tree.nodes_.size()) - 1; id >= 0; --id) {
    Node& node = tree.nodes_[static_cast<size_t>(id)];
    if (!node.alive) continue;
    const std::vector<int>& future =
        tree.future_positions_[static_cast<size_t>(node.level + 1)];
    node.below.assign(future.size(), {});
    for (int child_id : node.children) {
      const Node& child = tree.nodes_[static_cast<size_t>(child_id)];
      if (!child.alive) continue;
      const std::vector<int>& child_future =
          tree.future_positions_[static_cast<size_t>(child.level + 1)];
      for (size_t fi = 0; fi < future.size(); ++fi) {
        int pos = future[fi];
        auto cit =
            std::lower_bound(child_future.begin(), child_future.end(), pos);
        if (cit != child_future.end() && *cit == pos) {
          // Deeper levels fix it: merge the child's below-list.
          const std::vector<uint32_t>& ids =
              child.below[static_cast<size_t>(cit - child_future.begin())];
          node.below[fi].insert(node.below[fi].end(), ids.begin(), ids.end());
        } else {
          // The child itself fixed it.
          node.below[fi].push_back(child.assign[static_cast<size_t>(pos)]);
        }
      }
    }
    for (std::vector<uint32_t>& ids : node.below) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
  return tree;
}

double TargetTree::Edist(const Node& node, const TargetDistances& distances,
                         size_t query) const {
  const std::vector<int>& future =
      future_positions_[static_cast<size_t>(node.level + 1)];
  double sum = 0;
  for (size_t fi = 0; fi < future.size(); ++fi) {
    const double* row = distances.Row(query, future[fi]);
    double best = 1.0;
    for (uint32_t id : node.below[fi]) {
      best = std::min(best, row[id]);
      if (best == 0) break;
    }
    sum += best;
  }
  return sum;
}

std::vector<Value> TargetTree::Materialize(
    const std::vector<uint32_t>& assign) const {
  std::vector<Value> out;
  out.reserve(assign.size());
  for (size_t p = 0; p < assign.size(); ++p) {
    out.push_back(values_[p][assign[p]]);
  }
  return out;
}

std::vector<Value> TargetTree::FindBest(const TargetDistances& distances,
                                        size_t query, double* cost,
                                        SearchStats* stats,
                                        const Budget* budget,
                                        const MemoryBudget* memory) const {
  struct QueueEntry {
    double f;
    int node;
    double rdist;
    bool operator>(const QueueEntry& other) const { return f > other.f; }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  queue.push(QueueEntry{Edist(nodes_[0], distances, query), 0, 0.0});

  MemoryCharges queue_charges(memory);
  double c_min = ViolationGraph::kInfinity;
  int best_leaf = -1;
  while (!queue.empty()) {
    if (!BudgetCharge(budget) ||
        !queue_charges.Charge(sizeof(QueueEntry), MemPhase::kTargets)) {
      break;  // out of budget: settle for the best leaf so far, if any
    }
    QueueEntry top = queue.top();
    queue.pop();
    if (top.f >= c_min) {
      if (stats != nullptr) ++stats->nodes_pruned;
      continue;
    }
    const Node& node = nodes_[static_cast<size_t>(top.node)];
    if (stats != nullptr) ++stats->nodes_visited;
    if (node.level == num_levels_ - 1) {
      // Leaf: f is the exact cost (EDIST is empty at the last level).
      c_min = top.f;
      best_leaf = top.node;
      continue;
    }
    for (int child_id : node.children) {
      const Node& child = nodes_[static_cast<size_t>(child_id)];
      if (!child.alive) continue;
      double rdist = top.rdist;
      for (int pos :
           fixed_positions_[static_cast<size_t>(child.level)]) {
        rdist += distances.Row(query, pos)[child.assign[static_cast<size_t>(
            pos)]];
      }
      double f = rdist + Edist(child, distances, query);
      if (f < c_min) {
        queue.push(QueueEntry{f, child_id, rdist});
      } else if (stats != nullptr) {
        ++stats->nodes_pruned;
      }
    }
  }
  if (best_leaf < 0) {
    // Only reachable when a budget ran out before the first leaf;
    // an unbudgeted search always reaches one (the tree is nonempty).
    FTR_DCHECK(BudgetExhausted(budget) || MemExhausted(memory));
    *cost = ViolationGraph::kInfinity;
    return {};
  }
  *cost = c_min;
  return Materialize(nodes_[static_cast<size_t>(best_leaf)].assign);
}

std::vector<Value> TargetTree::FindBest(const std::vector<Value>& tuple_proj,
                                        const DistanceModel& model,
                                        double* cost, SearchStats* stats,
                                        const Budget* budget,
                                        const MemoryBudget* memory) const {
  // Unbudgeted, so the table build cannot fail.
  TargetDistances distances =
      std::move(TargetDistances::Build(component_cols_, values_,
                                       {&tuple_proj}, model, /*threads=*/1))
          .ValueOrDie();
  return FindBest(distances, 0, cost, stats, budget, memory);
}

std::vector<std::vector<Value>> TargetTree::EnumerateTargets() const {
  std::vector<std::vector<Value>> out;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (!node.alive) continue;
    if (node.level == num_levels_ - 1) {
      out.push_back(Materialize(node.assign));
      continue;
    }
    for (int child : node.children) stack.push_back(child);
  }
  return out;
}

}  // namespace ftrepair
