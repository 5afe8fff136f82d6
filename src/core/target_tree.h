#ifndef FTREPAIR_CORE_TARGET_TREE_H_
#define FTREPAIR_CORE_TARGET_TREE_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/resource.h"
#include "common/status.h"
#include "constraint/fd.h"
#include "data/table.h"
#include "metric/projection.h"

namespace ftrepair {

/// \brief Exact prices for the §5 target searches of one component:
/// CellDistance from each distinct dirty-tuple value to each target
/// value, per component position.
///
/// A search (TargetTree or LazyTargetSearch) interns the target values
/// of each position into dense ids, ascending by Value order
/// (`position_values()`). The table holds one row per distinct
/// (position, tuple value) among its queries; entry `id` of a row is
/// exactly `CellDistance(col, tuple[pos], position_values[pos][id])`,
/// so a search that reads it makes the same floating-point sums and
/// comparisons as one that prices each node itself. Queries sharing a
/// value share its row: every distinct triple is priced once.
class TargetDistances {
 public:
  /// Prices every query (values over `cols` order) against `targets`
  /// (per position: distinct target values, ascending). Rows fan out
  /// over `threads` via ParallelFor. `budget` (optional, not owned) is
  /// polled between row batches but charged nothing; `memory`
  /// (optional, not owned) is charged for the table (MemPhase::kTargets)
  /// until it is destroyed. Fails with ResourceExhausted when either
  /// runs out first.
  static Result<TargetDistances> Build(
      const std::vector<int>& cols,
      const std::vector<std::vector<Value>>& targets,
      const std::vector<const std::vector<Value>*>& queries,
      const DistanceModel& model, int threads,
      const Budget* budget = nullptr, const MemoryBudget* memory = nullptr);

  /// Distances from query `query`'s value at `pos` to each target id.
  const double* Row(size_t query, int pos) const {
    return cells_.data() +
           row_offsets_[query * width_ + static_cast<size_t>(pos)];
  }

  size_t num_rows() const { return num_rows_; }
  size_t num_cells() const { return cells_.size(); }

 private:
  size_t width_ = 0;
  size_t num_rows_ = 0;
  /// Offset into cells_ of each (query, position) row.
  std::vector<size_t> row_offsets_;
  std::vector<double> cells_;
  MemoryCharges charges_;
};

/// \brief The target tree of §5: a trie over one independent set per FD
/// whose root-to-leaf paths are the joinable *targets* of a multi-FD
/// component.
///
/// Levels are ordered by independent-set size ascending (§5.1, smaller
/// fan-out near the root). A node at level l fixes the values of FD_l's
/// attributes; a child is attached only when it agrees with every value
/// already fixed on the path. Paths that cannot reach the last level
/// are discarded ("if a path has less than |Sigma|+1 nodes, this path
/// is not a target"). Each node stores the distinct attribute values
/// appearing in its subtree for the not-yet-fixed columns, enabling the
/// EDIST lower bound of the best-first search (§5.2, Algorithm 5).
///
/// Nodes hold value *ids*: each position's values (from the level that
/// first fixes it) are interned, ascending, into `position_values()`,
/// and a node's assignment and subtree value lists are ids into it. The search
/// prices a tuple by reading a TargetDistances row instead of running
/// CellDistance at each node, and turns ids back into Values only for
/// the targets it returns.
class TargetTree {
 public:
  /// One per-FD independent set: `elements[i]` is laid out over
  /// `fd->attrs()`.
  struct LevelInput {
    const FD* fd;
    std::vector<std::vector<Value>> elements;
  };

  struct SearchStats {
    uint64_t nodes_visited = 0;
    uint64_t nodes_pruned = 0;
  };

  /// Builds the tree over `component_cols` (sorted union of the FDs'
  /// attributes). Fails with NotFound when the join is empty and with
  /// ResourceExhausted when more than `max_nodes` trie nodes would be
  /// created — or when `memory` (optional, not owned; charged per trie
  /// node, MemPhase::kTargets, until the tree is destroyed) runs out
  /// first.
  static Result<TargetTree> Build(std::vector<LevelInput> inputs,
                                  std::vector<int> component_cols,
                                  size_t max_nodes,
                                  const MemoryBudget* memory = nullptr);

  /// Number of targets (root-to-leaf paths).
  size_t num_targets() const { return num_targets_; }

  const std::vector<int>& component_cols() const { return component_cols_; }

  /// Per position: the distinct values of the level that first fixes
  /// it, ascending — the id space of the TargetDistances this tree
  /// reads.
  const std::vector<std::vector<Value>>& position_values() const {
    return values_;
  }

  /// Best-first search (Algorithm 5) for the target minimizing the
  /// repair cost of query `query` of `distances` (a table built over
  /// this tree's position_values()). Returns the winning assignment;
  /// `cost` receives its exact cost.
  ///
  /// `budget` (optional, not owned) is charged one unit per node
  /// popped; on exhaustion the best leaf reached so far is returned
  /// (possibly suboptimal), or an empty vector with `cost` = infinity
  /// when no leaf was reached yet. `memory` (optional, not owned) is
  /// charged per queue entry, released on return, and truncates the
  /// search the same way.
  std::vector<Value> FindBest(const TargetDistances& distances, size_t query,
                              double* cost, SearchStats* stats,
                              const Budget* budget = nullptr,
                              const MemoryBudget* memory = nullptr) const;

  /// One-query form for `tuple_proj` (values over component_cols
  /// order): builds a single-query table, then searches it.
  std::vector<Value> FindBest(const std::vector<Value>& tuple_proj,
                              const DistanceModel& model, double* cost,
                              SearchStats* stats,
                              const Budget* budget = nullptr,
                              const MemoryBudget* memory = nullptr) const;

  /// Materializes every target (the no-tree ablation uses this plus a
  /// linear scan).
  std::vector<std::vector<Value>> EnumerateTargets() const;

 private:
  struct Node {
    int level = -1;  // -1 for the virtual root
    int parent = -1;
    std::vector<int> children;
    /// Partial assignment over component positions (value ids);
    /// positions fixed at levels <= `level` are meaningful.
    std::vector<uint32_t> assign;
    /// For each future position (see future_positions_[level + 1]):
    /// distinct value ids in this node's subtree, ascending.
    std::vector<std::vector<uint32_t>> below;
    bool alive = false;
  };

  double Edist(const Node& node, const TargetDistances& distances,
               size_t query) const;
  std::vector<Value> Materialize(const std::vector<uint32_t>& assign) const;

  std::vector<int> component_cols_;
  /// fixed_positions_[l]: component positions first fixed at level l.
  std::vector<std::vector<int>> fixed_positions_;
  /// future_positions_[l]: positions fixed at level >= l (so a node at
  /// level l-1 stores `below` for future_positions_[l]).
  std::vector<std::vector<int>> future_positions_;
  std::vector<std::vector<Value>> values_;
  std::vector<Node> nodes_;
  int num_levels_ = 0;
  size_t num_targets_ = 0;
  MemoryCharges charges_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_TARGET_TREE_H_
