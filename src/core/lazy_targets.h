#ifndef FTREPAIR_CORE_LAZY_TARGETS_H_
#define FTREPAIR_CORE_LAZY_TARGETS_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/target_tree.h"

namespace ftrepair {

/// \brief Lazy-materialization variant of the §5 target tree.
///
/// The eager TargetTree materializes every joinable root-to-leaf path;
/// when per-FD independent sets contain many low-frequency (dirty)
/// elements, path counts multiply across levels and the build explodes
/// — the worst case §5 acknowledges ("may be exponential to the number
/// of tuples"). This class keeps the same level order and the same
/// best-first search, but expands nodes on demand:
///
///   * children come from a per-level hash index keyed by the values of
///     the level's attributes already fixed higher up the path;
///   * elements that cannot pairwise-agree with any element of some
///     other level are pruned up front (a sound fixpoint relaxation,
///     which also detects most empty joins at build time);
///   * EDIST uses per-position *global* value sets instead of per-node
///     subtree sets — a weaker but still admissible lower bound that
///     needs no materialized tree.
///
/// Like the eager tree, it reads every distance from a TargetDistances
/// table built over its position_values() for all queries at once.
///
/// A per-query visit budget bounds pathological searches; when it is
/// exhausted the best leaf found so far (if any) is returned and the
/// truncation is surfaced through SearchStats.
class LazyTargetSearch {
 public:
  struct QueryResult {
    /// Empty when no target was found (empty join or budget exhausted
    /// before the first leaf).
    std::vector<Value> target;
    double cost = 0;
    bool truncated = false;
  };

  /// Validates the inputs and builds the per-level indices. Fails with
  /// NotFound when the pairwise-consistency relaxation proves the join
  /// empty.
  static Result<LazyTargetSearch> Build(
      std::vector<TargetTree::LevelInput> inputs,
      std::vector<int> component_cols);

  /// Best-first search for the cheapest target for query `query` of
  /// `distances` (a table built over this search's position_values()).
  /// `budget` (optional, not owned) is charged one unit per visit and
  /// truncates the search exactly like the visit cap when it runs out;
  /// `memory` (optional, not owned) is charged per arena node pushed,
  /// released on return, and truncates the same way.
  QueryResult FindBest(const TargetDistances& distances, size_t query,
                       uint64_t max_visits, TargetTree::SearchStats* stats,
                       const Budget* budget = nullptr,
                       const MemoryBudget* memory = nullptr) const;

  /// One-query form for `tuple_proj` (values over component_cols
  /// order): builds a single-query table, then searches it.
  QueryResult FindBest(const std::vector<Value>& tuple_proj,
                       const DistanceModel& model, uint64_t max_visits,
                       TargetTree::SearchStats* stats,
                       const Budget* budget = nullptr,
                       const MemoryBudget* memory = nullptr) const;

  const std::vector<int>& component_cols() const { return component_cols_; }

  /// Per position: the distinct values of the level that first fixes
  /// it, ascending — the id space of elements and of the
  /// TargetDistances this search reads.
  const std::vector<std::vector<Value>>& position_values() const {
    return position_values_;
  }

 private:
  struct Level {
    const FD* fd = nullptr;
    /// Elements surviving the pairwise-consistency prefilter, as value
    /// ids laid out over the FD's attrs().
    std::vector<std::vector<uint32_t>> elements;
    /// Component position of each of the FD's attrs.
    std::vector<int> attr_pos;
    /// attr indices (into attr_pos) first fixed at this level,
    /// ascending: the positions the RDIST step prices.
    std::vector<int> fixed_attr;
    /// attr indices (into attr_pos) already fixed by earlier levels.
    std::vector<int> back_attr;
    /// Index: projection of an element onto back_attr -> element ids.
    /// Elements with a back value no earlier level holds are left out
    /// (they agree with no path).
    std::unordered_map<size_t, std::vector<int>> index;
  };

  size_t BackKey(const Level& level,
                 const std::vector<uint32_t>& assignment) const;

  std::vector<int> component_cols_;
  std::vector<Level> levels_;
  /// Distinct values per component position (from the first-fixing
  /// level's elements): the id space, and the global EDIST bound.
  std::vector<std::vector<Value>> position_values_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_LAZY_TARGETS_H_
