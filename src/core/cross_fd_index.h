#ifndef FTREPAIR_CORE_CROSS_FD_INDEX_H_
#define FTREPAIR_CORE_CROSS_FD_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "common/resource.h"
#include "core/multi_common.h"

namespace ftrepair {

/// \brief Greedy-M's cross-FD rewrite index (§4.4, Eq. 12).
///
/// Greedy-M prices a modification toward phi-pattern `u` of FD k by
/// asking, for every FD j that shares attributes with k, which
/// j-pattern a Sigma-pattern's current j-pattern `cur` becomes once its
/// shared attributes take u's values. The index answers in integers:
///
///   * Each component position's values are interned into dense ids by
///     Value equality (ValueHash / operator==), so null, NaN and -0.0
///     match exactly as in a Value-keyed map.
///   * Per ordered pair (k, j) sharing positions S, every j-pattern gets
///     a shared id (its projection onto S, in position order) and a
///     residual id (its projection onto j's other attributes). Every
///     k-pattern gets the shared id of its own projection onto S, or
///     kNone when no j-pattern has that projection.
///   * One open-addressing map takes `(residual << 32) | shared` to the
///     j-pattern.
///
/// The j-side (both id arrays and the map) depends only on j and S, so
/// all pairs (k, j) with the same S share one: in the Tax component six
/// FDs share State, and 30 ordered pairs need 12 sides.
///
/// A rewrite then costs three array reads and at most one probe. The
/// interning maps are freed as soon as the arrays they fill are built;
/// what stays resident is one uint32 per k-pattern per pair, plus per
/// side two uint32 per j-pattern and a map of 12-byte slots at load
/// < 3/4. Those bytes are charged to MemPhase::kSolve and released with
/// the index.
class CrossFdIndex {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  static constexpr int kMissing = -1;

  /// Builds the index over the FDs and phi-patterns of `context`,
  /// charging every resident and scratch byte to `memory` (null-safe).
  /// Returns false, leaving the index empty, when a charge fails.
  /// Traced as the `greedy.cross_index` span (args: pairs, entries).
  bool Build(const ComponentContext& context, const MemoryBudget* memory);

  /// True iff FDs k and j (k != j) share a component position.
  bool Shares(size_t k, size_t j) const {
    return pairs_[k * num_fds_ + j].side != kNoSide;
  }

  /// The j-pattern that j-pattern `cur` becomes when its positions
  /// shared with FD k take the values of k-pattern `u`: `cur` itself
  /// when no value changes (or the FDs share nothing), kMissing when
  /// the rewritten projection exists nowhere in the data. Each map
  /// probe adds one to `*probes`.
  int Rewrite(size_t k, int u, size_t j, int cur, uint64_t* probes) const {
    const Pair& pair = pairs_[k * num_fds_ + j];
    if (pair.side == kNoSide) return cur;
    const Side& side = sides_[pair.side];
    const uint32_t sid = pair.sid_k[static_cast<size_t>(u)];
    if (sid == side.sid[static_cast<size_t>(cur)]) return cur;
    if (sid == kNone) return kMissing;
    ++*probes;
    return side.Find(uint64_t{side.rid[static_cast<size_t>(cur)]} << 32 |
                     sid);
  }

 private:
  static constexpr size_t kNoSide = std::numeric_limits<size_t>::max();

  // FD j's patterns keyed for rewrites of one set of shared positions.
  struct Side {
    std::vector<uint32_t> sid;  // per j-pattern
    std::vector<uint32_t> rid;  // per j-pattern
    // Every stored key has a shared id below kNone, so the all-ones
    // key never occurs and marks an empty slot.
    std::vector<uint64_t> keys;
    std::vector<int> vals;

    int Find(uint64_t key) const {
      const size_t mask = keys.size() - 1;
      for (size_t i = HashMix64(key) & mask;; i = (i + 1) & mask) {
        if (keys[i] == key) return vals[i];
        if (keys[i] == kEmptyKey) return kMissing;
      }
    }
  };

  struct Pair {
    size_t side = kNoSide;        // index into sides_
    std::vector<uint32_t> sid_k;  // per k-pattern; kNone if no j match
  };

  static constexpr uint64_t kEmptyKey = std::numeric_limits<uint64_t>::max();

  size_t num_fds_ = 0;
  std::vector<Pair> pairs_;  // k * num_fds_ + j
  std::vector<Side> sides_;
  MemoryCharges charges_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_CROSS_FD_INDEX_H_
