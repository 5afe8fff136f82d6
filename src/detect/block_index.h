#ifndef FTREPAIR_DETECT_BLOCK_INDEX_H_
#define FTREPAIR_DETECT_BLOCK_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraint/fd.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "metric/projection.h"

namespace ftrepair {

/// \brief Sound candidate generation for the violation-graph pair join
/// (similarity-join blocking).
///
/// The all-pairs join evaluates every i < j pattern pair against tau.
/// This index generates a *superset of the qualifying pairs* — never a
/// miss — from per-attribute filters derived from the normalized
/// distance bound each attribute's weight implies:
///
///   proj(u, v) <= tau  implies  fl(w_p * d_p(u, v)) <= tau  for every
///   attribute p, because IEEE addition of non-negative terms is
///   monotone (each partial sum is >= any single rounded term).
///
/// Three join strategies, planned once per build from (tau, weights,
/// metrics, values, codes) and tried in this order:
///
///   * Exact bucket join. At tau = 0 a qualifying pair has d_p = 0 on
///     every positively-weighted attribute, so patterns are bucketed by
///     a key that is constant within distance-0 classes: the raw Value
///     for 0/1-discrete attributes, the ToString rendering for edit
///     attributes (distinct strings have positive edit distance; the
///     null/"" rendering collision only over-generates, which is
///     sound). At tau > 0 the same join applies when some 0/1-discrete
///     attribute has w > tau: any pair differing there is already past
///     tau. Only provably zero-distance-faithful attributes join the
///     key; everything else is left to the verification kernel.
///
///   * Dictionary join (tau > 0, every pattern coded, n >=
///     kAutoMinPatterns). Every attribute with w_p > tau can reject a
///     pair on its own, and d_p depends only on the two cells' codes.
///     So each distinct code pair of such an attribute is decided once:
///     admitted iff fl(w_p * d_p) <= tau, with d_p the exact
///     CellDistance (a capped kernel call, re-run exactly when it was
///     clipped but not over tau). This needs no metric-specific bound,
///     so it holds for every ColumnMetric, for nulls and for text typos
///     in numeric columns. The attribute with the fewest candidate
///     pairs, sum C(m_a, 2) + sum over admitted (a, b) of m_a * m_b
///     (m_a = patterns carrying code a), anchors the join; the other
///     such attributes filter its candidates by neighbour-list lookup.
///     It is used when that count is <= n(n-1)/8; attributes with more
///     than n(n-1)/8 distinct code pairs are never evaluated.
///
///   * Gram join (tau > 0). Patterns are bucketed by the length L of
///     an anchor attribute's string. For a pair with lengths (La, Lb),
///     Lmax = max(La, Lb), the largest edit distance still admissible
///     is k(Lmax) = max { k : fl(w * fl(k / Lmax)) <= tau } — computed
///     with the exact double expressions the kernel uses, then:
///       - length filter: |La - Lb| > k(Lmax) implies ed > k(Lmax),
///       - count filter: ed <= k implies the q-gram *multisets* share
///         at least (Lmax - q + 1) - k*q grams (each edit destroys at
///         most q grams of the longer string), so sharing fewer prunes.
///     Shared-gram counts come from an inverted q-gram index per length
///     bucket. A null anchor only qualifies against other nulls (the
///     null distance is 1 and the anchor weight exceeds tau). The
///     remaining filter-eligible attributes apply the same two checks
///     per surviving pair (secondary filters). This is the join for
///     patterns without codes, and for coded inputs where the
///     dictionary join does not pay.
///
/// Candidates are emitted in ascending j > i order, so a sharded build
/// that replays them in i order reproduces the serial all-pairs edge
/// order exactly. When no attribute supports any filter the join is
/// Join::kAllPairs and a forced index emits every pair — correct, just
/// not faster.
class BlockIndex {
 public:
  /// The candidate generator a build settled on.
  enum class Join { kAllPairs, kExact, kDictionary, kGram };

  /// Per-caller query state, reused across AppendCandidates calls to
  /// avoid re-allocating the shared-gram accumulator (grown to the
  /// largest length bucket seen). `shared` is indexed by rank within
  /// the current bucket and is all-zero between buckets.
  struct Scratch {
    std::vector<uint32_t> shared;
    std::vector<int> touched;
    std::vector<int> ranks;
    std::vector<int> cand;
  };

  /// Plans the join for `patterns` (value vectors laid out over
  /// `fd.attrs()`) and builds it. With `opts.index` == kAuto the index
  /// is only built when the pattern count reaches kAutoMinPatterns and
  /// the plan is expected to prune; otherwise join() is kAllPairs and
  /// the caller should run the all-pairs join. Any other mode forces
  /// the best sound plan (a kAllPairs index then emits every pair).
  /// The referenced patterns/model must outlive the index; `opts` is
  /// snapshotted.
  BlockIndex(const std::vector<Pattern>& patterns, const FD& fd,
             const DistanceModel& model, const FTOptions& opts);

  /// Appends to `out`, in ascending order, every j > i whose pattern
  /// might be within tau of pattern i (plus possibly pairs beyond tau —
  /// the filters are one-sided). Thread-safe for concurrent callers
  /// with distinct Scratch objects.
  void AppendCandidates(int i, Scratch* scratch, std::vector<int>* out) const;

  /// The join in use.
  Join join() const { return join_; }
  /// "allpairs", "exact", "dictionary" or "gram".
  static const char* JoinName(Join join);

  /// Distinct code pairs the dictionary-join planner priced with the
  /// distance kernel (0 when it did not run). Counted whether or not
  /// the plan adopted the dictionary join.
  uint64_t code_pairs_evaluated() const { return code_pairs_evaluated_; }

  /// True when `opts.memory` ran out while building the postings /
  /// buckets / filters. The index stays usable (sound, possibly less
  /// selective); the graph build sees the latched budget and truncates.
  bool memory_exhausted() const { return memory_exhausted_; }

  /// Below this pattern count kAuto always stays on the all-pairs join
  /// (the index's setup cost wouldn't amortize), and the dictionary
  /// join is never planned.
  static constexpr int kAutoMinPatterns = 256;

  /// q-gram width of the count filter.
  static constexpr int kQ = 2;

  /// Sorted multiset of a string's q-grams, run-length encoded
  /// (implementation detail, public for the .cc's free helpers).
  struct GramRun {
    uint32_t gram;
    uint32_t count;
  };

  /// One attribute of the dictionary join (implementation detail,
  /// public for the .cc's planner). Codes are renumbered densely in
  /// first-appearance order ("classes").
  struct CodeFilter {
    std::vector<int> class_of;  // per pattern
    std::vector<std::vector<int>> members;  // per class, ascending
    // Per class: the admitted classes, ascending, itself included.
    std::vector<std::vector<int>> neighbours;
    uint64_t candidates = 0;  // pattern pairs this attribute admits
  };

 private:
  // One anchor-length bucket of the gram join: member ids (ascending)
  // plus an inverted gram index with per-member multiplicities. A
  // posting is (rank within `ids`, gram count) — rank-based so the
  // count accumulator is dense over the bucket and the threshold
  // screen can run one SIMD lane per member.
  struct LenBucket {
    int len = 0;
    std::vector<int> ids;
    std::unordered_map<uint32_t, std::vector<std::pair<int, uint32_t>>>
        postings;
  };
  // Per-pair filter state of one eligible attribute.
  struct AttrFilter {
    int pos = 0;                // position within fd.attrs()
    std::vector<int> kmax;      // kmax[L] for L in [0, max string length]
    std::vector<int> len;       // per pattern; -1 = null value
    std::vector<std::vector<GramRun>> grams;  // per pattern
  };

  void BuildExactJoin(const std::vector<Pattern>& patterns,
                      const std::vector<int>& key_attrs,
                      const std::vector<bool>& key_by_tostring);
  // Code-keyed variant (used when every pattern carries dictionary
  // codes): buckets by per-attribute equality classes of the codes —
  // the raw code for discrete attributes, the code's ToString
  // rendering class for edit attributes — which partitions patterns
  // exactly like the value keys, in the same first-appearance order.
  void BuildExactJoinCoded(const std::vector<Pattern>& patterns,
                           const std::vector<int>& key_attrs,
                           const std::vector<bool>& key_by_tostring);
  void BuildGramJoin(const std::vector<Pattern>& patterns);
  void AppendExactCandidates(int i, std::vector<int>* cand) const;
  void AppendDictionaryCandidates(int i, std::vector<int>* cand) const;
  void AppendGramCandidates(int i, Scratch* scratch,
                            std::vector<int>* out) const;
  bool SecondaryPrune(int i, int j) const;
  // Charges `bytes` of index structure against memory_ (when set),
  // recording exhaustion in memory_exhausted_.
  void ChargeIndexBytes(uint64_t bytes);

  int n_ = 0;
  Join join_ = Join::kAllPairs;
  uint64_t code_pairs_evaluated_ = 0;
  const MemoryBudget* memory_ = nullptr;  // not owned; from FTOptions
  bool memory_exhausted_ = false;

  // Exact join: pattern -> bucket, buckets hold ascending member ids.
  std::vector<int> bucket_of_;
  std::vector<int> rank_in_bucket_;
  std::vector<std::vector<int>> exact_buckets_;

  // Dictionary join: the anchor first, then the secondary filters.
  std::vector<CodeFilter> code_filters_;

  // Gram join: anchor data per pattern + length buckets + null bucket.
  AttrFilter primary_;
  std::vector<int> null_ids_;
  std::vector<LenBucket> len_buckets_;

  // Per-pair secondary filters (gram join and tau > 0 exact join).
  std::vector<AttrFilter> secondary_;
};

/// Appends to `out`, in ascending order, every index r in [0, n) with
/// counts[r] >= threshold. Dispatches at runtime to the widest vector
/// path the CPU supports (AVX2 / SSE4.2 on x86-64, NEON on AArch64,
/// scalar otherwise). Bit-identical to ScreenSharedCountsScalar on
/// every input: the predicate is the same unsigned 32-bit compare,
/// lane width only changes how many elements one instruction tests.
void ScreenSharedCounts(const uint32_t* counts, int n, uint32_t threshold,
                        std::vector<int>* out);

/// Scalar reference implementation (differential tests and fallback).
void ScreenSharedCountsScalar(const uint32_t* counts, int n,
                              uint32_t threshold, std::vector<int>* out);

/// The path ScreenSharedCounts dispatches to on this machine:
/// "avx2", "sse4.2", "neon", or "scalar".
const char* SimdScreenPathName();

}  // namespace ftrepair

#endif  // FTREPAIR_DETECT_BLOCK_INDEX_H_
