#ifndef FTREPAIR_CORE_GREEDY_MULTI_H_
#define FTREPAIR_CORE_GREEDY_MULTI_H_

#include "core/multi_common.h"

namespace ftrepair {

/// \brief Greedy-M (§4.4, Algorithm 4): joint greedy over all FDs of a
/// connected component.
///
/// Repeatedly adds the (FD, phi-pattern) candidate with the smallest
/// *tuple cost* (Eq. 12) to that FD's independent set. The tuple cost
/// prices every conflicting neighbor at its best modification, where
/// "best" is synchronization-aware: a candidate modification is scored
/// by its repair cost plus `options.cross_weight` per violation it
/// triggers (minus per violation it eliminates) against the chosen sets
/// of connected FDs. A substituted projection that exists as no pattern
/// counts as triggered: the close-world model would have to invent it.
/// The substitution is answered in integers by a CrossFdIndex built
/// once per call.
/// Terminates when every phi-pattern is chosen or blocked, then joins
/// the sets into targets and repairs (lines 7-9).
///
/// The round loop is incremental. Each candidate's cost is cached in a
/// set ordered by (cost, slot), where the slot is the flattened
/// (fd, pattern) index, so the set's minimum is the first strict
/// minimum of a full scan in (fd, pattern) order. A cost reads chosen[k]
/// and the top chosen-neighbour lists within 2 hops of the candidate in
/// its own graph, plus memoized target scores. Per pattern v, the top
/// list keeps v's kMaxCrossTargets cheapest chosen neighbours by
/// (unit cost, id); merging the candidate's own edge into it gives the
/// eligible targets a sorted scan of v's neighbours would give, since
/// each edge carries one unit cost in both directions.
///
/// The score memo holds TargetScore(k, v, u) per directed edge u -> v,
/// at u's adjacency position. A score reads only `blocked[j] > 0` of
/// other FDs' patterns; the target-independent half of those reads is
/// made once per visit of v and counted for every score computed in
/// that visit. The reader log maps each blocked entry to the memo keys
/// whose score read it while it was 0. After Add(k, c) a round
/// re-scores
///   * the candidates within 2 hops of c in graph k (the chosen[k] and
///     top-list entries that changed all lie next to c), and
///   * for each blocked entry that went 0 -> 1, each logged key
///     u -> v that is still valid is dropped from the memo, and its
///     readers are marked: u itself while u is unchosen, or every
///     candidate next to v once u is chosen.
/// That is exact: CandidateCost(c) reads score u -> v only when u == c
/// or u is a chosen neighbour of v, and chosen is permanent. A read is
/// logged only while the entry is 0 and its pattern is not chosen:
/// blocked counts only grow, and a chosen pattern never becomes blocked
/// inside the loop, so no other read can go stale. Scores and costs are
/// pure functions of those inputs, so a memoized score or cached cost
/// equals a fresh one bit for bit and the picks match a full rescan
/// exactly.
///
/// The cross-FD index, the score memo (9 bytes per directed edge), the
/// top lists, the cache, the ordered set and the reader log are charged
/// to MemPhase::kSolve and freed, with their charges, before the target
/// join. A failed charge while the index or the memo is sized returns
/// ResourceExhausted (the next rung down takes the component); one in
/// the round loop truncates it like an exhausted budget. Publishes
/// ftrepair.solve.greedy_rounds, ftrepair.solve.cost_evals,
/// ftrepair.solve.conflict_lookups, ftrepair.solve.score_memo_hits and
/// ftrepair.solve.score_memo_misses.
Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_GREEDY_MULTI_H_
