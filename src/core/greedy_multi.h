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
/// minimum of a full scan in (fd, pattern) order. A cost reads only
/// chosen[k] and best_unit[k] within 2 hops of the candidate in its own
/// graph, plus `blocked[j] > 0` of other FDs' patterns. After Add(k, c)
/// a round therefore re-scores exactly
///   * the candidates within 2 hops of c in graph k (the chosen[k] and
///     best_unit[k] entries that changed all lie next to c), and
///   * the logged readers of every blocked[j] entry that went 0 -> 1.
/// A read is logged only while the entry is 0 and its pattern is not
/// chosen: blocked counts only grow, and a chosen pattern never becomes
/// blocked inside the loop, so no other read can go stale. The cost is
/// a pure function of those inputs, so a cached cost equals a fresh one
/// bit for bit and the picks match a full rescan exactly.
///
/// The cross-FD index, the cache, the ordered set and the reader log
/// are charged to MemPhase::kSolve and released before the call
/// returns. A failed charge while the index is built returns
/// ResourceExhausted (the next rung down takes the component); one in
/// the round loop truncates it like an exhausted budget. Publishes
/// ftrepair.solve.greedy_rounds, ftrepair.solve.cost_evals and
/// ftrepair.solve.conflict_lookups.
Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats);

}  // namespace ftrepair

#endif  // FTREPAIR_CORE_GREEDY_MULTI_H_
