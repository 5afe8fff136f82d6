#include "core/greedy_multi.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/cross_fd_index.h"

namespace ftrepair {

namespace {

constexpr double kInf = ViolationGraph::kInfinity;
constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

// Ordered-set entry: (cached cost, flattened slot).
using SlotKey = std::pair<double, uint32_t>;
// Charged per ordered-set entry: the key plus a red-black tree node's
// three links and color word.
constexpr uint64_t kSetNodeBytes = sizeof(SlotKey) + 4 * sizeof(void*);
// Charged per slot up front: cost cache, dirty flag, reader-list
// header, dedupe stamp and one ordered-set node.
constexpr uint64_t kSlotBytes = sizeof(double) + sizeof(uint8_t) +
                                sizeof(std::vector<uint32_t>) +
                                sizeof(uint32_t) + kSetNodeBytes;

// Scope guard: mirrors the round loop's work into the metrics
// registry on exit (the TargetsInstrument pattern of multi_common.cc).
struct SolveInstrument {
  uint64_t rounds = 0;
  uint64_t cost_evals = 0;
  uint64_t conflict_lookups = 0;
  ~SolveInstrument() {
    static Counter* rounds_counter =
        Metrics().GetCounter("ftrepair.solve.greedy_rounds");
    static Counter* evals_counter =
        Metrics().GetCounter("ftrepair.solve.cost_evals");
    static Counter* lookups_counter =
        Metrics().GetCounter("ftrepair.solve.conflict_lookups");
    rounds_counter->Increment(rounds);
    evals_counter->Increment(cost_evals);
    lookups_counter->Increment(conflict_lookups);
  }
};

struct GreedyMultiState {
  const ComponentContext* ctx;
  const RepairOptions* options;
  SolveInstrument* instrument = nullptr;

  size_t num_fds;
  // Per FD: chosen membership, conflict counts against the chosen set.
  std::vector<std::vector<bool>> chosen;
  std::vector<std::vector<int>> blocked;
  std::vector<std::vector<int>> chosen_list;
  // Per FD: cheapest unit cost from each pattern to the chosen set.
  std::vector<std::vector<double>> best_unit;
  size_t remaining = 0;  // candidates not yet chosen nor blocked

  // Which j-pattern a rewrite of FD k's shared positions leads to.
  CrossFdIndex cross;

  // Flattened (fd, pattern) slot space: slot_base[k] + v, in the
  // serial scan's (k, v) lexicographic order.
  std::vector<uint32_t> slot_base;

  // Incremental round state (see SolveGreedyMulti).
  std::vector<double> cost_cache;  // ordered-set key of each live slot
  std::set<SlotKey> live;          // every candidate, keyed (cost, slot)
  std::vector<uint8_t> is_dirty;
  std::vector<uint32_t> dirty;
  // readers[e]: slots whose cached cost read blocked at entry e (a
  // flattened (fd, pattern)) while it was 0. last_reader[e] dedupes
  // repeated reads by the same slot.
  std::vector<std::vector<uint32_t>> readers;
  std::vector<uint32_t> last_reader;
  uint32_t scoring_slot = kNoSlot;
  // Patterns whose blocked count went 0 -> 1 in the latest Add.
  std::vector<int> flipped;
  uint64_t charged_bytes = 0;  // kSolve bytes to release on exit
  bool charge_failed = false;

  // False when the cross-FD index could not be charged.
  bool Init(const ComponentContext& context, const RepairOptions& opts,
            SolveInstrument* solve_instrument) {
    ctx = &context;
    options = &opts;
    instrument = solve_instrument;
    num_fds = context.fds.size();
    chosen.resize(num_fds);
    blocked.resize(num_fds);
    chosen_list.resize(num_fds);
    best_unit.resize(num_fds);
    slot_base.assign(num_fds + 1, 0);
    for (size_t k = 0; k < num_fds; ++k) {
      int n = context.graphs[k].num_patterns();
      chosen[k].assign(static_cast<size_t>(n), false);
      blocked[k].assign(static_cast<size_t>(n), 0);
      best_unit[k].assign(static_cast<size_t>(n), kInf);
      remaining += static_cast<size_t>(n);
      slot_base[k + 1] = slot_base[k] + static_cast<uint32_t>(n);
    }
    return cross.Build(context, opts.memory);
  }

  // Charges `bytes` of round state to the solve phase; a failed charge
  // latches charge_failed for the round loop to act on.
  bool Charge(uint64_t bytes) {
    if (!MemCharge(options->memory, bytes, MemPhase::kSolve)) {
      charge_failed = true;
      return false;
    }
    charged_bytes += bytes;
    return true;
  }

  void Release(uint64_t bytes) {
    if (options->memory != nullptr) options->memory->Release(bytes);
    charged_bytes -= bytes;
  }

  // Sizes the incremental structures and queues every candidate for
  // its first scoring. False when the memory charge fails.
  bool InitRounds() {
    const uint32_t total = slot_base[num_fds];
    if (!Charge(uint64_t{total} * kSlotBytes)) return false;
    cost_cache.assign(total, 0.0);
    is_dirty.assign(total, 0);
    readers.resize(total);
    last_reader.assign(total, kNoSlot);
    for (size_t k = 0; k < num_fds; ++k) {
      for (int v = 0; v < ctx->graphs[k].num_patterns(); ++v) {
        if (IsCandidate(k, v)) MarkDirty(slot_base[k] + v);
      }
    }
    return true;
  }

  bool IsCandidate(size_t k, int v) const {
    return !chosen[k][static_cast<size_t>(v)] &&
           blocked[k][static_cast<size_t>(v)] == 0;
  }

  size_t FdOfSlot(uint32_t slot) const {
    return static_cast<size_t>(
               std::upper_bound(slot_base.begin(), slot_base.end(), slot) -
               slot_base.begin()) -
           1;
  }

  void MarkDirty(uint32_t slot) {
    if (is_dirty[slot]) return;
    is_dirty[slot] = 1;
    dirty.push_back(slot);
  }

  // blocked[j][phi] > 0, logging the slot being scored as a reader of
  // the entry while it is 0. blocked only grows, so a read of a
  // positive count never goes stale; a chosen pattern never becomes
  // blocked inside the round loop, so its reads need no log either.
  bool IsBlocked(size_t j, int phi) {
    const size_t p = static_cast<size_t>(phi);
    if (blocked[j][p] > 0) return true;
    if (chosen[j][p]) return false;
    const uint32_t entry = slot_base[j] + static_cast<uint32_t>(phi);
    if (last_reader[entry] != scoring_slot) {
      last_reader[entry] = scoring_slot;
      std::vector<uint32_t>& list = readers[entry];
      const size_t before = list.capacity();
      list.push_back(scoring_slot);
      if (list.capacity() != before) {
        Charge((list.capacity() - before) * sizeof(uint32_t));
      }
    }
    return false;
  }

  // At most this many underlying Sigma-patterns (resp. candidate
  // targets) are cross-scored per neighbor — a bounded approximation
  // that keeps Eq. 12 evaluation within the paper's O(Sigma * V^2).
  static constexpr size_t kMaxCrossSigmas = 8;
  static constexpr size_t kMaxCrossTargets = 3;

  // Conflict indicator of sigma-pattern s against FD j's chosen set,
  // after hypothetically rewriting the shared positions with the values
  // of phi-pattern `u` of FD k (u < 0 means "no rewrite").
  int ConflictAfter(size_t k, int u, size_t j, int sigma) {
    int phi = ctx->phi_of_sigma[j][static_cast<size_t>(sigma)];
    if (u >= 0) {
      phi = cross.Rewrite(k, u, j, phi, &instrument->conflict_lookups);
    }
    // A projection that exists nowhere in the data would be *created*
    // by this modification — count it as a triggered violation ("trigger
    // less violations for phi_j", §4.4): the close-world model would
    // have to invent the combination.
    if (phi == CrossFdIndex::kMissing) return 1;
    return IsBlocked(j, phi) ? 1 : 0;
  }

  // Synchronization-aware score of repairing neighbor v (of FD k) to
  // target u, per underlying tuple (Eq. 12's inner choice).
  double TargetScore(size_t k, int v, int u, double edge_cost) {
    double score = edge_cost;
    double w = options->cross_weight;
    if (w <= 0) return score;
    const std::vector<int>& sigmas =
        ctx->sigma_of_phi[k][static_cast<size_t>(v)];
    size_t limit = std::min(sigmas.size(), kMaxCrossSigmas);
    for (size_t j = 0; j < num_fds; ++j) {
      if (j == k || !cross.Shares(k, j)) continue;
      double delta = 0;
      int total = 0;
      for (size_t si = 0; si < limit; ++si) {
        int sigma = sigmas[si];
        int cnt = ctx->sigma_patterns[static_cast<size_t>(sigma)].count();
        delta += cnt * (ConflictAfter(k, u, j, sigma) -
                        ConflictAfter(k, -1, j, sigma));
        total += cnt;
      }
      if (total > 0) score += w * delta / total;
    }
    return score;
  }

  // Eq. 12 with marginal accounting and exclusion regret: grouped tuple
  // cost of adding candidate phi-pattern c to FD k's chosen set. Every
  // conflicting neighbor is priced at its best eligible modification
  // (only the cheapest few targets by edge cost are cross-scored);
  // neighbors already covered by the chosen set contribute only their
  // improvement, and the candidate's own exclusion cost is netted out
  // (see greedy_single.cc for the rationale).
  double CandidateCost(size_t k, int c) {
    const ViolationGraph& graph = ctx->graphs[k];
    double cost = 0;
    std::vector<std::pair<double, int>> eligible;
    for (const ViolationGraph::Edge& e : graph.Neighbors(c)) {
      int v = e.to;
      if (chosen[k][static_cast<size_t>(v)]) continue;  // cannot happen
      // Eligible targets for v: the candidate itself plus realized
      // members of the chosen set among v's neighbors.
      eligible.clear();
      for (const ViolationGraph::Edge& t : graph.Neighbors(v)) {
        if (t.to == c || chosen[k][static_cast<size_t>(t.to)]) {
          eligible.emplace_back(t.unit_cost, t.to);
        }
      }
      double best;
      if (eligible.empty()) {
        best = e.unit_cost;  // v's only anchor is c itself
      } else {
        std::sort(eligible.begin(), eligible.end());
        size_t limit = std::min(eligible.size(), kMaxCrossTargets);
        best = kInf;
        for (size_t t = 0; t < limit; ++t) {
          best = std::min(best, TargetScore(k, v, eligible[t].second,
                                            eligible[t].first));
        }
      }
      double covered = best_unit[k][static_cast<size_t>(v)];
      double contribution =
          covered == kInf ? best : std::min(best, covered) - covered;
      cost += graph.pattern(v).count() * contribution;
    }
    double mec = graph.MinEdgeCost(c);
    if (mec != kInf) cost -= graph.pattern(c).count() * mec;
    return cost;
  }

  // Re-scores every dirty candidate and re-keys it in the live set.
  // Returns the number of CandidateCost evaluations.
  uint64_t Rescore() {
    uint64_t evals = 0;
    for (uint32_t slot : dirty) {
      is_dirty[slot] = 0;
      size_t k = FdOfSlot(slot);
      int v = static_cast<int>(slot - slot_base[k]);
      if (!IsCandidate(k, v)) continue;
      live.erase({cost_cache[slot], slot});
      scoring_slot = slot;
      double cost = CandidateCost(k, v);
      ++evals;
      // A NaN cost is never picked, like an infinite one; keying it as
      // infinite keeps the set's ordering strict.
      cost_cache[slot] = std::isnan(cost) ? kInf : cost;
      live.emplace(cost_cache[slot], slot);
    }
    dirty.clear();
    return evals;
  }

  void Add(size_t k, int c) {
    bool was_candidate = IsCandidate(k, c);
    chosen[k][static_cast<size_t>(c)] = true;
    chosen_list[k].push_back(c);
    if (was_candidate) --remaining;
    flipped.clear();
    for (const ViolationGraph::Edge& e : ctx->graphs[k].Neighbors(c)) {
      best_unit[k][static_cast<size_t>(e.to)] = std::min(
          best_unit[k][static_cast<size_t>(e.to)], e.unit_cost);
      if (blocked[k][static_cast<size_t>(e.to)]++ == 0 &&
          !chosen[k][static_cast<size_t>(e.to)]) {
        --remaining;  // freshly blocked
        flipped.push_back(e.to);
      }
    }
  }

  // After the round's Add(k, c): drops c and the freshly blocked
  // patterns from the live set and marks dirty exactly the candidates
  // whose cost inputs changed (see SolveGreedyMulti).
  void Invalidate(size_t k, int c) {
    const ViolationGraph& graph = ctx->graphs[k];
    const uint32_t base = slot_base[k];
    live.erase({cost_cache[base + static_cast<uint32_t>(c)],
                base + static_cast<uint32_t>(c)});
    for (int y : flipped) {
      const uint32_t entry = base + static_cast<uint32_t>(y);
      live.erase({cost_cache[entry], entry});
      std::vector<uint32_t>& list = readers[entry];
      for (uint32_t slot : list) MarkDirty(slot);
      Release(list.capacity() * sizeof(uint32_t));
      std::vector<uint32_t>().swap(list);
    }
    for (const ViolationGraph::Edge& e : graph.Neighbors(c)) {
      for (const ViolationGraph::Edge& t : graph.Neighbors(e.to)) {
        if (IsCandidate(k, t.to)) {
          MarkDirty(base + static_cast<uint32_t>(t.to));
        }
      }
    }
  }
};

}  // namespace

Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats) {
  FTR_TRACE_SPAN("greedy.solve_multi");
  SolveInstrument instrument;
  GreedyMultiState state;
  if (!state.Init(context, options, &instrument)) {
    return ResourceCheck(options.budget, options.memory,
                         "greedy cross-FD index");
  }

  // Trusted phi-patterns are pinned first (other tuples repair toward
  // them), then isolated phi-patterns join unconditionally.
  for (size_t k = 0; k < state.num_fds; ++k) {
    if (options.trusted_rows.empty()) break;
    std::vector<bool> forced = TrustedPatternMask(
        context.graphs[k].patterns(), options.trusted_rows);
    for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
      if (!forced[static_cast<size_t>(v)]) continue;
      if (state.blocked[k][static_cast<size_t>(v)] > 0 && stats != nullptr) {
        ++stats->trusted_conflicts;
      }
      state.Add(k, v);
    }
  }
  for (size_t k = 0; k < state.num_fds; ++k) {
    for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
      if (context.graphs[k].degree(v) == 0 &&
          !state.chosen[k][static_cast<size_t>(v)]) {
        state.Add(k, v);
      }
    }
  }

  // Each round picks the candidate with the smallest cost, ties to the
  // smallest (fd, pattern) slot — the first strict minimum of a full
  // scan in (k, v) order. Costs are cached in `live`, ordered by
  // (cost, slot), and a round re-scores only the slots that the
  // previous Add could have changed; CandidateCost is a pure function
  // of the round state, so a cached cost whose inputs did not change
  // equals a fresh one bit for bit.
  bool truncated = state.remaining > 0 && !state.InitRounds();
  bool made_progress = false;
  while (!truncated && state.remaining > 0) {
    // Each round appends one (fd, pattern) choice and refreshes the
    // per-pattern best-unit costs it invalidates.
    if (!BudgetCharge(options.budget) ||
        !state.Charge(sizeof(int) + sizeof(double))) {
      // Out of budget: stop growing. AssignTargets still runs (and
      // itself polls), so already-chosen sets yield a valid partial
      // repair; unreached patterns stay dirty.
      truncated = true;
      break;
    }
    ++instrument.rounds;
    instrument.cost_evals += state.Rescore();
    if (state.charge_failed) {
      // The reader log could not grow, so later invalidations may be
      // missed: stop before trusting the cache again.
      truncated = true;
      break;
    }
    if (state.live.empty() || !(state.live.begin()->first < kInf)) {
      break;  // no candidate with a finite cost is left
    }
    const uint32_t slot = state.live.begin()->second;
    const size_t best_fd = state.FdOfSlot(slot);
    const int best_pattern =
        static_cast<int>(slot - state.slot_base[best_fd]);
    state.Add(best_fd, best_pattern);
    state.Invalidate(best_fd, best_pattern);
    made_progress = true;
  }
  // The round state's charges, and the index with its own, leave
  // before the target join allocates.
  state.Release(state.charged_bytes);
  state.cross = CrossFdIndex();

  if (truncated && !made_progress) {
    // Exhausted before the first candidate was chosen: there is no
    // partial cover for AssignTargets to complete, so hand the
    // component down the ladder instead of reporting an empty
    // "partial" success.
    return ResourceCheck(options.budget, options.memory, "greedy cover");
  }
  auto result = AssignTargets(context, state.chosen_list, model, options,
                              stats);
  if (result.ok()) {
    result.value().rung = SolverRung::kGreedy;
    if (truncated) result.value().truncated = true;
  }
  return result;
}

}  // namespace ftrepair
