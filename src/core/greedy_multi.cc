#include "core/greedy_multi.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/cross_fd_index.h"

namespace ftrepair {

namespace {

constexpr double kInf = ViolationGraph::kInfinity;
constexpr uint32_t kNoKey = std::numeric_limits<uint32_t>::max();

// At most this many underlying Sigma-patterns (resp. candidate targets)
// are cross-scored per neighbor — a bounded approximation that keeps
// Eq. 12 evaluation within the paper's O(Sigma * V^2).
constexpr size_t kMaxCrossSigmas = 8;
constexpr size_t kMaxCrossTargets = 3;

// Ordered-set entry: (cached cost, flattened slot).
using SlotKey = std::pair<double, uint32_t>;
// Charged per ordered-set entry: the key plus a red-black tree node's
// three links and color word.
constexpr uint64_t kSetNodeBytes = sizeof(SlotKey) + 4 * sizeof(void*);
// The memo keys logged as readers of one blocked entry. It grows by
// doubling like a std::vector, in a 16-byte header instead of 24.
struct ReaderList {
  std::unique_ptr<uint32_t[]> keys;
  uint32_t size = 0;
  uint32_t capacity = 0;
};

// Charged per slot up front: cost cache, dirty flag, reader-list
// header and dedupe stamp; plus one ordered-set node per candidate.
constexpr uint64_t kSlotBytes = sizeof(double) + sizeof(uint8_t) +
                                sizeof(ReaderList) + sizeof(uint32_t);

// One of a pattern's cheapest chosen neighbours in its own graph: the
// Eq. 12 target it offers, the unit cost of their edge and the memo key
// of the pattern's score toward it.
struct Anchor {
  double unit;
  int id;
  uint32_t key;
  // The order of the (unit_cost, id) pairs a sorted scan would use.
  bool operator<(const Anchor& other) const {
    return std::tie(unit, id) < std::tie(other.unit, other.id);
  }
};

// Charged up front per slot: its memo-key and top-list bases and the
// list's length; per top-list entry: one Anchor; per directed edge: a
// memoized score and its valid flag.
constexpr uint64_t kKeySlotBytes = 2 * sizeof(uint32_t) + sizeof(uint8_t);
constexpr uint64_t kMemoEdgeBytes = sizeof(double) + sizeof(uint8_t);

// Inserts `a` into the sorted list `list` of `*size` anchors, keeping
// at most `cap`.
void InsertAnchor(Anchor* list, uint8_t* size, size_t cap, const Anchor& a) {
  size_t pos = *size;
  while (pos > 0 && a < list[pos - 1]) --pos;
  if (pos >= cap) return;
  for (size_t i = std::min<size_t>(*size, cap - 1); i > pos; --i) {
    list[i] = list[i - 1];
  }
  list[pos] = a;
  if (*size < cap) ++*size;
}

// Scope guard: mirrors the round loop's work into the metrics
// registry on exit (the TargetsInstrument pattern of multi_common.cc).
struct SolveInstrument {
  uint64_t rounds = 0;
  uint64_t cost_evals = 0;
  uint64_t conflict_lookups = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  ~SolveInstrument() {
    static Counter* rounds_counter =
        Metrics().GetCounter("ftrepair.solve.greedy_rounds");
    static Counter* evals_counter =
        Metrics().GetCounter("ftrepair.solve.cost_evals");
    static Counter* lookups_counter =
        Metrics().GetCounter("ftrepair.solve.conflict_lookups");
    static Counter* hits_counter =
        Metrics().GetCounter("ftrepair.solve.score_memo_hits");
    static Counter* misses_counter =
        Metrics().GetCounter("ftrepair.solve.score_memo_misses");
    rounds_counter->Increment(rounds);
    evals_counter->Increment(cost_evals);
    lookups_counter->Increment(conflict_lookups);
    hits_counter->Increment(memo_hits);
    misses_counter->Increment(memo_misses);
  }
};

struct GreedyMultiState {
  const ComponentContext* ctx = nullptr;
  const RepairOptions* options = nullptr;
  SolveInstrument* instrument = nullptr;

  size_t num_fds = 0;
  // Per FD: chosen membership, conflict counts against the chosen set.
  std::vector<std::vector<bool>> chosen;
  std::vector<std::vector<int>> blocked;
  std::vector<std::vector<int>> chosen_list;
  size_t remaining = 0;  // candidates not yet chosen nor blocked

  // Which j-pattern a rewrite of FD k's shared positions leads to.
  CrossFdIndex cross;

  // Flattened (fd, pattern) slot space: slot_base[k] + v, in the
  // serial scan's (k, v) lexicographic order.
  std::vector<uint32_t> slot_base;

  // Per slot: its cheapest chosen neighbours, sorted by (unit_cost,
  // id), at top[top_base[slot]...]; room for min(degree,
  // kMaxCrossTargets) of them.
  std::vector<uint32_t> top_base;  // per slot, plus the end
  std::vector<Anchor> top;
  std::vector<uint8_t> top_size;

  // Score memo: TargetScore(k, v, u) of the directed edge u -> v at
  // key_base[slot of u] + (v's position in Neighbors(u)).
  std::vector<uint32_t> key_base;  // per slot, plus the end
  std::vector<double> memo;
  std::vector<uint8_t> memo_valid;

  // Incremental round state (see greedy_multi.h).
  std::vector<double> cost_cache;  // ordered-set key of each live slot
  std::set<SlotKey> live;          // every candidate, keyed (cost, slot)
  std::vector<uint8_t> is_dirty;
  std::vector<uint32_t> dirty;
  // readers[e]: memo keys whose score read blocked at entry e (a
  // flattened (fd, pattern)) while it was 0. last_reader[e] dedupes
  // repeated reads for the same key.
  std::vector<ReaderList> readers;
  std::vector<uint32_t> last_reader;
  // Entries the score being computed read, and those its neighbour's
  // target-independent terms read; before[] holds those terms.
  std::vector<uint32_t> reads;
  std::vector<uint32_t> before_reads;
  std::vector<int> before;
  // Patterns whose blocked count went 0 -> 1 in the latest Add.
  std::vector<int> flipped;
  uint64_t charged_bytes = 0;  // kSolve bytes to release on exit
  bool charge_failed = false;

  ~GreedyMultiState() {
    if (options != nullptr) Release(charged_bytes);
  }

  // Builds the cross-FD index, then charges and sizes the top lists
  // and the score memo. A failed charge names the structure.
  Status Init(const ComponentContext& context, const RepairOptions& opts,
              SolveInstrument* solve_instrument) {
    ctx = &context;
    options = &opts;
    instrument = solve_instrument;
    num_fds = context.fds.size();
    chosen.resize(num_fds);
    blocked.resize(num_fds);
    chosen_list.resize(num_fds);
    slot_base.assign(num_fds + 1, 0);
    for (size_t k = 0; k < num_fds; ++k) {
      int n = context.graphs[k].num_patterns();
      chosen[k].assign(static_cast<size_t>(n), false);
      blocked[k].assign(static_cast<size_t>(n), 0);
      remaining += static_cast<size_t>(n);
      slot_base[k + 1] = slot_base[k] + static_cast<uint32_t>(n);
    }
    const uint32_t total = slot_base[num_fds];
    key_base.assign(size_t{total} + 1, 0);
    top_base.assign(size_t{total} + 1, 0);
    for (size_t k = 0; k < num_fds; ++k) {
      for (int v = 0; v < context.graphs[k].num_patterns(); ++v) {
        const uint32_t slot = slot_base[k] + static_cast<uint32_t>(v);
        const uint32_t degree =
            static_cast<uint32_t>(context.graphs[k].degree(v));
        key_base[slot + 1] = key_base[slot] + degree;
        top_base[slot + 1] =
            top_base[slot] +
            std::min(degree, static_cast<uint32_t>(kMaxCrossTargets));
      }
    }
    if (!cross.Build(context, opts.memory)) {
      return ResourceCheck(opts.budget, opts.memory, "greedy cross-FD index");
    }
    if (!Charge(uint64_t{total} * kKeySlotBytes +
                uint64_t{top_base[total]} * sizeof(Anchor) +
                uint64_t{key_base[total]} * kMemoEdgeBytes)) {
      return ResourceCheck(opts.budget, opts.memory, "greedy score memo");
    }
    top.resize(top_base[total]);
    top_size.assign(total, 0);
    memo.assign(key_base[total], 0.0);
    memo_valid.assign(key_base[total], 0);
    return Status::OK();
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
    if (!Charge(uint64_t{total} * kSlotBytes +
                uint64_t{remaining} * kSetNodeBytes)) {
      return false;
    }
    cost_cache.assign(total, 0.0);
    is_dirty.assign(total, 0);
    readers.resize(total);
    last_reader.assign(total, kNoKey);
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

  // blocked[j][phi] > 0, appending the entry to `*log` while it is 0.
  // blocked only grows, so a read of a positive count never goes
  // stale; a chosen pattern never becomes blocked inside the round
  // loop, so its reads need no log either.
  bool IsBlocked(size_t j, int phi, std::vector<uint32_t>* log) {
    const size_t p = static_cast<size_t>(phi);
    if (blocked[j][p] > 0) return true;
    if (!chosen[j][p]) log->push_back(slot_base[j] + static_cast<uint32_t>(p));
    return false;
  }

  // Records `key` as a reader of every entry in `entries`.
  void LogReaders(const std::vector<uint32_t>& entries, uint32_t key) {
    for (uint32_t entry : entries) {
      if (last_reader[entry] == key) continue;
      last_reader[entry] = key;
      ReaderList& list = readers[entry];
      if (list.size == list.capacity) {
        const uint32_t capacity = std::max(1u, 2 * list.capacity);
        auto grown = std::make_unique_for_overwrite<uint32_t[]>(capacity);
        std::copy_n(list.keys.get(), list.size, grown.get());
        list.keys = std::move(grown);
        Charge(uint64_t{capacity - list.capacity} * sizeof(uint32_t));
        list.capacity = capacity;
      }
      list.keys[list.size++] = key;
    }
  }

  // Conflict indicator of sigma-pattern s against FD j's chosen set,
  // after hypothetically rewriting the shared positions with the values
  // of phi-pattern `u` of FD k (u < 0 means "no rewrite").
  int ConflictAfter(size_t k, int u, size_t j, int sigma,
                    std::vector<uint32_t>* log) {
    int phi = ctx->phi_of_sigma[j][static_cast<size_t>(sigma)];
    if (u >= 0) {
      phi = cross.Rewrite(k, u, j, phi, &instrument->conflict_lookups);
    }
    // A projection that exists nowhere in the data would be *created*
    // by this modification — count it as a triggered violation ("trigger
    // less violations for phi_j", §4.4): the close-world model would
    // have to invent the combination.
    if (phi == CrossFdIndex::kMissing) return 1;
    return IsBlocked(j, phi, log) ? 1 : 0;
  }

  // The target-independent terms ConflictAfter(k, -1, j, sigma) of
  // neighbor v of FD k, in TargetScore's order, with their reads
  // logged in before_reads. Computed once per visit of v.
  void ComputeBefore(size_t k, int v) {
    before.clear();
    before_reads.clear();
    if (options->cross_weight <= 0) return;
    const std::vector<int>& sigmas =
        ctx->sigma_of_phi[k][static_cast<size_t>(v)];
    const size_t limit = std::min(sigmas.size(), kMaxCrossSigmas);
    for (size_t j = 0; j < num_fds; ++j) {
      if (j == k || !cross.Shares(k, j)) continue;
      for (size_t si = 0; si < limit; ++si) {
        before.push_back(ConflictAfter(k, -1, j, sigmas[si], &before_reads));
      }
    }
  }

  // Synchronization-aware score of repairing neighbor v (of FD k) to
  // target u, per underlying tuple (Eq. 12's inner choice). Takes v's
  // target-independent terms from before[] and logs its own reads in
  // `reads`.
  double TargetScore(size_t k, int v, int u, double edge_cost) {
    double score = edge_cost;
    double w = options->cross_weight;
    if (w <= 0) return score;
    const std::vector<int>& sigmas =
        ctx->sigma_of_phi[k][static_cast<size_t>(v)];
    size_t limit = std::min(sigmas.size(), kMaxCrossSigmas);
    const int* before_term = before.data();
    for (size_t j = 0; j < num_fds; ++j) {
      if (j == k || !cross.Shares(k, j)) continue;
      double delta = 0;
      int total = 0;
      for (size_t si = 0; si < limit; ++si) {
        int sigma = sigmas[si];
        int cnt = ctx->sigma_patterns[static_cast<size_t>(sigma)].count();
        delta += cnt * (ConflictAfter(k, u, j, sigma, &reads) - *before_term++);
        total += cnt;
      }
      if (total > 0) score += w * delta / total;
    }
    return score;
  }

  // Eq. 12 with marginal accounting and exclusion regret: grouped tuple
  // cost of adding candidate phi-pattern c to FD k's chosen set. Every
  // conflicting neighbor v is priced at its best eligible modification:
  // c itself or a chosen neighbor of v, of which only the cheapest few
  // by edge cost are cross-scored. Neighbors already covered by the
  // chosen set contribute only their improvement, and the candidate's
  // own exclusion cost is netted out (see greedy_single.cc for the
  // rationale). Each target's score comes from the memo, or is
  // computed and memoized with its reads logged under its key.
  double CandidateCost(size_t k, int c) {
    const ViolationGraph& graph = ctx->graphs[k];
    const std::vector<ViolationGraph::Edge>& edges = graph.Neighbors(c);
    const uint32_t c_key = key_base[slot_base[k] + static_cast<uint32_t>(c)];
    double cost = 0;
    for (size_t i = 0; i < edges.size(); ++i) {
      const ViolationGraph::Edge& e = edges[i];
      int v = e.to;
      if (chosen[k][static_cast<size_t>(v)]) continue;  // cannot happen
      // Graph edges carry the same unit cost in both directions, so
      // merging c's edge into v's top chosen neighbours gives the first
      // entries of a sorted scan of v's eligible targets.
      const uint32_t v_slot = slot_base[k] + static_cast<uint32_t>(v);
      Anchor targets[kMaxCrossTargets] = {};
      uint8_t num_targets = top_size[v_slot];
      std::copy_n(top.data() + top_base[v_slot], num_targets, targets);
      InsertAnchor(targets, &num_targets, kMaxCrossTargets,
                   Anchor{e.unit_cost, c, c_key + static_cast<uint32_t>(i)});
      double best = kInf;
      bool before_ready = false;
      for (size_t t = 0; t < num_targets; ++t) {
        const Anchor& target = targets[t];
        if (memo_valid[target.key]) {
          ++instrument->memo_hits;
        } else {
          ++instrument->memo_misses;
          if (!before_ready) {
            ComputeBefore(k, v);
            before_ready = true;
          }
          memo[target.key] = TargetScore(k, v, target.id, target.unit);
          memo_valid[target.key] = 1;
          LogReaders(before_reads, target.key);
          LogReaders(reads, target.key);
          reads.clear();
        }
        best = std::min(best, memo[target.key]);
      }
      // The cheapest unit cost from v to the chosen set, if any.
      double covered =
          top_size[v_slot] == 0 ? kInf : top[top_base[v_slot]].unit;
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
    const std::vector<ViolationGraph::Edge>& edges =
        ctx->graphs[k].Neighbors(c);
    const uint32_t c_key = key_base[slot_base[k] + static_cast<uint32_t>(c)];
    for (size_t i = 0; i < edges.size(); ++i) {
      const ViolationGraph::Edge& e = edges[i];
      const uint32_t slot = slot_base[k] + static_cast<uint32_t>(e.to);
      InsertAnchor(top.data() + top_base[slot], &top_size[slot],
                   top_base[slot + 1] - top_base[slot],
                   Anchor{e.unit_cost, c, c_key + static_cast<uint32_t>(i)});
      if (blocked[k][static_cast<size_t>(e.to)]++ == 0 &&
          !chosen[k][static_cast<size_t>(e.to)]) {
        --remaining;  // freshly blocked
        flipped.push_back(e.to);
      }
    }
  }

  // Drops the memoized score `key` (edge u -> v of some FD k) and marks
  // dirty the candidates whose cached cost may have read it: u itself
  // while it is unchosen, and once u is chosen, any candidate next to
  // v (CandidateCost(c) reads the score only when u == c or u is a
  // chosen neighbor of c's neighbor v, and chosen is permanent).
  void ExpireScore(uint32_t key) {
    if (!memo_valid[key]) return;  // its readers were marked already
    memo_valid[key] = 0;
    const uint32_t u_slot = static_cast<uint32_t>(
        std::upper_bound(key_base.begin(), key_base.end(), key) -
        key_base.begin() - 1);
    const size_t k = FdOfSlot(u_slot);
    const int u = static_cast<int>(u_slot - slot_base[k]);
    if (!chosen[k][static_cast<size_t>(u)]) {
      if (IsCandidate(k, u)) MarkDirty(u_slot);
      return;
    }
    const ViolationGraph& graph = ctx->graphs[k];
    const int v = graph.Neighbors(u)[key - key_base[u_slot]].to;
    for (const ViolationGraph::Edge& t : graph.Neighbors(v)) {
      if (IsCandidate(k, t.to)) {
        MarkDirty(slot_base[k] + static_cast<uint32_t>(t.to));
      }
    }
  }

  // After the round's Add(k, c): drops c and the freshly blocked
  // patterns from the live set and marks dirty exactly the candidates
  // whose cost inputs changed (see greedy_multi.h).
  void Invalidate(size_t k, int c) {
    const ViolationGraph& graph = ctx->graphs[k];
    const uint32_t base = slot_base[k];
    live.erase({cost_cache[base + static_cast<uint32_t>(c)],
                base + static_cast<uint32_t>(c)});
    for (int y : flipped) {
      const uint32_t entry = base + static_cast<uint32_t>(y);
      live.erase({cost_cache[entry], entry});
      ReaderList& list = readers[entry];
      for (uint32_t i = 0; i < list.size; ++i) ExpireScore(list.keys[i]);
      Release(uint64_t{list.capacity} * sizeof(uint32_t));
      list = ReaderList();
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

// Pins the trusted and isolated phi-patterns, then runs the round loop
// into `*chosen_list`. The round state, the cross-FD index and every
// byte they charged are gone on return, before the target join
// allocates. Sets `*truncated` when the budget or a memory charge cut
// the loop; a cut before the first pick is an error.
Status ChooseSets(const ComponentContext& context,
                  const RepairOptions& options, RepairStats* stats,
                  SolveInstrument* instrument,
                  std::vector<std::vector<int>>* chosen_list,
                  bool* truncated) {
  GreedyMultiState state;
  Status init = state.Init(context, options, instrument);
  if (!init.ok()) return init;

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
  *truncated = state.remaining > 0 && !state.InitRounds();
  bool made_progress = false;
  while (!*truncated && state.remaining > 0) {
    // Each round appends one (fd, pattern) choice.
    if (!BudgetCharge(options.budget) || !state.Charge(sizeof(int))) {
      // Out of budget: stop growing. AssignTargets still runs (and
      // itself polls), so already-chosen sets yield a valid partial
      // repair; unreached patterns stay dirty.
      *truncated = true;
      break;
    }
    ++instrument->rounds;
    instrument->cost_evals += state.Rescore();
    if (state.charge_failed) {
      // The reader log could not grow, so later invalidations may be
      // missed: stop before trusting the cache again.
      *truncated = true;
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
  if (*truncated && !made_progress) {
    // Exhausted before the first candidate was chosen: there is no
    // partial cover for AssignTargets to complete, so hand the
    // component down the ladder instead of reporting an empty
    // "partial" success.
    return ResourceCheck(options.budget, options.memory, "greedy cover");
  }
  *chosen_list = std::move(state.chosen_list);
  return Status::OK();
}

}  // namespace

Result<MultiFDSolution> SolveGreedyMulti(const ComponentContext& context,
                                         const DistanceModel& model,
                                         const RepairOptions& options,
                                         RepairStats* stats) {
  FTR_TRACE_SPAN("greedy.solve_multi");
  SolveInstrument instrument;
  std::vector<std::vector<int>> chosen_list;
  bool truncated = false;
  Status chosen = ChooseSets(context, options, stats, &instrument,
                             &chosen_list, &truncated);
  if (!chosen.ok()) return chosen;
  auto result = AssignTargets(context, chosen_list, model, options, stats);
  if (result.ok()) {
    result.value().rung = SolverRung::kGreedy;
    if (truncated) result.value().truncated = true;
  }
  return result;
}

}  // namespace ftrepair
