#include "core/cross_fd_index.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/trace.h"

namespace ftrepair {

namespace {

// Charged per entry of a scratch hash map: key, value, next link and
// cached hash in the node, plus one bucket pointer.
constexpr uint64_t kMapEntryBytes = 5 * sizeof(void*);

struct ValuePtrHash {
  size_t operator()(const Value* v) const { return v->Hash(); }
};

struct ValuePtrEq {
  bool operator()(const Value* a, const Value* b) const { return *a == *b; }
};

// Interns fixed-length tuples of value ids one element at a time: each
// step maps (state, id) to a fresh state. Every step is injective, so
// two tuples of one length end in the same state iff they are equal.
// An empty tuple ends in kNone.
class TupleInterner {
 public:
  uint32_t Intern(const uint32_t* ids, const std::vector<size_t>& at) {
    uint32_t state = CrossFdIndex::kNone;
    for (size_t a : at) {
      state = steps_
                  .emplace(Key(state, ids[a]),
                           static_cast<uint32_t>(steps_.size()))
                  .first->second;
    }
    return state;
  }

  // The id Intern gave this tuple, or kNone if it never saw it.
  uint32_t Lookup(const uint32_t* ids, const std::vector<size_t>& at) const {
    uint32_t state = CrossFdIndex::kNone;
    for (size_t a : at) {
      auto it = steps_.find(Key(state, ids[a]));
      if (it == steps_.end()) return CrossFdIndex::kNone;
      state = it->second;
    }
    return state;
  }

  size_t size() const { return steps_.size(); }

 private:
  static uint64_t Key(uint32_t state, uint32_t id) {
    return uint64_t{state} << 32 | id;
  }

  std::unordered_map<uint64_t, uint32_t> steps_;
};

}  // namespace

bool CrossFdIndex::Build(const ComponentContext& context,
                         const MemoryBudget* memory) {
  TraceSpan span("greedy.cross_index");
  charges_ = MemoryCharges(memory);
  num_fds_ = context.fds.size();
  sides_.clear();
  size_t num_pairs = 0;
  size_t num_entries = 0;
  auto fail = [this] {
    pairs_.clear();
    sides_.clear();
    charges_.Reset();
    return false;
  };
  if (!charges_.Charge(num_fds_ * num_fds_ * sizeof(Pair),
                       MemPhase::kSolve)) {
    return fail();
  }
  pairs_.assign(num_fds_ * num_fds_, Pair());

  std::unordered_map<int, size_t> col_to_pos;
  for (size_t p = 0; p < context.component_cols.size(); ++p) {
    col_to_pos.emplace(context.component_cols[p], p);
  }
  std::vector<std::vector<size_t>> attr_pos(num_fds_);
  uint64_t cells = 0;
  for (size_t k = 0; k < num_fds_; ++k) {
    for (int c : context.fds[k]->attrs()) {
      attr_pos[k].push_back(col_to_pos.at(c));
    }
    cells += static_cast<uint64_t>(context.graphs[k].num_patterns()) *
             attr_pos[k].size();
  }

  // ids[k][v * arity + a]: the value id of pattern v's attribute a,
  // interned per component position.
  MemoryCharges ids_charge(memory);
  if (!ids_charge.Charge(cells * sizeof(uint32_t), MemPhase::kSolve)) {
    return fail();
  }
  std::vector<std::vector<uint32_t>> ids(num_fds_);
  {
    std::vector<std::unordered_map<const Value*, uint32_t, ValuePtrHash,
                                   ValuePtrEq>>
        dict(context.component_cols.size());
    for (size_t k = 0; k < num_fds_; ++k) {
      const size_t arity = attr_pos[k].size();
      const ViolationGraph& graph = context.graphs[k];
      ids[k].resize(static_cast<size_t>(graph.num_patterns()) * arity);
      for (int v = 0; v < graph.num_patterns(); ++v) {
        const std::vector<Value>& values = graph.pattern(v).values;
        for (size_t a = 0; a < arity; ++a) {
          auto& d = dict[attr_pos[k][a]];
          ids[k][static_cast<size_t>(v) * arity + a] =
              d.emplace(&values[a], static_cast<uint32_t>(d.size()))
                  .first->second;
        }
      }
    }
    uint64_t dict_entries = 0;
    for (const auto& d : dict) dict_entries += d.size();
    MemoryCharges dict_charge(memory);
    if (!dict_charge.Charge(dict_entries * kMapEntryBytes,
                            MemPhase::kSolve)) {
      return fail();
    }
  }

  // Attribute indices, in position order, of FD f's attributes at
  // `positions` (sorted).
  auto indices_of = [&attr_pos](size_t f,
                                const std::vector<size_t>& positions) {
    std::vector<size_t> at;
    for (size_t p : positions) {
      for (size_t a = 0; a < attr_pos[f].size(); ++a) {
        if (attr_pos[f][a] == p) at.push_back(a);
      }
    }
    return at;
  };

  for (size_t j = 0; j < num_fds_; ++j) {
    // The other FDs grouped by the positions they share with j.
    std::vector<std::pair<std::vector<size_t>, std::vector<size_t>>> groups;
    for (size_t k = 0; k < num_fds_; ++k) {
      if (k == j) continue;
      std::vector<size_t> shared;
      for (size_t p : attr_pos[k]) {
        for (size_t q : attr_pos[j]) {
          if (p == q) shared.push_back(p);
        }
      }
      if (shared.empty()) continue;
      std::sort(shared.begin(), shared.end());
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&shared](const auto& g) {
                               return g.first == shared;
                             });
      if (it == groups.end()) {
        groups.emplace_back(std::move(shared), std::vector<size_t>());
        it = groups.end() - 1;
      }
      it->second.push_back(k);
    }

    const size_t arity_j = attr_pos[j].size();
    const size_t n_j = static_cast<size_t>(context.graphs[j].num_patterns());
    for (const auto& [shared, ks] : groups) {
      const std::vector<size_t> shared_j = indices_of(j, shared);
      std::vector<size_t> residual_j;
      for (size_t a = 0; a < arity_j; ++a) {
        if (std::find(shared.begin(), shared.end(), attr_pos[j][a]) ==
            shared.end()) {
          residual_j.push_back(a);
        }
      }
      size_t capacity = 4;
      while (capacity * 3 <= n_j * 4) capacity <<= 1;
      if (!charges_.Charge(2 * n_j * sizeof(uint32_t) +
                               capacity * (sizeof(uint64_t) + sizeof(int)),
                           MemPhase::kSolve)) {
        return fail();
      }

      sides_.emplace_back();
      Side& side = sides_.back();
      TupleInterner shared_ids, residual_ids;
      side.sid.resize(n_j);
      side.rid.resize(n_j);
      side.keys.assign(capacity, kEmptyKey);
      side.vals.assign(capacity, kMissing);
      const size_t mask = capacity - 1;
      for (size_t q = 0; q < n_j; ++q) {
        const uint32_t* row = &ids[j][q * arity_j];
        side.sid[q] = shared_ids.Intern(row, shared_j);
        side.rid[q] = residual_ids.Intern(row, residual_j);
        const uint64_t key = uint64_t{side.rid[q]} << 32 | side.sid[q];
        size_t i = HashMix64(key) & mask;
        while (side.keys[i] != kEmptyKey && side.keys[i] != key) {
          i = (i + 1) & mask;
        }
        if (side.keys[i] == kEmptyKey) {  // the first pattern keeps a key
          side.keys[i] = key;
          side.vals[i] = static_cast<int>(q);
        }
      }
      MemoryCharges scratch(memory);
      if (!scratch.Charge((shared_ids.size() + residual_ids.size()) *
                              kMapEntryBytes,
                          MemPhase::kSolve)) {
        return fail();
      }
      num_entries += n_j;

      for (size_t k : ks) {
        const size_t n_k =
            static_cast<size_t>(context.graphs[k].num_patterns());
        if (!charges_.Charge(n_k * sizeof(uint32_t), MemPhase::kSolve)) {
          return fail();
        }
        const std::vector<size_t> shared_k = indices_of(k, shared);
        const size_t arity_k = attr_pos[k].size();
        Pair& pair = pairs_[k * num_fds_ + j];
        pair.side = sides_.size() - 1;
        pair.sid_k.resize(n_k);
        for (size_t u = 0; u < n_k; ++u) {
          pair.sid_k[u] = shared_ids.Lookup(&ids[k][u * arity_k], shared_k);
        }
        ++num_pairs;
      }
    }
  }
  span.AddArg("pairs", std::to_string(num_pairs));
  span.AddArg("entries", std::to_string(num_entries));
  return true;
}

}  // namespace ftrepair
