#ifndef FTREPAIR_CONSTRAINT_CFD_H_
#define FTREPAIR_CONSTRAINT_CFD_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "constraint/fd.h"
#include "data/table.h"

namespace ftrepair {

/// One tableau row: an entry per attribute of the embedded FD (attrs()
/// order); std::nullopt is the wildcard '_'.
using PatternRow = std::vector<std::optional<Value>>;

/// \brief Conditional functional dependency: an embedded FD plus a
/// pattern tableau (Fan et al., TODS'08), the extension the paper's
/// §2 notes all results carry over to.
///
/// A tuple *matches* a tableau row when it agrees with every LHS
/// constant. Matching tuples are subject to the embedded FD semantics
/// among themselves; RHS constants additionally pin the permitted RHS
/// value (a "constant CFD" violation is a single non-conforming tuple).
class CFD {
 public:
  CFD() = default;
  /// Validated constructor; every tableau row must have fd.num_attrs()
  /// entries.
  static Result<CFD> Make(FD fd, std::vector<PatternRow> tableau,
                          std::string name = "");

  const FD& fd() const { return fd_; }
  const std::vector<PatternRow>& tableau() const { return tableau_; }
  const std::string& name() const { return name_; }

  /// True iff `row` agrees with every LHS constant of tableau row `p`.
  bool MatchesLhs(const Row& row, int p) const;

  /// True iff `row` agrees with every RHS constant of tableau row `p`.
  bool MatchesRhs(const Row& row, int p) const;

  /// Row ids of `table` matching the LHS of tableau row `p`.
  std::vector<int> ApplicableRows(const Table& table, int p) const;

  /// Row ids violating an RHS constant of tableau row `p` (i.e. they
  /// match its LHS but disagree with some RHS constant).
  std::vector<int> ConstantViolations(const Table& table, int p) const;

 private:
  // True iff the cells `cell_of(col)` agree with every constant of
  // tableau row `p` at attribute positions [lo, hi).
  template <typename CellOf>
  bool MatchesRange(int lo, int hi, int p, const CellOf& cell_of) const {
    const PatternRow& pat = tableau_[static_cast<size_t>(p)];
    for (int i = lo; i < hi; ++i) {
      const auto& constant = pat[static_cast<size_t>(i)];
      if (constant.has_value() &&
          cell_of(fd_.attrs()[static_cast<size_t>(i)]) != *constant) {
        return false;
      }
    }
    return true;
  }

  FD fd_;
  std::vector<PatternRow> tableau_;
  std::string name_;
};

}  // namespace ftrepair

#endif  // FTREPAIR_CONSTRAINT_CFD_H_
