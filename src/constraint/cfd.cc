#include "constraint/cfd.h"

namespace ftrepair {

Result<CFD> CFD::Make(FD fd, std::vector<PatternRow> tableau,
                      std::string name) {
  for (const PatternRow& row : tableau) {
    if (static_cast<int>(row.size()) != fd.num_attrs()) {
      return Status::InvalidArgument(
          "CFD tableau row arity " + std::to_string(row.size()) +
          " != FD attr count " + std::to_string(fd.num_attrs()));
    }
  }
  if (tableau.empty()) {
    return Status::InvalidArgument("CFD tableau must have >= 1 row");
  }
  CFD cfd;
  cfd.fd_ = std::move(fd);
  cfd.tableau_ = std::move(tableau);
  cfd.name_ = std::move(name);
  return cfd;
}

bool CFD::MatchesLhs(const Row& row, int p) const {
  return MatchesRange(0, fd_.lhs_size(), p,
                      [&](int col) -> const Value& {
                        return row[static_cast<size_t>(col)];
                      });
}

bool CFD::MatchesRhs(const Row& row, int p) const {
  return MatchesRange(fd_.lhs_size(), fd_.num_attrs(), p,
                      [&](int col) -> const Value& {
                        return row[static_cast<size_t>(col)];
                      });
}

// The table scans below read only this CFD's own columns, cell by cell:
// concurrent CFD groups repair disjoint columns of one shared table, so
// a whole-row read would race with another group's writes.
std::vector<int> CFD::ApplicableRows(const Table& table, int p) const {
  std::vector<int> out;
  for (int r = 0; r < table.num_rows(); ++r) {
    auto cell = [&](int col) -> const Value& { return table.cell(r, col); };
    if (MatchesRange(0, fd_.lhs_size(), p, cell)) out.push_back(r);
  }
  return out;
}

std::vector<int> CFD::ConstantViolations(const Table& table, int p) const {
  std::vector<int> out;
  for (int r = 0; r < table.num_rows(); ++r) {
    auto cell = [&](int col) -> const Value& { return table.cell(r, col); };
    if (MatchesRange(0, fd_.lhs_size(), p, cell) &&
        !MatchesRange(fd_.lhs_size(), fd_.num_attrs(), p, cell)) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace ftrepair
