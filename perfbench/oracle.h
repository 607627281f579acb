// Result oracle for the benchmark: the expected rows of each checked plan,
// computed with ReferenceExecutor before the measurement window, and the
// comparison every completed query's result goes through afterwards.

#pragma once

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/plan.h"
#include "exec/reference_executor.h"
#include "exec/result.h"

namespace perfbench {

class ResultOracle {
 public:
  /// Evaluates `plan` with ReferenceExecutor over `catalog` and records
  /// its canonical rows as the expected result of plan `index`.
  sharing::Status Compute(const sharing::Catalog* catalog, int index,
                          const sharing::PlanNode& plan) {
    sharing::ReferenceExecutor reference(catalog);
    auto result = reference.Execute(plan);
    if (!result.ok()) return result.status();
    expected_[index] = result.value().CanonicalRows();
    return sharing::Status::OK();
  }

  /// Overrides the expected rows of plan `index`.
  void Expect(int index, std::vector<std::string> rows) {
    expected_[index] = std::move(rows);
  }

  /// Writes every expected row to `path`, so that other benchmark
  /// processes check against the same rows without recomputing them.
  /// Format: "plan <index> <rows>" followed by one row per line.
  sharing::Status Save(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& [index, rows] : expected_) {
      out << "plan " << index << " " << rows.size() << "\n";
      for (const auto& row : rows) {
        if (row.find('\n') != std::string::npos) {
          return sharing::Status::InvalidArgument("row holds a newline");
        }
        out << row << "\n";
      }
    }
    out.flush();
    if (!out) return sharing::Status::IoError("cannot write " + path);
    return sharing::Status::OK();
  }

  /// Reads rows written by Save.
  sharing::Status Load(const std::string& path) {
    std::ifstream in(path);
    if (!in) return sharing::Status::IoError("cannot read " + path);
    std::string word;
    int index = 0;
    std::size_t count = 0;
    while (in >> word >> index >> count) {
      if (word != "plan") break;
      in.ignore(1);
      std::vector<std::string> rows(count);
      for (auto& row : rows) std::getline(in, row);
      expected_[index] = std::move(rows);
    }
    if (!in.eof() || expected_.empty()) {
      return sharing::Status::IoError("malformed oracle file " + path);
    }
    return sharing::Status::OK();
  }

  bool Has(int index) const { return expected_.count(index) != 0; }
  std::size_t size() const { return expected_.size(); }

  const std::vector<std::string>& Expected(int index) const {
    return expected_.at(index);
  }

  /// True iff `result` holds exactly the expected rows of plan `index`
  /// (order-insensitive, as ResultSet::CanonicalRows defines equality).
  bool Matches(int index, const sharing::ResultSet& result) const {
    auto it = expected_.find(index);
    return it != expected_.end() && result.CanonicalRows() == it->second;
  }

 private:
  std::map<int, std::vector<std::string>> expected_;
};

}  // namespace perfbench
