#include "driver/invariants.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

namespace fairmatch::bench {

namespace {

const char* ColumnName(Column column) {
  switch (column) {
    case Column::kIoAccesses:
      return "io_accesses";
    case Column::kPairs:
      return "pairs";
    case Column::kLoops:
      return "loops";
  }
  return "?";
}

int64_t ColumnValue(const ReportRow& row, Column column) {
  switch (column) {
    case Column::kIoAccesses:
      return row.io_accesses;
    case Column::kPairs:
      return static_cast<int64_t>(row.pairs);
    case Column::kLoops:
      return row.loops;
  }
  return 0;
}

std::string Where(const ReportRow& row) {
  return (row.section.empty() ? "" : row.section + "/") + "x=" + row.x +
         "/" + row.algorithm;
}

InvariantFailure At(const ReportRow& row, std::string field,
                    std::string message) {
  return {"", row.section, row.x, row.algorithm, std::move(field),
          std::move(message)};
}

std::string Join(const std::vector<std::string>& values) {
  std::string joined;
  for (const std::string& value : values) {
    joined += (joined.empty() ? "" : ", ") + value;
  }
  return joined;
}

using Groups =
    std::vector<std::pair<std::string, std::vector<const ReportRow*>>>;

/// The selected rows grouped by `key`, groups and rows in emission order.
Groups Group(const std::vector<ReportRow>& rows, const RowFilter& select,
             const RowKey& key) {
  Groups groups;
  for (const ReportRow& row : rows) {
    if (select && !select(row)) continue;
    const std::string name = key ? key(row) : "";
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == name; });
    if (it == groups.end()) {
      groups.push_back({name, {}});
      it = groups.end() - 1;
    }
    it->second.push_back(&row);
  }
  return groups;
}

/// The member row of `algorithm`, or nullptr.
const ReportRow* Find(const std::vector<const ReportRow*>& members,
                      const std::string& algorithm) {
  for (const ReportRow* row : members) {
    if (row->algorithm == algorithm) return row;
  }
  return nullptr;
}

}  // namespace

std::string Describe(const InvariantFailure& failure) {
  auto part = [](const std::string& value) {
    return value.empty() ? std::string("-") : value;
  };
  return failure.figure + " section=" + part(failure.section) +
         " x=" + part(failure.x) + " algorithm=" + part(failure.algorithm) +
         " field=" + part(failure.field) + ": " + failure.message;
}

std::string BySection(const ReportRow& row) { return row.section; }
std::string ByX(const ReportRow& row) { return row.x; }
std::string ByAlgorithm(const ReportRow& row) { return row.algorithm; }
std::string ByCell(const ReportRow& row) { return row.section + "/" + row.x; }

RowFilter InSection(std::string section) {
  return [section = std::move(section)](const ReportRow& row) {
    return row.section == section;
  };
}

RowFilter AlgorithmIn(std::vector<std::string> algorithms) {
  return [algorithms = std::move(algorithms)](const ReportRow& row) {
    return std::find(algorithms.begin(), algorithms.end(), row.algorithm) !=
           algorithms.end();
  };
}

RowFilter Both(RowFilter a, RowFilter b) {
  return [a = std::move(a), b = std::move(b)](const ReportRow& row) {
    return a(row) && b(row);
  };
}

Invariant SameColumns(RowFilter select, RowKey group,
                      std::vector<Column> columns) {
  return [=](const std::vector<ReportRow>& rows,
             std::vector<InvariantFailure>* failures) {
    for (const auto& [name, members] : Group(rows, select, group)) {
      const ReportRow& base = *members.front();
      for (const ReportRow* row : members) {
        for (const Column column : columns) {
          const int64_t want = ColumnValue(base, column);
          const int64_t got = ColumnValue(*row, column);
          if (got == want) continue;
          failures->push_back(At(
              *row, ColumnName(column),
              std::to_string(got) + " differs from " + std::to_string(want) +
                  " at " + Where(base) + "; the column must not change "
                  "within " + (name.empty() ? "the figure" : name)));
        }
      }
    }
  };
}

Invariant RequireRows(RowFilter select, std::vector<std::string> algorithms) {
  return [=](const std::vector<ReportRow>& rows,
             std::vector<InvariantFailure>* failures) {
    const Groups cells = Group(rows, select, ByCell);
    if (cells.empty()) {
      failures->push_back({"", "", "", "", "algorithm",
                           "no rows; expected cells with the rows " +
                               Join(algorithms)});
    }
    for (const auto& [name, members] : cells) {
      for (const std::string& algorithm : algorithms) {
        if (Find(members, algorithm) != nullptr) continue;
        InvariantFailure failure =
            At(*members.front(), "algorithm",
               "the cell is missing its " + algorithm + " row");
        failure.algorithm = algorithm;
        failures->push_back(std::move(failure));
      }
    }
  };
}

Invariant MinDistinct(RowFilter select, RowKey group, RowKey axis,
                      std::string axis_name, size_t n) {
  return [=](const std::vector<ReportRow>& rows,
             std::vector<InvariantFailure>* failures) {
    Groups groups = Group(rows, select, group);
    if (!group && groups.empty()) groups.push_back({"", {}});
    for (const auto& [name, members] : groups) {
      std::set<std::string> values;
      for (const ReportRow* row : members) values.insert(axis(*row));
      if (values.size() >= n) continue;
      InvariantFailure failure;
      if (!members.empty()) failure.section = members.front()->section;
      failure.field = axis_name;
      failure.message = std::to_string(values.size()) + " distinct " +
                        axis_name + " value(s) {" +
                        Join({values.begin(), values.end()}) + "}" +
                        (name.empty() ? "" : " in " + name) +
                        "; expected a sweep over >= " + std::to_string(n);
      failures->push_back(std::move(failure));
    }
  };
}

Invariant EachRow(RowFilter select, std::string field, RowFilter holds,
                  std::string promise) {
  return [=](const std::vector<ReportRow>& rows,
             std::vector<InvariantFailure>* failures) {
    for (const ReportRow& row : rows) {
      if (select && !select(row)) continue;
      if (!holds(row)) failures->push_back(At(row, field, promise));
    }
  };
}

std::vector<InvariantFailure> CheckInvariants(
    const std::string& figure, const std::vector<Invariant>& invariants,
    const std::vector<ReportRow>& rows) {
  std::vector<InvariantFailure> failures;
  for (const Invariant& invariant : invariants) invariant(rows, &failures);
  for (InvariantFailure& failure : failures) failure.figure = figure;
  return failures;
}

}  // namespace fairmatch::bench
