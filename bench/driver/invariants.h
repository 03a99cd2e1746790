// Report invariants: the promises a figure makes about its aggregated
// rows, declared on its FigureSpec next to the code that produces them.
//
// RunPlan checks a figure's invariants once that figure's rows are
// aggregated, and fairmatch_bench exits non-zero when one fails, so a
// broken promise fails the benchmark run itself. The helpers cover
// three kinds of promise:
//   - deterministic columns equal within a group (SameColumns);
//   - the rows each cell must have and the distinct values an axis
//     must take (RequireRows, MinDistinct);
//   - exact per-row conditions (EachRow).
// A one-off promise is an Invariant lambda at its figure's
// registration site.
#ifndef FAIRMATCH_BENCH_DRIVER_INVARIANTS_H_
#define FAIRMATCH_BENCH_DRIVER_INVARIANTS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "driver/report.h"

namespace fairmatch::bench {

/// One broken promise, located by the row (or group) that broke it.
/// Fields that do not apply, such as x for a per-section sweep size,
/// are empty.
struct InvariantFailure {
  std::string figure;
  std::string section;
  std::string x;
  std::string algorithm;
  std::string field;
  std::string message;
};

/// One line naming the figure, section, x, algorithm and field.
std::string Describe(const InvariantFailure& failure);

/// A promise over one figure's rows; appends a failure per violation.
using Invariant = std::function<void(const std::vector<ReportRow>& rows,
                                     std::vector<InvariantFailure>* failures)>;

/// Selects the rows an invariant covers; an empty filter selects all.
using RowFilter = std::function<bool(const ReportRow&)>;

/// Groups rows, or names the axis whose distinct values MinDistinct
/// counts; an empty key puts every selected row in one group.
using RowKey = std::function<std::string(const ReportRow&)>;

std::string BySection(const ReportRow& row);
std::string ByX(const ReportRow& row);
std::string ByAlgorithm(const ReportRow& row);
/// The (section, x) cell.
std::string ByCell(const ReportRow& row);

RowFilter InSection(std::string section);
RowFilter AlgorithmIn(std::vector<std::string> algorithms);
/// Rows both filters select.
RowFilter Both(RowFilter a, RowFilter b);

/// The deterministic integer columns of a row.
enum class Column { kIoAccesses, kPairs, kLoops };
inline const std::vector<Column> kDeterministicColumns = {
    Column::kIoAccesses, Column::kPairs, Column::kLoops};

/// Within each group of the selected rows, every row carries the group's
/// first row's value in each of `columns`. A failure names the row that
/// differs.
Invariant SameColumns(RowFilter select, RowKey group,
                      std::vector<Column> columns);

/// The selection is not empty, and every (section, x) cell it touches
/// has a row for each of `algorithms`.
Invariant RequireRows(RowFilter select, std::vector<std::string> algorithms);

/// Within each group of the selected rows, `axis` takes at least `n`
/// distinct values. Without a group key the whole selection is one
/// group, checked even when it is empty.
Invariant MinDistinct(RowFilter select, RowKey group, RowKey axis,
                      std::string axis_name, size_t n);

/// Every selected row satisfies `holds`; a failure names `field` and
/// states `promise`.
Invariant EachRow(RowFilter select, std::string field, RowFilter holds,
                  std::string promise);

/// Runs every invariant over one figure's rows; the failures carry
/// `figure`.
std::vector<InvariantFailure> CheckInvariants(
    const std::string& figure, const std::vector<Invariant>& invariants,
    const std::vector<ReportRow>& rows);

}  // namespace fairmatch::bench

#endif  // FAIRMATCH_BENCH_DRIVER_INVARIANTS_H_
