#include "smilab/core/paper_tables.h"

#include <string>

#include "smilab/core/sweep.h"

namespace smilab {

// Both builders split cell *execution* from row *formatting*: the grid of
// reported cells fans across the sweep pool (options.jobs; cells are
// independent once calibrated), results come back indexed by grid position,
// and the serial formatting pass below reads them in the original row
// order — so the rendered table is byte-identical at any job count. Each
// cell sweeps its own 3 x trials runs at the same jobs; those nested sweeps
// borrow the grid's pool, so a long cell's runs spread over the grid's
// threads as they free up (core/sweep.h).

Table build_nas_table(NasBenchmark bench, const std::vector<int>& node_rows,
                      int ranks_per_node, const NasRunOptions& options) {
  struct Row {
    NasClass cls;
    int nodes;
    NasJobSpec spec;
    bool reported = false;
    int cell = -1;  ///< index into `cells` when reported
  };
  std::vector<Row> rows;
  std::vector<NasJobSpec> reported;
  for (const NasClass cls : {NasClass::kA, NasClass::kB, NasClass::kC}) {
    for (const int nodes : node_rows) {
      NasJobSpec spec{bench, cls, nodes, ranks_per_node};
      if (!nas_valid_rank_count(bench, spec.ranks())) continue;
      Row row{cls, nodes, spec};
      if (nas_paper_reports(spec)) {
        row.reported = true;
        row.cell = static_cast<int>(reported.size());
        reported.push_back(spec);
      }
      rows.push_back(row);
    }
  }

  const ExperimentSweep sweep{options.jobs};
  const std::vector<NasCellResult> cells = sweep.map<NasCellResult>(
      static_cast<int>(reported.size()),
      [&](int i) { return run_nas_cell(reported[static_cast<std::size_t>(i)],
                                       options); });

  Table table{{"class", "nodes", "ranks", "SMM0", "SMM1", "d1", "%1", "SMM2",
               "d2", "%2", "paper %1", "paper %2"}};
  for (const Row& row : rows) {
    table.row()
        .cell(std::string{to_string(row.cls)})
        .cell(static_cast<long long>(row.nodes))
        .cell(static_cast<long long>(row.spec.ranks()));
    if (!row.reported) {
      for (int c = 0; c < 9; ++c) table.dash();
      continue;
    }
    const NasCellResult& cell = cells[static_cast<std::size_t>(row.cell)];
    const double b = cell.smm0.mean();
    const double s1 = cell.smm1.mean();
    const double s2 = cell.smm2.mean();
    table.cell(b).cell(s1).cell(s1 - b).cell((s1 / b - 1.0) * 100.0)
        .cell(s2).cell(s2 - b).cell((s2 / b - 1.0) * 100.0);
    if (const auto paper = nas_paper_cell(row.spec)) {
      table.cell(paper->short_pct()).cell(paper->long_pct());
    } else {
      table.dash().dash();
    }
  }
  return table;
}

Table build_htt_table(NasBenchmark bench, const NasRunOptions& options) {
  struct Row {
    NasJobSpec off;
    NasJobSpec on;
  };
  std::vector<Row> rows;
  for (const NasClass cls : {NasClass::kA, NasClass::kB, NasClass::kC}) {
    for (const int nodes : {1, 2, 4, 8, 16}) {
      NasJobSpec off{bench, cls, nodes, 4, /*htt=*/false};
      NasJobSpec on{bench, cls, nodes, 4, /*htt=*/true};
      if (!nas_valid_rank_count(bench, off.ranks())) continue;
      rows.push_back(Row{off, on});
    }
  }

  struct RowResult {
    NasCellResult off;
    NasCellResult on;
  };
  const ExperimentSweep sweep{options.jobs};
  const std::vector<RowResult> results = sweep.map<RowResult>(
      static_cast<int>(rows.size()), [&](int i) {
        const Row& row = rows[static_cast<std::size_t>(i)];
        // off first: both variants share one calibration (HTT does not
        // change the no-SMI runtime), matching the serial memo order.
        RowResult r;
        r.off = run_nas_cell(row.off, options);
        r.on = run_nas_cell(row.on, options);
        return r;
      });

  Table table{{"class", "nodes", "ranks", "SMM0 ht0", "SMM0 ht1", "d0",
               "SMM1 ht0", "SMM1 ht1", "d1", "SMM2 ht0", "SMM2 ht1", "d2",
               "d2 %", "paper d2 %"}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const NasCellResult& r_off = results[i].off;
    const NasCellResult& r_on = results[i].on;
    table.row()
        .cell(std::string{to_string(row.off.cls)})
        .cell(static_cast<long long>(row.off.nodes))
        .cell(static_cast<long long>(row.off.ranks()))
        .cell(r_off.smm0.mean())
        .cell(r_on.smm0.mean())
        .cell(r_on.smm0.mean() - r_off.smm0.mean())
        .cell(r_off.smm1.mean())
        .cell(r_on.smm1.mean())
        .cell(r_on.smm1.mean() - r_off.smm1.mean())
        .cell(r_off.smm2.mean())
        .cell(r_on.smm2.mean())
        .cell(r_on.smm2.mean() - r_off.smm2.mean())
        .cell((r_on.smm2.mean() / r_off.smm2.mean() - 1.0) * 100.0);
    const auto p_off = nas_paper_cell(row.off);
    const auto p_on = nas_paper_cell(row.on);
    if (p_off && p_on) {
      table.cell((p_on->smm2 / p_off->smm2 - 1.0) * 100.0);
    } else {
      table.dash();
    }
  }
  return table;
}

}  // namespace smilab
