// Triple-patterning extension demo: a conflict triangle (three contacts
// with pairwise spacing below nmin) cannot be decomposed onto two masks —
// some pair always shares a mask and prints badly — but splits cleanly
// onto three.
#include <cstdio>

#include "layout/io.h"
#include "layout/layout.h"
#include "mpl/tpl.h"
#include "opc/ilt.h"

int main() {
  using namespace ldmo;

  litho::LithoConfig litho_cfg;
  litho_cfg.grid_size = 64;
  litho_cfg.pixel_nm = 16.0;
  const litho::LithoSimulator simulator(litho_cfg);

  // The canonical DPL-infeasible instance: a mutual-conflict triangle.
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({410, 400}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({545, 400}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({478, 518}, 65, 65));
  std::printf("Conflict triangle: 3 contacts, all pairwise gaps < 80nm\n\n");

  // TPL candidate generation (generalized Algorithm 1).
  const mpl::TplGenerationResult generated =
      mpl::generate_tpl_decompositions(l);
  std::printf("TPL generation: base coloring has %d residual conflicts, "
              "%zu canonical candidate(s)\n",
              generated.sp_coloring.conflict_count,
              generated.candidates.size());

  // Compare: best-possible DPL assignment vs the TPL assignment.
  opc::IltConfig ilt_cfg;
  ilt_cfg.max_iterations = 20;
  ilt_cfg.theta_m_anneal = 1.12;
  const opc::IltEngine dpl(simulator, ilt_cfg, 2);
  const opc::IltEngine tpl(simulator, ilt_cfg, 3);

  const opc::MplIltResult dpl_result = dpl.optimize_masks(l, {0, 1, 1});
  const opc::MplIltResult tpl_result =
      tpl.optimize_masks(l, generated.candidates[0]);

  std::printf("\n%-22s | %8s | %10s | %8s\n", "flow", "EPE#",
              "violations", "L2");
  std::printf("%-22s | %8d | %10d | %8.1f\n", "double patterning",
              dpl_result.report.epe.violation_count,
              dpl_result.report.violations.total(), dpl_result.report.l2);
  std::printf("%-22s | %8d | %10d | %8.1f\n", "triple patterning",
              tpl_result.report.epe.violation_count,
              tpl_result.report.violations.total(), tpl_result.report.l2);

  for (std::size_t m = 0; m < tpl_result.masks.size(); ++m)
    layout::write_pgm(tpl_result.masks[m],
                      "tpl_mask" + std::to_string(m + 1) + ".pgm");
  layout::write_pgm(tpl_result.response, "tpl_print.pgm");
  std::printf("\nWrote tpl_mask{1,2,3}.pgm and tpl_print.pgm\n");
  return 0;
}
