// Output checks, run outside every timed interval:
//   * masks are 0/1 on the simulator grid;
//   * re-printing the returned masks (LithoSimulator::print_into +
//     evaluate) reproduces the reported Eq. 9 score exactly;
//   * every cached or routed response is memcmp-identical to the first
//     computed result for that layout in the run.
// A failed check counts toward the run's failures and fails the command.
#pragma once

#include <string>

#include "core/ldmo_flow.h"
#include "litho/simulator.h"

namespace perfbench {

/// Prints one failed check to stderr. The caller counts it as a failure.
void report_failure(const std::string& what);

/// Masks binary on the grid, and re-printing them reproduces the reported
/// score. Returns false (and reports why) on any mismatch.
bool check_printed_result(const ldmo::litho::LithoSimulator& simulator,
                          const ldmo::layout::Layout& layout,
                          const ldmo::core::LdmoResult& result,
                          const std::string& what);

/// memcmp identity of masks, response and chosen decomposition, plus exact
/// score equality.
bool identical_results(const ldmo::core::LdmoResult& a,
                       const ldmo::core::LdmoResult& b);

/// Flips one pixel of mask1 (the corruption drill behind --corrupt).
void corrupt_result(ldmo::core::LdmoResult& result);

}  // namespace perfbench
