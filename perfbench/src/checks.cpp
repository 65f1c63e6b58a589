#include "checks.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

using namespace ldmo;

void report_failure(const std::string& what) {
  std::fprintf(stderr, "[check] FAIL %s\n", what.c_str());
}

namespace {

bool binary_on_grid(const GridF& mask, int n) {
  if (mask.height() != n || mask.width() != n) return false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    const double v = mask.data()[i];
    if (v != 0.0 && v != 1.0) return false;
  }
  return true;
}

bool same_bytes(const GridF& a, const GridF& b) {
  return a.height() == b.height() && a.width() == b.width() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

bool check_printed_result(const litho::LithoSimulator& simulator,
                          const layout::Layout& layout,
                          const core::LdmoResult& result,
                          const std::string& what) {
  if (result.failed || result.cancelled) {
    report_failure(what + ": run did not complete");
    return false;
  }
  const int n = simulator.grid_size();
  if (!binary_on_grid(result.ilt.mask1, n) ||
      !binary_on_grid(result.ilt.mask2, n)) {
    report_failure(what + ": masks are not 0/1 on the " + std::to_string(n) +
             "-px grid");
    return false;
  }
  GridF response;
  simulator.print_into(result.ilt.mask1, result.ilt.mask2, response);
  const double reprinted = simulator.evaluate(response, layout).score();
  const double reported = result.ilt.report.score();
  if (reprinted != reported) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ": re-printed score %.17g != reported %.17g", reprinted,
                  reported);
    report_failure(what + buf);
    return false;
  }
  return true;
}

bool identical_results(const core::LdmoResult& a, const core::LdmoResult& b) {
  return a.chosen == b.chosen && same_bytes(a.ilt.mask1, b.ilt.mask1) &&
         same_bytes(a.ilt.mask2, b.ilt.mask2) &&
         same_bytes(a.ilt.response, b.ilt.response) &&
         a.ilt.report.score() == b.ilt.report.score();
}

void corrupt_result(core::LdmoResult& result) {
  if (result.ilt.mask1.size() == 0) return;
  double& v = result.ilt.mask1.data()[result.ilt.mask1.size() / 2];
  v = 1.0 - v;
}

}  // namespace perfbench
