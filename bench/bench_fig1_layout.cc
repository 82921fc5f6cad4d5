// Figure 1 reproduction: the logical layout of disk blocks for G = 4
// (six sites), printed exactly the way the paper draws it, followed by a
// G = 8 excerpt.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/format.h"
#include "layout/placement.h"

using namespace radd;

namespace {

void PrintLayout(int g, BlockNum rows) {
  RotatedLayout layout(g);
  TextTable t("The Logical Layout of Disk Blocks (G = " + std::to_string(g) +
              ")");
  std::vector<std::string> header = {""};
  for (int j = 0; j < layout.num_sites(); ++j) {
    header.push_back("S[" + std::to_string(j) + "]");
  }
  t.SetHeader(header);
  for (BlockNum row = 0; row < rows; ++row) {
    std::vector<std::string> cells = {"block " + std::to_string(row)};
    for (int j = 0; j < layout.num_sites(); ++j) {
      SiteId site = static_cast<SiteId>(j);
      switch (layout.RoleOf(site, row)) {
        case BlockRole::kParity:
          cells.push_back("P");
          break;
        case BlockRole::kParityQ:
          cells.push_back("Q");
          break;
        case BlockRole::kSpare:
          cells.push_back("S");
          break;
        case BlockRole::kData:
          cells.push_back(std::to_string(*layout.RowToData(site, row)));
          break;
        case BlockRole::kNone:
          cells.push_back("-");
          break;
      }
    }
    t.AddRow(cells);
  }
  t.Print();
}

}  // namespace

int main() {
  std::printf("Reproduction of paper Figure 1 (exact):\n\n");
  PrintLayout(4, 6);
  std::printf(
      "\nPer row: one parity block (P) at site K mod (G+2), one spare (S)\n"
      "at site (K+1) mod (G+2), and G data blocks numbered densely down\n"
      "each column. Verified cell-for-cell against the paper by\n"
      "LayoutFig1.ExactDataNumbering in tests/layout_test.cc.\n\n");
  std::printf("The same layout at the evaluation's G = 8 (first cycle):\n\n");
  PrintLayout(8, 10);

  // Capacity accounting (paper §3.1's composition of N*B blocks).
  RotatedLayout layout(8);
  BlockNum rows = 100;
  std::printf(
      "\nComposition of %llu physical blocks per site at G = 8:\n"
      "  data blocks   : %llu  (N*B*G/(G+2))\n"
      "  parity blocks : %llu  (N*B/(G+2))\n"
      "  spare blocks  : %llu  (N*B/(G+2))\n",
      static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(layout.DataBlocksPerSite(rows)),
      static_cast<unsigned long long>(rows / 10),
      static_cast<unsigned long long>(rows / 10));
  return 0;
}
