// Block roles and the heterogeneous-site grouping algorithm (paper §4).
// The rotated Fig. 1 layout itself is RotatedLayout (layout/placement.h),
// one of the PlacementMap implementations.

#ifndef RADD_LAYOUT_LAYOUT_H_
#define RADD_LAYOUT_LAYOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/status.h"
#include "common/uid.h"

namespace radd {

/// What a given physical block is used for at a given site. kNone means
/// the site does not participate in the row at all — impossible under the
/// rotated layout (every member appears in every row) but routine under
/// declustered placement, where each row touches only n of the C cluster
/// members (layout/placement.h).
enum class BlockRole { kData, kParity, kParityQ, kSpare, kNone };

std::string_view BlockRoleName(BlockRole role);

/// One logical drive: `drive_blocks` blocks carved out of a site's disk
/// system starting at `first_block` (paper §4's logical drives of size B).
struct LogicalDrive {
  SiteId site = 0;
  BlockNum first_block = 0;
  BlockNum drive_blocks = 0;
};

/// One RADD group produced by the §4 assignment: exactly G + 2 logical
/// drives, all on distinct sites.
struct DriveGroup {
  std::vector<LogicalDrive> members;
};

/// The §4 greedy grouping algorithm.
///
/// Given L sites with N[0..L-1] logical drives, where the total is
/// A * (G+2) and no site has more than A drives, packs the drives into A
/// groups of G+2 with all members on distinct sites: repeatedly take one
/// drive from each of the G+2 sites with the most remaining drives.
class GroupAssigner {
 public:
  /// `width` overrides the members-per-group count (declustered groups
  /// span more sites than the rotated G + 1 + parities); 0 = rotated
  /// width.
  explicit GroupAssigner(int group_size, int parities = 1, int width = 0)
      : g_(group_size),
        parities_(parities),
        width_(width > 0 ? width : group_size + 1 + parities) {}

  /// Assigns `drives_per_site[j]` drives of site j into groups. Fails with
  /// InvalidArgument when the paper's preconditions are violated (total
  /// not a multiple of G+2, or some site owning more than A drives, or
  /// fewer than G+2 sites with drives).
  Result<std::vector<DriveGroup>> Assign(
      const std::vector<int>& drives_per_site) const;

  /// §4 extension to non-uniform disk *sizes*: slices each site's
  /// `blocks_per_site[j]` blocks into logical drives of exactly
  /// `drive_blocks` blocks (must divide each site's total), then assigns.
  Result<std::vector<DriveGroup>> AssignBlocks(
      const std::vector<BlockNum>& blocks_per_site,
      BlockNum drive_blocks) const;

 private:
  int g_;
  int parities_;
  int width_;
};

}  // namespace radd

#endif  // RADD_LAYOUT_LAYOUT_H_
