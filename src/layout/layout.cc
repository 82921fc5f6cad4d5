#include "layout/layout.h"

#include <algorithm>
#include <numeric>

namespace radd {

std::string_view BlockRoleName(BlockRole role) {
  switch (role) {
    case BlockRole::kData:
      return "data";
    case BlockRole::kParity:
      return "parity";
    case BlockRole::kParityQ:
      return "q-parity";
    case BlockRole::kSpare:
      return "spare";
    case BlockRole::kNone:
      return "none";
  }
  return "?";
}

Result<std::vector<DriveGroup>> GroupAssigner::Assign(
    const std::vector<int>& drives_per_site) const {
  const int members = width_;
  long total = 0;
  int max_drives = 0;
  size_t max_site = 0;
  int sites_with_drives = 0;
  for (size_t j = 0; j < drives_per_site.size(); ++j) {
    int n = drives_per_site[j];
    if (n < 0) {
      return Status::InvalidArgument(
          "site " + std::to_string(j) + " has a negative drive count (" +
          std::to_string(n) + ")");
    }
    total += n;
    if (n > 0) ++sites_with_drives;
    if (n > max_drives) {
      max_drives = n;
      max_site = j;
    }
  }
  if (total == 0) {
    return Status::InvalidArgument(
        "no drives: all " + std::to_string(drives_per_site.size()) +
        " sites report zero drives");
  }
  if (total % members != 0) {
    return Status::InvalidArgument(
        "total drives " + std::to_string(total) + " across " +
        std::to_string(sites_with_drives) +
        " sites is not a multiple of the group width " +
        std::to_string(members));
  }
  const long a = total / members;  // the paper's constant A
  if (max_drives > a) {
    return Status::InvalidArgument(
        "site " + std::to_string(max_site) + " owns " +
        std::to_string(max_drives) + " of the " + std::to_string(total) +
        " drives, more than A = total/width = " + std::to_string(a) +
        " (width " + std::to_string(members) + ")");
  }
  if (sites_with_drives < members) {
    return Status::InvalidArgument(
        "only " + std::to_string(sites_with_drives) +
        " sites own drives; a group needs " + std::to_string(members) +
        " distinct sites");
  }

  // Remaining drive count per site; drives are handed out densely from
  // index 0, so site j's next drive is (initial - remaining).
  std::vector<int> remaining = drives_per_site;
  std::vector<DriveGroup> groups;
  groups.reserve(static_cast<size_t>(a));

  for (long round = 0; round < a; ++round) {
    // Pick the G+2 sites with the largest number of remaining drives,
    // breaking ties by site id (the paper allows arbitrary tie-breaks).
    std::vector<size_t> order(remaining.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&remaining](size_t x, size_t y) {
                       return remaining[x] > remaining[y];
                     });
    if (order.size() < static_cast<size_t>(members) ||
        remaining[order[static_cast<size_t>(members) - 1]] <= 0) {
      int still_own = 0;
      for (int r : remaining) {
        if (r > 0) ++still_own;
      }
      return Status::InvalidArgument(
          "only " + std::to_string(still_own) + " of " +
          std::to_string(remaining.size()) +
          " sites still own drives in round " + std::to_string(round) +
          " of " + std::to_string(a) + "; a group needs " +
          std::to_string(members));
    }
    DriveGroup group;
    for (int m = 0; m < members; ++m) {
      size_t site = order[static_cast<size_t>(m)];
      int drive_index = drives_per_site[site] - remaining[site];
      --remaining[site];
      LogicalDrive d;
      d.site = static_cast<SiteId>(site);
      d.first_block = static_cast<BlockNum>(drive_index);  // drive index;
      // callers slice actual block ranges via AssignBlocks.
      d.drive_blocks = 0;
      group.members.push_back(d);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

Result<std::vector<DriveGroup>> GroupAssigner::AssignBlocks(
    const std::vector<BlockNum>& blocks_per_site,
    BlockNum drive_blocks) const {
  if (drive_blocks == 0) {
    return Status::InvalidArgument("logical drive size must be > 0");
  }
  std::vector<int> drives(blocks_per_site.size());
  for (size_t j = 0; j < blocks_per_site.size(); ++j) {
    if (blocks_per_site[j] % drive_blocks != 0) {
      return Status::InvalidArgument(
          "site " + std::to_string(j) + " capacity " +
          std::to_string(blocks_per_site[j]) +
          " is not a multiple of the logical drive size " +
          std::to_string(drive_blocks));
    }
    drives[j] = static_cast<int>(blocks_per_site[j] / drive_blocks);
  }
  RADD_ASSIGN_OR_RETURN(std::vector<DriveGroup> groups, Assign(drives));
  for (DriveGroup& g : groups) {
    for (LogicalDrive& d : g.members) {
      d.first_block *= drive_blocks;  // drive index -> block offset
      d.drive_blocks = drive_blocks;
    }
  }
  return groups;
}

}  // namespace radd
