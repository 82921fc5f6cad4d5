#include "core/volume.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

namespace radd {

Result<std::unique_ptr<RaddVolume>> RaddVolume::Create(
    Simulator* sim, Network* net, Cluster* cluster,
    const VolumeConfig& config) {
  if (config.drives_per_site.empty()) {
    return Status::InvalidArgument("volume has no drives");
  }
  if (config.group.spare_fraction != 1.0) {
    return Status::InvalidArgument(
        "the protocol keeps a spare in every row (spare_fraction must be 1)");
  }
  const BlockNum rows = config.group.rows;
  std::vector<BlockNum> blocks_per_site(config.drives_per_site.size());
  for (size_t j = 0; j < config.drives_per_site.size(); ++j) {
    if (config.drives_per_site[j] < 0) {
      return Status::InvalidArgument("negative drive count at site " +
                                     std::to_string(j));
    }
    blocks_per_site[j] =
        static_cast<BlockNum>(config.drives_per_site[j]) * rows;
  }
  const int width =
      PlacementGroupWidth(config.group.placement, config.group.group_size,
                          config.group.parities);
  GroupAssigner assigner(config.group.group_size, config.group.parities,
                         width);
  RADD_ASSIGN_OR_RETURN(std::vector<DriveGroup> assignment,
                        assigner.AssignBlocks(blocks_per_site, rows));

  // Validate every member list up front so a bad cluster shape surfaces
  // as a Status here instead of aborting inside the RaddGroup ctor.
  std::vector<GroupSpec> specs;
  specs.reserve(assignment.size());
  for (size_t g = 0; g < assignment.size(); ++g) {
    Status st = RaddGroup::ValidateMembers(*cluster, config.group,
                                           assignment[g].members);
    if (!st.ok()) {
      return Status::InvalidArgument("group " + std::to_string(g) + ": " +
                                     st.message());
    }
    specs.push_back(GroupSpec{config.group, assignment[g].members});
  }

  auto system = std::make_unique<RaddNodeSystem>(sim, net, cluster,
                                                 std::move(specs), config.node);

  // Per-site drive directory in LBA order. AssignBlocks hands each site's
  // drives out densely from offset 0, so ascending first_block is the
  // site's drive order.
  struct DriveRef {
    BlockNum first_block;
    SiteSlice slice;
  };
  std::vector<std::vector<DriveRef>> refs(config.drives_per_site.size());
  for (size_t g = 0; g < assignment.size(); ++g) {
    const std::vector<LogicalDrive>& members = assignment[g].members;
    for (size_t m = 0; m < members.size(); ++m) {
      const LogicalDrive& d = members[m];
      refs[static_cast<size_t>(d.site)].push_back(DriveRef{
          d.first_block,
          SiteSlice{static_cast<int>(g), static_cast<int>(m)}});
    }
  }
  std::vector<std::vector<SiteSlice>> slices(refs.size());
  for (size_t s = 0; s < refs.size(); ++s) {
    std::sort(refs[s].begin(), refs[s].end(),
              [](const DriveRef& x, const DriveRef& y) {
                return x.first_block < y.first_block;
              });
    slices[s].reserve(refs[s].size());
    for (const DriveRef& r : refs[s]) slices[s].push_back(r.slice);
  }

  const PlacementMap& map0 = system->group(0)->layout();
  const BlockNum data_per_drive = map0.DataBlocksPerSite(rows);
  // Capacity rounding (satellite of the placement layer): only whole
  // stripe cycles carry data, so a drive whose row count is not a
  // multiple of the stripe width strands its trailing partial cycle.
  // Surface the loss instead of dropping it silently.
  const BlockNum waste_per_drive = map0.CapacityWasteBlocks(rows);
  const BlockNum num_drives =
      static_cast<BlockNum>(assignment.size()) *
      static_cast<BlockNum>(width);
  system->mutable_stats()->Add("volume.capacity_waste_blocks",
                               waste_per_drive * num_drives);
  if (waste_per_drive > 0) {
    std::fprintf(
        stderr,
        "RaddVolume: capacity rounding strands %llu of %llu blocks per "
        "drive (trailing partial cycle of stripe width %d): %llu blocks "
        "across %llu drives\n",
        static_cast<unsigned long long>(waste_per_drive),
        static_cast<unsigned long long>(rows), map0.stripe_width(),
        static_cast<unsigned long long>(waste_per_drive * num_drives),
        static_cast<unsigned long long>(num_drives));
  }
  return std::unique_ptr<RaddVolume>(
      new RaddVolume(config, std::move(system), std::move(slices),
                     data_per_drive, waste_per_drive));
}

Status RaddVolume::AddDrive(int grp, SiteId site, BlockNum first_block,
                            BlockNum drive_blocks) {
  LogicalDrive d;
  d.site = site;
  d.first_block = first_block;
  d.drive_blocks = drive_blocks;
  Status st = system_->AddGroupMember(grp, d);
  if (!st.ok()) return st;
  if (static_cast<size_t>(site) >= slices_.size()) {
    slices_.resize(static_cast<size_t>(site) + 1);
  }
  slices_[static_cast<size_t>(site)].push_back(
      SiteSlice{grp, system_->group(grp)->num_members() - 1});
  return Status::OK();
}

RaddVolume::RaddVolume(VolumeConfig config,
                       std::unique_ptr<RaddNodeSystem> system,
                       std::vector<std::vector<SiteSlice>> slices,
                       BlockNum data_per_drive, BlockNum waste_per_drive)
    : config_(std::move(config)),
      system_(std::move(system)),
      slices_(std::move(slices)),
      data_per_drive_(data_per_drive),
      waste_per_drive_(waste_per_drive) {}

Result<RaddVolume::Target> RaddVolume::Resolve(SiteId site,
                                               BlockNum lba) const {
  if (static_cast<size_t>(site) >= slices_.size()) {
    return Status::InvalidArgument("site " + std::to_string(site) +
                                   " is outside the volume");
  }
  const std::vector<SiteSlice>& drives = slices_[static_cast<size_t>(site)];
  const BlockNum drive = lba / data_per_drive_;
  if (drive >= static_cast<BlockNum>(drives.size())) {
    return Status::InvalidArgument(
        "lba " + std::to_string(lba) + " beyond site " +
        std::to_string(site) + "'s " +
        std::to_string(static_cast<BlockNum>(drives.size()) *
                       data_per_drive_) +
        " data blocks");
  }
  const SiteSlice& s = drives[static_cast<size_t>(drive)];
  Target t;
  t.group = s.group;
  t.member = s.member;
  t.index = lba % data_per_drive_;
  return t;
}

BlockNum RaddVolume::DataBlocksAtSite(SiteId site) const {
  if (static_cast<size_t>(site) >= slices_.size()) return 0;
  return static_cast<BlockNum>(slices_[static_cast<size_t>(site)].size()) *
         data_per_drive_;
}

void RaddVolume::AsyncRead(SiteId client, SiteId site, BlockNum lba,
                           RaddNodeSystem::ReadCallback cb) {
  Result<Target> t = Resolve(site, lba);
  if (!t.ok()) {
    cb(t.status(), Block(0), 0);
    return;
  }
  system_->AsyncRead(client, t->group, t->member, t->index, std::move(cb));
}

void RaddVolume::AsyncWrite(SiteId client, SiteId site, BlockNum lba,
                            Block data,
                            RaddNodeSystem::WriteCallback cb) {
  Result<Target> t = Resolve(site, lba);
  if (!t.ok()) {
    cb(t.status(), 0);
    return;
  }
  system_->AsyncWrite(client, t->group, t->member, t->index, std::move(data),
                      std::move(cb));
}

RaddNodeSystem::TimedRead RaddVolume::Read(SiteId client, SiteId site,
                                           BlockNum lba) {
  Result<Target> t = Resolve(site, lba);
  if (!t.ok()) {
    RaddNodeSystem::TimedRead out;
    out.status = t.status();
    return out;
  }
  return system_->Read(client, t->group, t->member, t->index);
}

RaddNodeSystem::TimedWrite RaddVolume::Write(SiteId client, SiteId site,
                                             BlockNum lba,
                                             const Block& data) {
  Result<Target> t = Resolve(site, lba);
  if (!t.ok()) {
    RaddNodeSystem::TimedWrite out;
    out.status = t.status();
    return out;
  }
  return system_->Write(client, t->group, t->member, t->index, data);
}

Status RaddVolume::VerifyInvariants() const {
  for (int g = 0; g < system_->num_groups(); ++g) {
    Status st = system_->group(g)->VerifyInvariants();
    if (!st.ok()) {
      return Status::Internal("group " + std::to_string(g) + ": " +
                              st.message());
    }
  }
  return Status::OK();
}

}  // namespace radd
