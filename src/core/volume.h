// RaddVolume — the §4 sharded data plane: N RADD groups running side by
// side over one shared Simulator/Network/Cluster, behind a volume-level
// address map.
//
// The paper's §4 packs heterogeneous sites' logical drives into many
// (G+2)-member groups; this layer is that assignment promoted to a
// first-class client API. Each site exposes a flat, site-local logical
// block address space (LBA); the volume translates (site, lba) to
// (group, member, data index) via the GroupAssigner output and routes
// client reads/writes through the shared RaddNodeSystem protocol stack.
//
// Why sharding matters (ROADMAP's scaling step): rows of different groups
// have disjoint member sets beyond the shared site, so reconstruction and
// recovery traffic after a site failure fans out across all the groups
// the site participates in instead of serializing through one parity
// chain — the same load-spreading that parity declustering targets.

#ifndef RADD_CORE_VOLUME_H_
#define RADD_CORE_VOLUME_H_

#include <memory>
#include <vector>

#include "core/node.h"
#include "core/radd.h"
#include "layout/layout.h"

namespace radd {

/// Shape of a volume: every logical drive holds exactly `group.rows`
/// physical blocks, site j contributes `drives_per_site[j]` drives, and
/// the §4 greedy assignment must pack them into whole groups (total a
/// multiple of G+2, no site owning more than total/(G+2) drives).
struct VolumeConfig {
  /// Per-group tuning; `rows` doubles as the logical drive size.
  RaddConfig group;
  /// drives_per_site[j] = logical drives site j contributes.
  std::vector<int> drives_per_site;
  /// Protocol-layer tuning shared by every group.
  NodeConfig node;
};

/// A multi-group RADD volume over one cluster.
class RaddVolume {
 public:
  /// Runs the §4 assignment and validates every produced member list
  /// against the cluster (distinct sites, row counts, disk windows);
  /// fails with InvalidArgument instead of constructing a partial volume.
  /// A `spare_fraction` other than 1 is refused the same way: the protocol
  /// keeps a spare in every row.
  static Result<std::unique_ptr<RaddVolume>> Create(Simulator* sim,
                                                    Network* net,
                                                    Cluster* cluster,
                                                    const VolumeConfig& config);

  /// Where a site-local logical block lives.
  struct Target {
    int group = 0;
    int member = 0;      // member index within the group
    BlockNum index = 0;  // data index within that member's drive
  };

  /// Translates site-local `lba` at `site` to its (group, member, index).
  /// LBAs are dense: drive d of the site covers
  /// [d * DataBlocksPerDrive(), (d+1) * DataBlocksPerDrive()).
  Result<Target> Resolve(SiteId site, BlockNum lba) const;

  /// Data blocks each logical drive exposes (whole layout cycles only).
  BlockNum DataBlocksPerDrive() const { return data_per_drive_; }
  /// Total data blocks site `site` exposes across all its drives.
  BlockNum DataBlocksAtSite(SiteId site) const;
  /// Physical blocks per drive lost to capacity rounding: the trailing
  /// partial stripe cycle DataBlocksPerDrive() drops. Also surfaced as
  /// the "volume.capacity_waste_blocks" system stat (volume-wide total)
  /// and a startup log line when non-zero.
  BlockNum CapacityWastePerDrive() const { return waste_per_drive_; }

  /// Online expansion: adds a drive at `site` to group `grp` of a live
  /// volume (RaddNodeSystem::AddGroupMember). The planned moves migrate
  /// through RaddGroup::MigrateStep — pace them with
  /// RecoverySweeper::StartMigration. Declustered groups only. The new
  /// member's rows become addressable through group-level operations once
  /// the epoch flips; the volume's LBA map keeps its creation-time shape.
  Status AddDrive(int grp, SiteId site, BlockNum first_block,
                  BlockNum drive_blocks);

  /// Volume-addressed client operations: resolve then route through the
  /// shared protocol stack. Resolution failures surface on the callback.
  void AsyncRead(SiteId client, SiteId site, BlockNum lba,
                 RaddNodeSystem::ReadCallback cb);
  void AsyncWrite(SiteId client, SiteId site, BlockNum lba, Block data,
                  RaddNodeSystem::WriteCallback cb);

  /// Blocking facades (run the simulator until completion).
  RaddNodeSystem::TimedRead Read(SiteId client, SiteId site, BlockNum lba);
  RaddNodeSystem::TimedWrite Write(SiteId client, SiteId site, BlockNum lba,
                                   const Block& data);

  /// Checks every group's global invariants (parity XOR, UID agreement,
  /// spare shadowing); first failure wins.
  Status VerifyInvariants() const;

  RaddNodeSystem* system() { return system_.get(); }
  int num_groups() const { return system_->num_groups(); }
  RaddGroup* group(int g) { return system_->group(g); }
  const VolumeConfig& config() const { return config_; }
  /// Groups hosting a drive of `site`, with the member index each; used by
  /// recovery to sweep every affected group when the site fails.
  struct SiteSlice {
    int group = 0;
    int member = 0;
  };
  const std::vector<SiteSlice>& slices_of(SiteId site) const {
    return slices_[static_cast<size_t>(site)];
  }

 private:
  RaddVolume(VolumeConfig config, std::unique_ptr<RaddNodeSystem> system,
             std::vector<std::vector<SiteSlice>> slices,
             BlockNum data_per_drive, BlockNum waste_per_drive);

  VolumeConfig config_;
  std::unique_ptr<RaddNodeSystem> system_;
  /// slices_[site] = this site's drives in LBA order (ascending
  /// first_block), each naming the group and member index it backs.
  std::vector<std::vector<SiteSlice>> slices_;
  BlockNum data_per_drive_;
  BlockNum waste_per_drive_;
};

}  // namespace radd

#endif  // RADD_CORE_VOLUME_H_
