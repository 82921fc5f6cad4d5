// Sites and cluster-wide state (paper §3.1).
//
// Each site owns a disk system (DiskArray) and a UID source, and is in one
// of three states: up, down, or recovering. Failures:
//   * disk failure     — site stays operational, moves up -> recovering,
//                        one disk's blocks are lost;
//   * temporary outage — site down, disks intact (stale on return);
//   * disaster         — site down, all disks lost on return.
//
// The paper assumes a protocol by which every site knows every other
// site's state [ABBA85] without elaborating; Cluster holds that state as an
// oracle (instantaneous, always correct), which is the paper's model. The
// protocol does not read it directly: SiteStatusService
// (cluster/status_service.h) answers every per-observer query and falls
// back to this state when no presumption or heartbeat suspicion
// (cluster/heartbeat.h) overrides it.

#ifndef RADD_CLUSTER_CLUSTER_H_
#define RADD_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/uid.h"
#include "disk/block_store.h"
#include "disk/disk.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace radd {

/// Operational state of a site (paper §3.1).
enum class SiteState { kUp, kDown, kRecovering };

std::string_view SiteStateName(SiteState s);

/// Shape of one site's disk system.
struct SiteConfig {
  int num_disks = 1;
  BlockNum blocks_per_disk = 64;
  size_t block_size = Block::kDefaultSize;
};

/// One computer system in the network.
class Site {
 public:
  Site(SiteId id, const SiteConfig& config)
      : id_(id),
        uids_(id),
        disks_(config.num_disks, config.blocks_per_disk, config.block_size),
        store_(std::make_unique<PlainStore>(&disks_)) {}

  SiteId id() const { return id_; }
  SiteState state() const { return state_; }
  void set_state(SiteState s) { state_ = s; }

  /// True while the site is down because of a disaster (all disks lost).
  /// Cleared by Cluster::RestoreSite, which re-poisons the array so the
  /// replacement hardware comes back blank (paper §3.1: "all disks lost
  /// on return") no matter what landed on the dead disks meanwhile.
  bool disaster_lost() const { return disaster_lost_; }
  void set_disaster_lost(bool v) { disaster_lost_ = v; }

  DiskArray* disks() { return &disks_; }
  const DiskArray& disks() const { return disks_; }
  UidGenerator* uids() { return &uids_; }

  /// The block device the distributed layer talks to. Defaults to the raw
  /// DiskArray; C-RAID installs a LocalRaid here instead.
  BlockStore* store() const { return store_.get(); }
  void set_store(std::unique_ptr<BlockStore> store) {
    store_ = std::move(store);
  }

 private:
  SiteId id_;
  SiteState state_ = SiteState::kUp;
  bool disaster_lost_ = false;
  UidGenerator uids_;
  DiskArray disks_;
  std::unique_ptr<BlockStore> store_;
};

/// The collection of sites plus failure injection.
class Cluster {
 public:
  /// Builds `num_sites` identical sites.
  Cluster(int num_sites, const SiteConfig& config);

  /// Builds heterogeneous sites (§4), one config per site.
  explicit Cluster(const std::vector<SiteConfig>& configs);

  int num_sites() const { return static_cast<int>(sites_.size()); }
  Site* site(SiteId id);
  const Site* site(SiteId id) const;

  /// Ground-truth state: the paper's assumption that every site knows
  /// every other site's state.
  SiteState StateOf(SiteId id) const;

  /// Temporary site failure: the site stops; its disks keep their
  /// (increasingly stale) contents.
  Status CrashSite(SiteId id);

  /// Site disaster: the site stops and all its disks are lost.
  Status DisasterSite(SiteId id);

  /// Disk failure at an up site: the site moves to recovering and disk
  /// `d`'s blocks are lost.
  Status FailDisk(SiteId id, int d);

  /// A down site comes back; it enters recovering. (The RADD controller's
  /// recovery sweep moves it to up.) A disaster-lost site is restored with
  /// *blank* disks: every block is re-marked lost at restore time, so stale
  /// pre-disaster contents — or anything written to the dead array during
  /// the outage — can only be served through reconstruction.
  Status RestoreSite(SiteId id);

  /// Marks a site fully recovered.
  Status MarkUp(SiteId id);

  /// Ids of all sites currently in the given state.
  std::vector<SiteId> SitesIn(SiteState s) const;

  /// Number of sites not up (down or recovering).
  int UnhealthySites() const;

 private:
  std::vector<std::unique_ptr<Site>> sites_;
};

}  // namespace radd

#endif  // RADD_CLUSTER_CLUSTER_H_
