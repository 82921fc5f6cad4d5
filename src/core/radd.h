// RaddGroup — the paper's RADD algorithms (§3) over one group of
// G + 1 + parities sites (G + 2 for the paper's single parity, G + 3 for
// the P+Q double-failure scheme), in a synchronous (direct-call) form
// with exact accounting of Table-1 operations. The message-driven protocol
// implementation that runs the same algorithms over the simulated network
// lives in core/node.h. Both engines decode, validate and encode rows
// through one codec (core/row_code.h), in which single parity is the
// one-leg case of P+Q: every path loops over the row's parity legs.
//
// The group is described by a member list: member m of the group is a
// LogicalDrive (site + block offset), so the same class serves both the
// simple one-group case (member m == site m, offset 0) and the §4
// heterogeneous assignment. All layout math (Fig. 1) treats member indices
// as the layout's "sites".
//
// Accounting rules (matching how Figure 3 counts):
//   * A read or write of a block at the client's own site costs R / W;
//     at any other site it costs RR / RW.
//   * Reading the *old* value of a block immediately before overwriting it
//     at the same site is free (the paper's "careful buffering of the old
//     data block can remove one of the reads").
//   * Asynchronous side effects — materializing a reconstructed value into
//     the spare, invalidating a spare after a recovering-site access — are
//     recorded in stats() but not charged to the triggering operation's
//     OpCounts, again matching Figure 3.

#ifndef RADD_CORE_RADD_H_
#define RADD_CORE_RADD_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/block.h"
#include "common/status.h"
#include "common/uid.h"
#include "layout/layout.h"
#include "layout/placement.h"
#include "sim/stats.h"

namespace radd {

/// Tuning knobs for a RADD group.
struct RaddConfig {
  /// The paper's G. The group then has G + 1 + parities members.
  int group_size = 8;
  /// Rotating parity roles per row: 1 is the paper's single XOR parity
  /// (G + 2 members); 2 adds the GF(256) Reed-Solomon Q parity
  /// (common/gf256.h) for double-failure tolerance — any two dead members
  /// per row remain decodable.
  int parities = 1;
  /// Physical rows per member used by this group.
  BlockNum rows = 60;
  size_t block_size = Block::kDefaultSize;

  /// Write the reconstructed value of a degraded read into the spare block
  /// so later reads cost one remote read (paper §3.2). Ablation: off.
  bool materialize_on_degraded_read = true;
  /// Ship parity updates as encoded change masks (§7.4) instead of full
  /// blocks. Affects byte accounting only; semantics are identical.
  bool use_change_masks = true;
  /// Attempts for UID-validated reconstruction before giving up with
  /// Inconsistent (§3.3 "the read was not consistent and must be retried").
  int max_reconstruct_attempts = 3;

  /// How the group's (member, row) -> role/address map is built
  /// (layout/placement.h). The default rotated placement is the paper's
  /// closed-form layout with G + 1 + parities members; declustered
  /// placement spreads rows over `placement.sites` members and supports
  /// online expansion.
  PlacementSpec placement;

  /// §7.2: "a smaller number of spare blocks can be allocated per site if
  /// the system administrator is willing to tolerate lower availability.
  /// ... Analyzing availability for lesser numbers of [spare] blocks is
  /// left as a future exercise." This knob is that exercise: only this
  /// fraction of rows carry a usable spare (spread evenly, Bresenham
  /// style). Rows without one cannot absorb writes while their home is
  /// down (the write blocks) and degraded reads always pay full
  /// reconstruction. Space overhead becomes (1 + fraction) / G. The
  /// synchronous RaddGroup only: the protocol (RaddNodeSystem, RaddVolume)
  /// keeps a spare in every row and refuses any other value.
  double spare_fraction = 1.0;
};

/// Outcome of a user read or write.
struct OpResult {
  Status status;
  /// Contents, for reads.
  Block data{0};
  /// UID stamped on / read from the block.
  Uid uid;
  /// Critical-path physical operations, Figure-3 style.
  OpCounts counts;

  bool ok() const { return status.ok(); }
};

/// One RADD group: G + 1 + parities members on distinct sites of a
/// Cluster.
class RaddGroup {
 public:
  /// Identity group: member m is site m with offset 0. The cluster must
  /// have at least G+2 sites with at least `config.rows` blocks each.
  RaddGroup(Cluster* cluster, const RaddConfig& config);

  /// Explicit member list (e.g. from GroupAssigner::AssignBlocks). Each
  /// member's drive must hold at least `config.rows` blocks; members must
  /// be on distinct sites. The list is checked with ValidateMembers: a
  /// malformed one (wrong count, shared sites, short drives, out-of-range
  /// block windows) aborts instead of silently corrupting unrelated rows.
  RaddGroup(Cluster* cluster, const RaddConfig& config,
            std::vector<LogicalDrive> members);

  /// Checks an explicit member list against the §4 preconditions without
  /// constructing a group: exactly G+2 members, all on distinct existing
  /// sites, every drive holding at least `config.rows` blocks, and every
  /// drive's block window within its site's disk system. Callers that
  /// assemble member lists dynamically (RaddVolume) surface this Status;
  /// the constructor aborts on it.
  static Status ValidateMembers(const Cluster& cluster,
                                const RaddConfig& config,
                                const std::vector<LogicalDrive>& members);

  const RaddConfig& config() const { return config_; }
  const PlacementMap& layout() const { return *map_; }
  Cluster* cluster() const { return cluster_; }
  int num_members() const { return map_->num_sites(); }
  /// Logical rows the group currently exposes (rotated: config().rows;
  /// table maps may expose more rows, each touching only n members, and
  /// the count grows when an expansion commits).
  BlockNum NumRows() const { return map_->NumRows(config_.rows); }

  /// Data blocks each member exposes.
  BlockNum DataBlocksPerMember() const {
    return map_->DataBlocksPerSite(config_.rows);
  }

  /// Site hosting member `m`.
  SiteId SiteOfMember(int m) const { return members_[size_t(m)].site; }
  /// First physical block of member `m`'s logical drive on its site.
  BlockNum FirstBlockOfMember(int m) const {
    return members_[size_t(m)].first_block;
  }
  /// Member hosted at `site`, or -1.
  int MemberAtSite(SiteId site) const;

  /// Reads data block `data_index` of member `home`, on behalf of a client
  /// running at site `client` (usually the member's own site; when the
  /// member's site is down the client is wherever the work migrated, §6).
  OpResult Read(SiteId client, int home, BlockNum data_index);

  /// Writes data block `data_index` of member `home`.
  OpResult Write(SiteId client, int home, BlockNum data_index,
                 const Block& new_data);

  /// Runs the recovery sweep for member `home` (paper §3.2's background
  /// process): drains valid spares back to the local disk, reconstructs
  /// lost data blocks, recomputes lost/stale parity blocks, clears lost
  /// spare blocks, then marks the site up. The member's site must be in
  /// the recovering state. Returns the physical ops performed.
  ///
  /// When the site hosts drives of several RADD groups (§4), each group
  /// runs its own sweep; pass mark_up = false for all but the last so the
  /// site stays in the recovering state until every group is done.
  Result<OpCounts> RunRecovery(int home, bool mark_up = true);

  /// One step of the recovery sweep: repairs member `home`'s block in
  /// `row` (drain spare / reconstruct data / rebuild parity / clear spare,
  /// by role), accumulating physical ops into `counts`. The incremental
  /// sweeper (core/sweeper.h) calls this a bounded number of times per
  /// tick; RunRecovery is the stop-the-world loop over all rows. The
  /// caller is responsible for ensuring the member's site is in the
  /// recovering state.
  Status RecoverRow(int home, BlockNum row, OpCounts* counts);

  /// Metadata-only verification scan for the end of a sweep: the first row
  /// at or after `from` that still needs recovery work — a valid spare
  /// shadowing `home`, or a lost local block — or `config().rows` when the
  /// member is clean and may be marked up. Parity freshness is not checked
  /// here (a swept parity row receives live updates and stays fresh; rows
  /// whose updates were dropped belong to ScrubParity).
  Result<BlockNum> FirstUnrecoveredRow(int home, BlockNum from = 0) const;

  /// Background scrubber: audits every row's parity against the XOR of
  /// its data blocks (and the UID array against the blocks' UIDs) and
  /// repairs any mismatch by recomputing the parity block — the on-line
  /// counterpart of the recovery sweep, for silent corruption and for
  /// rows whose parity updates were dropped while the parity site was
  /// down. Only rows whose members are all readable are audited. Returns
  /// the number of rows repaired.
  Result<int> ScrubParity(int parity_member);

  /// Data-side counterpart of ScrubParity: audits member `data_member`'s
  /// data blocks at an *up* site and repairs any that read as DataLoss —
  /// latent sector errors, checksum-detected silent corruption, residual
  /// loss — by formula-(2) reconstruction from the row's other blocks,
  /// restamping the logical UID from the parity array so the UID-agreement
  /// invariant holds afterwards. Rows whose sources are unavailable are
  /// skipped ("radd.scrub_skipped"). Returns the number of blocks
  /// repaired ("radd.scrub_data_repaired").
  Result<int> ScrubData(int data_member);

  /// Checks the group's global invariants; used by property tests.
  ///   * each parity leg == its encoding of the logical values of the
  ///     row's G data blocks (skipped when the leg's site is not up);
  ///   * each up data block's UID matches the parity UID array entry;
  ///   * valid spares shadow only blocks of non-up members.
  Status VerifyInvariants() const;

  // --- online expansion (declustered placement, single parity) ----------
  /// Starts adding `drive` as a new member of a live group: plans the
  /// minimal move set (layout/placement.h) and makes the member
  /// addressable. Rows, roles and capacity are unchanged until every move
  /// lands and the epoch flips. Fails for rotated placement (the closed
  /// forms admit no incremental growth — that is the point of the
  /// refactor) and for dual parity (Q coefficients are host-bound; out of
  /// scope).
  Status BeginExpansion(const LogicalDrive& drive);
  /// Migrates up to `max_moves` planned blocks. A move runs only when the
  /// donor, the new member and (for data blocks) the row's parity are up
  /// and the donor's copy is clean — UID equal to the parity array entry
  /// and no valid spare shadowing it; skipped moves are retried on later
  /// calls. When the last move lands the epoch flips and NumRows() grows.
  /// Returns the number of blocks moved by this call. Paced by the
  /// RecoverySweeper in autopilot mode; loop until ExpansionPending() is
  /// false for a stop-the-world expansion.
  Result<int> MigrateStep(int max_moves);
  bool ExpansionPending() const {
    return epoch_ != nullptr && epoch_->migrating();
  }
  /// Blocks physically moved / planned for the expansion in flight (or
  /// the last completed one).
  BlockNum ExpansionMovesDone() const { return expansion_moves_done_; }
  BlockNum ExpansionMovesPlanned() const { return expansion_moves_planned_; }

  /// Asynchronous side-effect and diagnostic counters:
  /// "radd.materialize", "radd.spare_invalidate", "radd.parity_dropped",
  /// "radd.reconstructions", "radd.uid_retry", "radd.bytes.parity",
  /// "radd.bytes.spare_write", ...
  const Stats& stats() const { return stats_; }
  Stats* mutable_stats() { return &stats_; }

 private:
  // --- addressing -------------------------------------------------------
  /// InvalidArgument unless `m` names a member.
  Status CheckMember(int m) const;
  /// InvalidArgument unless `home` is a member with data block `data_index`.
  Status CheckDataAddress(int home, BlockNum data_index) const;
  /// Flat physical block number on member m's site for row r. Only valid
  /// when m participates in the row (RoleOf != kNone).
  BlockNum Phys(int m, BlockNum row) const {
    return members_[size_t(m)].first_block +
           map_->AddressOf(static_cast<SiteId>(m), row);
  }
  Site* SiteOf(int m) const;
  SiteState StateOfMember(int m) const;
  /// True when member m's physical block for `row` is readable (site up or
  /// recovering and the block is not lost to a disk failure).
  bool BlockReadable(int m, BlockNum row) const;

  /// §3.3: true when a parity leg's UID array records a write for `home`
  /// that `local` does not carry and does not postdate — the local copy
  /// missed an update and must be reconstructed from the parity. Every leg
  /// with authority is consulted; any one superseding marks the copy stale.
  bool ParityEntrySupersedes(int home, BlockNum row, Uid local) const;
  /// Parity member `pm`'s UID-array entry for `home` in `row`; nullopt
  /// when the parity has no authority (site not up, block unreadable).
  std::optional<Uid> ParityEntry(int pm, int home, BlockNum row) const;
  /// True when parity member `pm` has authority and its array names a
  /// write for `home` other than `local`, the UID of `home`'s recovered
  /// copy: the leg missed a change the copy holds. A write whose legs
  /// split (one parity applied its delta, the other refused it as stale
  /// after the home's epoch moved), a home that crashed before flushing
  /// its delta, and a spare drained while its delta was in flight all
  /// leave such a copy; each one's retry diffs against the copy, so the
  /// lagging leg would never see the missed change.
  bool ParityLegLags(int pm, int home, BlockNum row, Uid local) const;
  /// ParityLegLags over the row's parity legs (P, and Q under P+Q).
  bool ParityLagsCopy(int home, BlockNum row, Uid local) const;
  /// Rebuilds, from the data as it now stands, each parity leg whose
  /// entry for `home` does not name `copy`, the UID of `home`'s value.
  Status ReconcileParityLegs(int home, BlockNum row, Uid copy,
                             OpCounts* counts);

  /// §7.2 spare thinning: whether `row` has a spare block at all.
  bool SpareExists(BlockNum row) const;
  /// The record of `row`'s spare while it shadows a member: the row has a
  /// spare, its site is not down, and the block reads with a valid UID.
  std::optional<BlockRecord> ValidSpare(BlockNum row) const;
  /// ValidSpare's metadata, read in place, for the callers that ask only
  /// whether the spare is live and which member it shadows.
  std::optional<BlockMeta> ValidSpareMeta(BlockNum row) const;

  // --- accounting -------------------------------------------------------
  void ChargeRead(SiteId client, int target_member, OpCounts* c) const;
  void ChargeWrite(SiteId client, int target_member, OpCounts* c) const;

  // --- protocol steps ---------------------------------------------------
  /// Reads member m's physical block of `row` (any role), returning the
  /// full record. Fails with DataLoss/Unavailable as appropriate.
  Result<BlockRecord> ReadPhys(int m, BlockNum row) const;

  /// Formula (2) reconstruction of member `home`'s block in `row` through
  /// the row codec, with §3.3 UID validation against each planned leg's
  /// UID array. Tolerates `home` plus as many more data erasures as the row
  /// has legs beyond the first. A leg decodes only while its site is up (a
  /// recovering parity has no authority until swept); a valid spare
  /// shadowing another data member stands in for its local copy. On
  /// success also reports the legs' array entry for `home` (the logical
  /// UID of the reconstructed value). Charges each block read into
  /// `counts`.
  struct Reconstructed {
    Block data{0};
    Uid logical_uid;
  };
  Result<Reconstructed> Reconstruct(SiteId client, int home, BlockNum row,
                                    OpCounts* counts);

  /// Applies a parity delta for member `home`'s block in `row` (steps
  /// W2-W4). `issuer` is the site sending the W3 message (the home site
  /// for normal writes, the spare site for degraded writes); the write is
  /// charged local/remote relative to it. If the parity site cannot accept
  /// the update (down or parity block lost) it is dropped and counted in
  /// stats ("radd.parity_dropped").
  void UpdateParity(SiteId issuer, int home, BlockNum row,
                    const ChangeMask& mask, Uid uid, OpCounts* counts);
  /// One leg of UpdateParity: applies `mask`, scaled by `coeff` (1 for the
  /// P leg, g^home for the Q leg), to parity member `pm`'s block.
  void ApplyParityLeg(SiteId issuer, int home, BlockNum row,
                      const ChangeMask& mask, Uid uid, OpCounts* counts,
                      int pm, uint8_t coeff);

  /// Recovery of parity leg `leg` (0 = P, 1 = Q) of `row`, hosted by
  /// member `home`: gathers every data member's logical value (spare
  /// shadow, local block, or decode via the other legs) and re-encodes the
  /// leg when it is lost or its UID array is stale.
  Status RebuildParityRow(int home, BlockNum row, OpCounts* counts, int leg);

  /// The degraded (home down / block lost) read path.
  OpResult DegradedRead(SiteId client, int home, BlockNum row);
  /// The recovering-site read path.
  OpResult RecoveringRead(SiteId client, int home, BlockNum row);
  /// The degraded (home down / block lost) write path, W1' + W2-W4.
  OpResult DegradedWrite(SiteId client, int home, BlockNum row,
                         const Block& new_data);

  /// One planned expansion move: copy the donor's record to the new
  /// member, zero the freed address, fix the parity UID array (data
  /// blocks), then flip the map. Returns false (skip, retry later) when a
  /// participant is unavailable or the donor's copy is not clean.
  bool TryApplyMove(int new_member, const PlacementMove& move);

  Cluster* cluster_;
  RaddConfig config_;
  std::shared_ptr<PlacementMap> map_;
  /// Non-null when map_ supports epoched expansion (declustered).
  EpochedPlacement* epoch_ = nullptr;
  std::vector<LogicalDrive> members_;
  std::deque<PlacementMove> pending_moves_;
  BlockNum expansion_moves_done_ = 0;
  BlockNum expansion_moves_planned_ = 0;
  Stats stats_;
};

}  // namespace radd

#endif  // RADD_CORE_RADD_H_
