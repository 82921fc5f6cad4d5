#include "core/node.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/gf256.h"
#include "core/row_code.h"
#include "disk/block_cache.h"
#include "net/transport.h"
#include "net/wire.h"

namespace radd {

// ===========================================================================
// Node: per-site server state.
// ===========================================================================

struct RaddNodeSystem::Node {
  RaddNodeSystem* sys;
  SiteId self;
  LockManager locks;

  // Pending server-side flows that needed a lock, by holder id.
  std::map<TxnId, std::function<void(TxnId)>> waiting;

  // Client operations issued from this site. Living in the Node keeps
  // them confined to the site's simulator shard (every reply and timer
  // for an op fires at its client site).
  std::map<uint64_t, PendingRead> reads;
  std::map<uint64_t, PendingWrite> writes;
  /// Per-site op-id counter for sharded runs (see NewOpId).
  uint64_t next_local_op = 1;

  Node(RaddNodeSystem* s, SiteId id)
      : sys(s),
        self(id),
        disk(s->sim_, s->node_config_.disk, s->node_config_.disk_sched),
        cache(s->node_config_.disk_sched.cache_blocks) {}

  Site* site() { return sys->cluster_->site(self); }
  BlockStore* store() { return site()->store(); }
  Simulator* sim() { return sys->sim_; }

  /// This site's slice of each group it belongs to: member index and the
  /// logical drive's block offset (group-local row r lives at physical
  /// block first_block + r). member == -1 when the site is not in the
  /// group.
  struct Local {
    int member = -1;
    BlockNum first_block = 0;
  };
  std::vector<Local> locals;

  /// Re-reads this site's slice of group `g` from the group's membership.
  void RefreshLocal(size_t g) {
    const RaddGroup* group = sys->groups_[g].get();
    const int m = group->MemberAtSite(self);
    locals[g] = Local{m, m >= 0 ? group->FirstBlockOfMember(m) : 0};
  }

  RaddGroup* grp(int g) { return sys->groups_[static_cast<size_t>(g)].get(); }
  const PlacementMap& lay(int g) { return grp(g)->layout(); }
  /// Physical block on this site holding group `g`'s row `row`. Under the
  /// rotated layout the address is the row itself; declustered tables
  /// permute it, and during expansion a row's block may have moved here.
  BlockNum phys(int g, BlockNum row) {
    const auto& local = locals[static_cast<size_t>(g)];
    return local.first_block +
           lay(g).AddressOf(static_cast<SiteId>(local.member), row);
  }
  /// This node's role in (group, row): kNone when the site is not in the
  /// group or (declustered) the row's stripe does not touch it. Every
  /// handler checks its expected role *before* the first phys() — under a
  /// table layout, AddressOf is undefined for a non-participant, and after
  /// an expansion move a message routed under the old tables must be
  /// bounced (StaleEpoch) so the sender re-resolves, not applied to
  /// whatever block now sits at the stale address.
  BlockRole RoleHere(int g, BlockNum row) {
    const int me = locals[static_cast<size_t>(g)].member;
    if (me < 0) return BlockRole::kNone;
    return lay(g).RoleOf(static_cast<SiteId>(me), row);
  }
  /// Counts and reports a message that reached a member whose layout role
  /// no longer matches (dead code under the rotated layout).
  Status Misroute(const char* what) {
    sys->stats_.Add("node.layout_misroute");
    return Status::StaleEpoch(what);
  }

  /// Node-unique ids for this node's parity waiters, reconstruction flows
  /// and lock holders (NewHolder). One client op can run several flows (a
  /// read retry, a spare write's per-leg decodes and their fallback), so
  /// no flow is keyed by op: a finished flow's straggler reply names an id
  /// nobody waits on any more. Per node, so ids stay deterministic under
  /// the sharded engine; never reset by a crash, so a pre-crash straggler
  /// cannot match a flow started after the restart.
  uint64_t next_flow_id = 1;
  uint64_t NewFlowId() { return next_flow_id++; }

  /// The one leg-usability rule (DESIGN.md §14): a parity leg serves a
  /// decode only while its site is up. A recovering parity may still hold
  /// sums that missed updates while it was down, for exactly the block
  /// being decoded, and §3.3 cannot expose that: the UID check holds the
  /// data replies against the parity's array, not the array against
  /// itself. The recovery sweep restores the leg's authority.
  bool LegUsable(int g, int member) {
    return sys->status_.Perceived(self, grp(g)->SiteOfMember(member)) ==
           SiteState::kUp;
  }
  /// A leg the parity send drops (its recovery recomputes the row).
  bool LegDown(int g, int member) {
    return sys->status_.Perceived(self, grp(g)->SiteOfMember(member)) ==
           SiteState::kDown;
  }

  /// The site's disk: spindle queues under the configured policy. The
  /// default (one spindle, FIFO) serves one request at a time, so
  /// operations queue behind each other — this is what makes parity-site
  /// contention (the §2 striping argument) observable. A crash Resets it:
  /// queued requests and in-flight completions die with the process.
  DiskScheduler disk;
  /// The site's §3.3-validated read cache; capacity 0 makes it a no-op.
  /// Local writes insert through it and local mutations it cannot mirror
  /// (spare records, parity masks, invalidations) evict eagerly; hits are
  /// re-validated against the store anyway, so both only keep the hit
  /// ratio up.
  BlockCache cache;
  /// Gray-failure multiplier on disk service time (1 = healthy).
  uint32_t disk_slow = 1;
  /// Charges a disk I/O of `units` block operations of `kind` at `addr`
  /// and runs `fn` when it completes; the request joins its spindle's
  /// queue under `cls`.
  void ScheduleDisk(IoClass cls, IoKind kind, BlockNum addr, uint32_t units,
                    Simulator::Callback fn) {
    disk.Submit(cls, kind, addr, units, disk_slow, std::move(fn));
  }

  /// Lock holder ids. Every lock-taking flow gets its own id, so two flows
  /// of one client op (a spare write mid-decode and the recovering home's
  /// take of that spare, or a request and its retransmission) queue like
  /// any other pair instead of sharing one hold. The high bits are the
  /// inverted op id: a later op is the older wait-die transaction, so it
  /// waits, and single-block flows cannot deadlock. The low bits, from
  /// NewFlowId, order one op's flows the same way; should they wrap
  /// between two of them, the later one dies and its client retries.
  static constexpr int kFlowBits = 12;
  TxnId NewHolder(uint64_t op) {
    assert(op >> (64 - kFlowBits) == 0);
    const uint64_t flow = NewFlowId() & ((uint64_t{1} << kFlowBits) - 1);
    return ~(op << kFlowBits | flow);
  }

  /// Runs `body(holder)` once a new flow of `op` holds `mode` on `block`:
  /// at once when granted, else when the holders ahead of it release.
  /// Returns false, without running `body`, when the flow dies: it met a
  /// holder that is older in wait-die order (a later op's flow). The
  /// caller undoes what it set up, and the client's retransmission starts
  /// the flow afresh.
  bool WithLock(uint64_t op, BlockNum block, LockMode mode,
                std::function<void(TxnId)> body) {
    const TxnId holder = NewHolder(op);
    switch (locks.Acquire(holder, LockKey{self, block}, mode)) {
      case LockResult::kGranted:
        body(holder);
        return true;
      case LockResult::kWait:
        sys->stats_.Add("node.lock_waits");
        waiting.emplace(holder, std::move(body));
        return true;
      case LockResult::kAbort:
        break;
    }
    sys->stats_.Add("node.lock_aborts");
    return false;
  }

  void Unlock(TxnId holder, BlockNum block) {
    for (TxnId granted : locks.Release(holder, LockKey{self, block})) {
      auto it = waiting.find(granted);
      if (it == waiting.end()) continue;
      auto resume = std::move(it->second);
      waiting.erase(it);
      resume(granted);
    }
  }

  void Send(SiteId to, MessageType type, Payload payload,
            size_t wire_bytes) {
    Message m;
    m.from = self;
    m.to = to;
    m.type = type;
    m.wire_bytes = wire_bytes + kWireHeader;
    m.payload = std::move(payload);
    if (sys->transport_ != nullptr) {
      sys->transport_->Send(std::move(m));
    } else {
      sys->net_->Send(std::move(m));
    }
  }

  // --- message handlers ---------------------------------------------------

  void OnReadReq(Message& msg) {
    auto req = std::get<ReadReq>(msg.payload);
    const SiteId from = msg.from;
    if (RoleHere(req.group, req.row) != BlockRole::kData) {
      ReadReply rep;
      rep.op = req.op;
      rep.status = Misroute("read reached a non-data member");
      Send(from, MessageType::kReadReply, std::move(rep), 0);
      return;
    }
    const BlockNum prow = phys(req.group, req.row);
    WithLock(req.op, prow, LockMode::kShared,
             [this, req, from, prow](TxnId holder) {
      if (const BlockCache::Entry* e = cache.Lookup(prow)) {
        // §3.3 rule: a hit is served only when the cached UID still
        // matches the store's current record — the same UID-agreement
        // test recovery uses. UIDs name writes, so a match means the
        // cached bytes are the last write's bytes even if rebuilds or
        // drains touched the store behind us. The peek is metadata-only
        // (the paper's free buffered check) and costs no disk time.
        Result<BlockMeta> cur = store()->PeekMeta(prow);
        if (cur.ok() && cur->uid.valid() && cur->uid == e->uid) {
          cache.CountHit();
          ReadReply rep;
          rep.op = req.op;
          rep.status = Status::OK();
          rep.data = e->data;
          rep.uid = e->uid;
          Unlock(holder, prow);
          size_t wire = rep.data.size();
          Send(from, MessageType::kReadReply, std::move(rep), wire);
          return;
        }
        cache.CountStale();
        cache.Invalidate(prow);
      }
      ScheduleDisk(IoClass::kForeground, IoKind::kRead, prow, 1,
                   [this, req, from, prow, holder]() {
        ReadReply rep;
        rep.op = req.op;
        Result<BlockRecord> rec = store()->Read(prow);
        if (rec.ok()) {
          rep.status = Status::OK();
          rep.data = std::move(rec->data);
          rep.uid = rec->uid;
          // Fill on read: plain valid data blocks only (spare records
          // carry bookkeeping the cache does not model).
          if (rep.uid.valid() && rec->spare_for < 0) {
            cache.Insert(prow, rep.data, rep.uid);
          }
        } else {
          rep.status = rec.status();
        }
        Unlock(holder, prow);
        size_t wire = rep.status.ok() ? rep.data.size() : 0;
        Send(from, MessageType::kReadReply, std::move(rep), wire);
      });
    });
  }

  /// Write flows already seen, keyed by op id. nullopt while in flight;
  /// the final reply once done (so a retried request replays the answer
  /// instead of spawning a duplicate flow with a fresh UID).
  std::map<uint64_t, std::optional<WriteReply>> write_flows;

  /// Returns true when the request is a duplicate and was handled.
  bool DedupeWrite(uint64_t op, SiteId reply_to, MessageType reply_type) {
    auto it = write_flows.find(op);
    if (it == write_flows.end()) {
      write_flows[op] = std::nullopt;  // first sighting: mark in flight
      return false;
    }
    sys->stats_.Add("node.write_duplicate");
    if (it->second.has_value()) {
      Send(reply_to, reply_type, *it->second, 0);  // replay the reply
    }
    // else: the original flow is still running; its reply will come.
    return true;
  }

  void CompleteWrite(uint64_t op, SiteId reply_to, MessageType reply_type,
                     WriteReply reply) {
    write_flows[op] = reply;
    Send(reply_to, reply_type, std::move(reply), 0);
  }

  /// Surfaces a write's parity failure. A stale-epoch refusal is retryable
  /// and side-effect-free from the client's view — its restamped retry
  /// must run a fresh flow — so it is not recorded in the dedupe table.
  void FailWrite(uint64_t op, SiteId reply_to, MessageType reply_type,
                 Status st) {
    if (st.IsStaleEpoch()) {
      write_flows.erase(op);
      Send(reply_to, reply_type, WriteReply{op, std::move(st)}, 0);
      return;
    }
    CompleteWrite(op, reply_to, reply_type, WriteReply{op, std::move(st)});
  }

  void OnWriteReq(Message& msg) {
    // Take the payload (it carries a full block): this delivery is its
    // final stop, so the flow below owns the buffer without a copy.
    WriteReq req = std::move(std::get<WriteReq>(msg.payload));
    const SiteId from = msg.from;
    if (DedupeWrite(req.op, from, MessageType::kWriteReply)) return;
    if (req.deadline != 0 && sim()->Now() > req.deadline) {
      // Zombie: a long-delayed retransmission of a write whose client has
      // provably given up. Applying it could roll the block back past a
      // newer acknowledged write.
      sys->stats_.Add("node.write_expired");
      sys->arena_.Return(std::move(req.data));
      return;
    }
    if (!sys->CheckMemberEpoch(req.group, req.home, req.home_epoch).ok()) {
      // The client stamped a view of this site that has since transitioned
      // (we cycled down -> recovering behind its back). No side effects
      // have happened, so forget the flow marker: the client's restamped
      // retry must start a fresh flow, not replay this rejection.
      sys->stats_.Add("node.stale_epoch_rejected");
      write_flows.erase(req.op);
      Send(from, MessageType::kWriteReply,
           WriteReply{req.op, Status::StaleEpoch("write epoch")}, 0);
      sys->arena_.Return(std::move(req.data));
      return;
    }
    if (RoleHere(req.group, req.row) != BlockRole::kData) {
      // An expansion moved this row's block off this member after the
      // client resolved its host. No side effects yet: drop the flow
      // marker so the client's re-resolved retry starts fresh.
      write_flows.erase(req.op);
      Send(from, MessageType::kWriteReply,
           WriteReply{req.op, Misroute("write reached a non-data member")},
           0);
      sys->arena_.Return(std::move(req.data));
      return;
    }
    SiteState state = site()->state();
    // A lost block at a recovering site is written through the spare; tell
    // the client to take the degraded path.
    if (state == SiteState::kRecovering &&
        !store()->PeekMeta(phys(req.group, req.row)).ok()) {
      // Not a completed write: the client will redirect to the spare, so
      // forget the flow marker (the spare node dedupes the redirect).
      write_flows.erase(req.op);
      Send(from, MessageType::kWriteReply,
           WriteReply{req.op, Status::Unavailable("block lost")}, 0);
      return;
    }
    const uint64_t op = req.op;
    const BlockNum prow = phys(req.group, req.row);
    const bool live = WithLock(
        op, prow, LockMode::kExclusive,
        [this, req = std::move(req), from](TxnId holder) mutable {
      if (site()->state() == SiteState::kRecovering) {
        // The spare may hold a newer value (writes we missed while down):
        // fetch-and-invalidate it for a correct parity delta.
        int sm = static_cast<int>(lay(req.group).SpareSite(req.row));
        SiteId spare_site = grp(req.group)->SiteOfMember(sm);
        Send(spare_site, MessageType::kSpareTakeReq,
             SpareTakeReq{req.op, req.group, req.home, req.row}, 0);
        // Continuation lives in OnSpareTakeReply via pending write state.
        sys->stats_.Add("node.recovering_spare_fetch");
        uint64_t op = req.op;
        pending_local_writes.emplace(
            op, PendingLocalWrite{std::move(req), from, holder});
        // The spare can die between this request and its reply; without a
        // bound the flow would hold the row lock forever (and keep the
        // system from ever quiescing). Give up after the client's own
        // give-up horizon: by then nobody is waiting for this flow.
        sim()->Schedule(
            static_cast<SimTime>(sys->node_config_.max_retries + 1) * 4 *
                sys->node_config_.retry_timeout,
            [this, op]() {
              auto it = pending_local_writes.find(op);
              if (it == pending_local_writes.end()) return;
              sys->stats_.Add("node.spare_fetch_timeout");
              BlockNum prow =
                  phys(it->second.req.group, it->second.req.row);
              const TxnId holder = it->second.holder;
              pending_local_writes.erase(it);
              write_flows.erase(op);
              Unlock(holder, prow);
            });
        return;
      }
      ApplyLocalWrite(std::move(req), from, holder,
                      /*old_override=*/std::nullopt);
    });
    // A flow that died had no side effect: forget it, so the client's
    // retry starts afresh instead of waiting on it as a duplicate.
    if (!live) write_flows.erase(op);
  }

  struct PendingLocalWrite {
    WriteReq req;
    SiteId reply_to;
    TxnId holder;
  };
  std::map<uint64_t, PendingLocalWrite> pending_local_writes;

  void OnSpareTakeReply(Message& msg) {
    auto& rep = std::get<SpareReadReply>(msg.payload);
    auto it = pending_local_writes.find(rep.op);
    if (it == pending_local_writes.end()) return;
    PendingLocalWrite plw = std::move(it->second);
    pending_local_writes.erase(it);
    std::optional<Block> old;
    if (rep.status.ok()) old = std::move(rep.data);
    ApplyLocalWrite(std::move(plw.req), plw.reply_to, plw.holder,
                    std::move(old));
  }

  void ApplyLocalWrite(WriteReq req, SiteId reply_to, TxnId holder,
                       std::optional<Block> old_override) {
    const BlockNum addr = phys(req.group, req.row);
    ScheduleDisk(IoClass::kForeground, IoKind::kWrite, addr, 1,
                 [this, req = std::move(req), reply_to, holder,
                  old_override = std::move(old_override)]() mutable {
      // The old value lives only until the diff below: lease its buffer.
      Block old_value(0);
      const BlockNum prow = phys(req.group, req.row);
      if (old_override) {
        old_value = std::move(*old_override);
      } else {
        Result<BlockRecord> old = store()->Peek(prow);
        if (old.ok()) {
          old_value = std::move(old->data);
        } else if (old.status().IsDataLoss()) {
          // The old contents are unreadable (latent sector error, detected
          // corruption, dead disk) but parity still encodes them. Diffing
          // against a blank would shift parity by the lost contents, and
          // every later reconstruction of this row would return torn data.
          // Rebuild the delta base from peers first — same first-write
          // penalty the spare path pays in OnSpareWriteReq.
          sys->stats_.Add("node.write_old_reconstructed");
          const int g = req.group;
          const int home = req.home;
          const BlockNum row = req.row;
          StartReconstruction(
              g, home, row,
              [this, req = std::move(req), reply_to, holder, prow](
                  Status st, Block base, Uid) mutable {
                if (!st.ok()) {
                  Unlock(holder, prow);
                  CompleteWrite(req.op, reply_to, MessageType::kWriteReply,
                                WriteReply{req.op, st});
                  return;
                }
                ApplyLocalWrite(std::move(req), reply_to, holder,
                                std::move(base));
              });
          return;
        } else {
          old_value = sys->arena_.Lease();
        }
      }
      Uid uid = site()->uids()->Next();
      Status st = store()->Write(prow, req.data, uid);
      if (!st.ok()) {
        Unlock(holder, prow);
        CompleteWrite(req.op, reply_to, MessageType::kWriteReply,
                      WriteReply{req.op, st});
        return;
      }
      cache.Insert(prow, req.data, uid);
      // The payload outlives the local write: until the parity ack the
      // recovery sweep may rebuild this block from pre-update parity (disk
      // failure mid-flight), and the §5 ack promises durability, so the
      // commit check below must be able to re-assert the data.
      auto payload = std::make_shared<Block>(std::move(req.data));
      bool invalidate_spare = old_override.has_value();
      const uint64_t op = req.op;
      const int g = req.group;
      const int home = req.home;
      const BlockNum row = req.row;
      // The row lock is released as soon as the local write and its staged
      // mask are in place: parity deltas for the same row XOR-merge
      // associatively (formula 1), so the next writer may chain
      // immediately and its delta coalesces into the same entry. The
      // client's completion still waits for the batch ack (§5's commit
      // condition). The local copy may now run ahead of the entry in
      // flight; CheckBatchEntry and HoldsChange keep the parity exact.
      // The recovering path keeps the lock until the ack because it also
      // invalidates the spare.
      const bool early_unlock = !invalidate_spare;
      SendParityLegs(
          g, home, row, *payload, {&old_value, &old_value}, uid,
          [this, op, g, home, row, prow, uid, reply_to, invalidate_spare,
           early_unlock, holder, payload]() {
            // §5 commit check: between the local write and the parity ack
            // the recovery sweep may have rebuilt this block from a
            // pre-update source (reconstruction from parity that had not
            // yet applied our delta, or a drain of the spare this flow
            // fetched). The parity now carries the update, so the ack is
            // honest only if the local copy does too.
            Result<BlockMeta> now = store()->PeekMeta(prow);
            bool clobbered = false;
            if (!now.ok()) {
              clobbered = now.status().IsDataLoss();
            } else if (now->uid != uid) {
              // A same-site UID with a higher sequence is a later local
              // writer (the lock is released at staging) — leave it.
              // A foreign UID is drained spare content: stale only in the
              // recovering flow, where it is the value we superseded.
              clobbered = !now->uid.valid() ||
                          (now->uid.site() == self &&
                           now->uid.sequence() < uid.sequence()) ||
                          (now->uid.site() != self && invalidate_spare);
            }
            if (clobbered) {
              (void)store()->Write(prow, *payload, uid);
              cache.Insert(prow, *payload, uid);
              sys->stats_.Add("node.write_reasserted");
            }
            sys->arena_.Return(std::move(*payload));
            if (invalidate_spare) {
              // The local copy is now authoritative (§3.2 side effect).
              Send(grp(g)->SiteOfMember(
                       static_cast<int>(lay(g).SpareSite(row))),
                   MessageType::kSpareInvalidate,
                   SpareTakeReq{op, g, home, row}, 0);
            }
            if (!early_unlock) Unlock(holder, prow);
            CompleteWrite(op, reply_to, MessageType::kWriteReply,
                          WriteReply{op, Status::OK()});
          },
          [this, op, prow, reply_to, early_unlock, holder,
           payload](Status st) {
            sys->arena_.Return(std::move(*payload));
            // Retransmission exhausted or parity nacked: release the lock
            // and surface the failure instead of holding the row hostage.
            if (!early_unlock) Unlock(holder, prow);
            FailWrite(op, reply_to, MessageType::kWriteReply, std::move(st));
          });
      sys->arena_.Return(std::move(old_value));
      if (early_unlock) Unlock(holder, prow);
    });
  }

  void OnSpareInvalidate(const Message& msg) {
    auto req = std::get<SpareTakeReq>(msg.payload);
    if (RoleHere(req.group, req.row) != BlockRole::kSpare) {
      // Fire-and-forget: a misrouted invalidation is simply dropped; the
      // spare's real host still carries the spare_for check.
      (void)Misroute("spare invalidate reached a non-spare member");
      return;
    }
    ScheduleDisk(IoClass::kRecovery, IoKind::kWrite,
                 phys(req.group, req.row), 1, [this, req]() {
      const BlockNum prow = phys(req.group, req.row);
      Result<BlockMeta> rec = store()->PeekMeta(prow);
      if (rec.ok() && rec->spare_for == req.home) {
        (void)store()->Invalidate(prow);
        cache.Invalidate(prow);
        sys->stats_.Add("node.spare_invalidated");
      }
    });
  }

  /// Waiter of one write's parity legs: `done` runs once every staged leg's
  /// batch entry is acknowledged (a leg whose parity site is down is not
  /// staged: its recovery will recompute the row). If a batch's
  /// retransmission is exhausted or a parity site refuses an entry (stale
  /// epoch, misroute), the first such cause goes to `fail` once every leg
  /// has resolved, so the write surfaces a retryable failure rather than
  /// hanging with its lock held. Keyed by a NewFlowId, shared by the legs.
  struct ParityWait {
    std::function<void()> done;
    std::function<void(Status)> fail;
    int legs = 1;   ///< staged legs not yet resolved
    int tries = 0;  ///< per-entry retries spent (refusals, restamps)
    Status error = Status::OK();  ///< first leg failure
  };
  std::map<uint64_t, ParityWait> parity_done;

  /// Stages the write `old -> data` on every parity leg of `row` (§5's
  /// commit condition spans all of them). `old[leg]` is the home's previous
  /// value as that leg encodes it: the same block for every leg on the
  /// data path, one per leg on the P+Q spare path. Both legs ship the raw
  /// data delta; a Q site folds in its GF(256) coefficient on apply.
  void SendParityLegs(int g, int home, BlockNum row, const Block& data,
                      const std::array<const Block*, 2>& old, Uid uid,
                      std::function<void()> done,
                      std::function<void(Status)> fail) {
    const ParityLegs legs = lay(g).LegsOf(row);
    const uint64_t waiter = NewFlowId();
    const uint64_t home_epoch =
        sys->status_.Epoch(grp(g)->SiteOfMember(home));
    int staged = 0;
    for (int leg = 0; leg < legs.count; ++leg) {
      const SiteId parity_site = grp(g)->SiteOfMember(legs[leg]);
      if (LegDown(g, static_cast<int>(legs[leg]))) {
        sys->stats_.Add("node.parity_dropped");
        continue;
      }
      // Stage the mask (DESIGN.md §10): same-row updates XOR-merge in the
      // coalescer and one batched frame carries the lot. Acks never arrive
      // synchronously, so the waiter can be registered after the loop.
      Result<ChangeMask> mask = ChangeMask::Diff(*old[static_cast<size_t>(leg)],
                                                 data);
      staging[{g, parity_site}].Add(row, home, std::move(*mask), uid,
                                    home_epoch, waiter);
      sys->stats_.Add("node.parity_staged");
      ++staged;
      MaybeFlush(g, parity_site);
    }
    if (staged == 0) {
      done();
      return;
    }
    parity_done[waiter] = ParityWait{std::move(done), std::move(fail), staged};
  }

  // --- parity pipeline (DESIGN.md §10) ------------------------------------
  //
  // Sender side: SendParityLegs stages masks into a per-parity-site
  // ParityCoalescer; FlushParity drains the eligible entries into one
  // ParityBatchFrame when an op-count / byte / delay threshold trips (with
  // batching off, a threshold of one op and no delay: every update flushes
  // on its own). At most one in-flight update per (row, position) key:
  // entries whose key rides an unacked batch stay staged (blocked) and
  // flush when that batch resolves, so reordered frames can never leave
  // the parity UID array pointing at a stale merge.

  /// Wire cost of one batch entry's framing (row, position, epoch, UID) —
  /// cheaper than a full kWireHeader because the entries share the
  /// frame's addressing and sequencing.
  static constexpr size_t kBatchEntryHeader = 24;

  /// Staging is keyed by (group, parity site): a frame addresses one
  /// group's layout, so coalescers — and the blocked-key rule — must never
  /// mix groups even when two groups share a parity site.
  using BatchKey = std::pair<int, SiteId>;
  std::map<BatchKey, ParityCoalescer> staging;
  std::map<BatchKey, uint64_t> flush_timers;  // (group, parity site) -> timer
  uint64_t next_batch_seq = 1;
  struct InFlightBatch {
    int group = 0;
    SiteId parity_site = 0;
    std::vector<ParityCoalescer::Entry> entries;
    int tries = 0;
    uint64_t timer = 0;
  };
  std::map<uint64_t, InFlightBatch> batches;       // batch_seq -> batch
  /// Keys on the wire, per (group, parity site).
  std::map<BatchKey, std::set<ParityCoalescer::Key>> inflight_keys;

  /// Receiver side: per-sender batch sequence numbers already processed.
  /// nullopt while the apply is in flight; the recorded ack once done, so
  /// a duplicated frame replays the answer instead of re-XORing masks.
  std::map<SiteId, std::map<uint64_t, std::optional<ParityBatchAck>>>
      batch_seen;

  /// Resolves one leg of a parity waiter (ack fanout); the waiter fires
  /// once its last leg resolves, and the first failure wins.
  void ResolveParityOp(uint64_t waiter, Status st) {
    auto it = parity_done.find(waiter);
    if (it == parity_done.end()) return;
    if (!st.ok() && it->second.error.ok()) it->second.error = std::move(st);
    if (--it->second.legs > 0) return;
    ParityWait wait = std::move(it->second);
    parity_done.erase(it);
    if (wait.error.ok()) {
      wait.done();
    } else if (wait.fail) {
      wait.fail(std::move(wait.error));
    }
  }

  void MaybeFlush(int g, SiteId parity_site) {
    const BatchKey bk{g, parity_site};
    auto sit = staging.find(bk);
    if (sit == staging.end() || sit->second.empty()) return;
    const ParityBatchConfig& pb = sys->node_config_.parity_batch;
    if (sit->second.op_count() >= static_cast<size_t>(pb.max_ops) ||
        sit->second.staged_bytes() >= pb.max_bytes) {
      FlushParity(g, parity_site);
      return;
    }
    if (flush_timers.count(bk)) return;  // already armed
    flush_timers[bk] =
        sim()->Schedule(pb.max_delay, [this, g, parity_site]() {
          flush_timers.erase(BatchKey{g, parity_site});
          FlushParity(g, parity_site);
        });
  }

  void FlushParity(int g, SiteId parity_site) {
    const BatchKey bk{g, parity_site};
    auto tit = flush_timers.find(bk);
    if (tit != flush_timers.end()) {
      sim()->Cancel(tit->second);
      flush_timers.erase(tit);
    }
    auto sit = staging.find(bk);
    if (sit == staging.end() || sit->second.empty()) return;
    std::vector<ParityCoalescer::Entry> entries =
        sit->second.TakeEligible(inflight_keys[bk]);
    // All staged keys blocked behind in-flight batches: they flush when
    // those batches resolve (ack, nacked-entry retry, or give-up).
    if (entries.empty()) return;
    const uint64_t seq = next_batch_seq++;
    for (const ParityCoalescer::Entry& e : entries) {
      inflight_keys[bk].insert(e.key());
    }
    InFlightBatch b;
    b.group = g;
    b.parity_site = parity_site;
    b.entries = std::move(entries);
    batches.emplace(seq, std::move(b));
    sys->stats_.Add("node.batches_sent");
    TransmitBatch(seq);
  }

  void TransmitBatch(uint64_t seq) {
    auto it = batches.find(seq);
    if (it == batches.end()) return;
    InFlightBatch& b = it->second;
    ParityBatchFrame frame;
    frame.batch_seq = seq;
    frame.group = b.group;
    frame.entries.reserve(b.entries.size());
    size_t wire = 0;
    for (const ParityCoalescer::Entry& e : b.entries) {
      ParityBatchEntry w;
      w.row = e.row;
      w.position = e.position;
      // Deliberately NOT restamped per transmit: the stamp records which
      // membership view the delta was diffed under. If the home's epoch
      // has moved since (say its disk failed and recovery rebuilt the row
      // from parity), applying this delta would corrupt the rebuilt
      // parity; the receiver must see the stale stamp and refuse, and
      // OnParityBatchAck decides whether the change is still owed.
      w.home_epoch = e.home_epoch;
      w.uid = e.uid;
      w.wire_bytes = e.encoded_bytes;
      w.delta = sys->arena_.LeaseCopyOf(e.delta);
      wire += kBatchEntryHeader + e.encoded_bytes;
      frame.entries.push_back(std::move(w));
    }
    Send(b.parity_site, MessageType::kParityBatch, std::move(frame), wire);
    // The receiver's apply is charged one disk write per entry, so the ack
    // deadline must grow with the frame or large batches time out even on
    // a healthy network.
    const SimTime timeout =
        sys->node_config_.retry_timeout +
        sys->node_config_.disk.write_latency *
            static_cast<SimTime>(b.entries.size());
    b.timer = sim()->Schedule(
        timeout, [this, seq]() {
          auto bit = batches.find(seq);
          if (bit == batches.end()) return;  // acked meanwhile
          if (++bit->second.tries > sys->node_config_.max_retries) {
            sys->stats_.Add("node.batch_gave_up");
            InFlightBatch dead = std::move(bit->second);
            batches.erase(bit);
            const BatchKey bk{dead.group, dead.parity_site};
            for (ParityCoalescer::Entry& e : dead.entries) {
              inflight_keys[bk].erase(e.key());
              for (uint64_t op : e.ops) {
                ResolveParityOp(
                    op, Status::NetworkError("parity batch unacked"));
              }
            }
            // The released keys may unblock staged entries.
            if (!staging[bk].empty()) {
              FlushParity(dead.group, dead.parity_site);
            }
            return;
          }
          sys->stats_.Add("node.batch_retransmit");
          TransmitBatch(seq);
        });
  }

  /// Checks one batch entry against this parity member, at receipt and
  /// again at apply time (the frame can sit in the disk queue meanwhile).
  /// Sets `*apply` when the delta must be XORed in; an OK status with
  /// `*apply` clear means the parity already holds the change.
  Status CheckBatchEntry(int g, SiteId from, const ParityBatchEntry& e,
                         const char* dup_stat, bool* apply) {
    *apply = false;
    const BlockRole role = RoleHere(g, e.row);
    if (role != BlockRole::kParity && role != BlockRole::kParityQ) {
      // This row's parity moved off this member (expansion); per-entry
      // refusal, the rest of the frame still lands.
      return Misroute("batched parity entry reached a non-parity member");
    }
    // §3.3 UID-array backstop: catches duplicates that outlive a node
    // restart (which clears the seq table) or its eviction bound, and a
    // rebuild of the row from the members' copies (which already contain
    // this delta) that landed while the entry was in flight.
    Result<BlockMeta> rec = store()->PeekMeta(phys(g, e.row));
    const size_t pos = static_cast<size_t>(e.position);
    const bool listed = rec.ok() && pos < rec->uid_array.size();
    const Uid cur = listed ? rec->uid_array[pos] : Uid();
    if (listed && cur == e.uid) {
      sys->stats_.Add(dup_stat);
      return Status::OK();
    }
    if (!sys->CheckMemberEpoch(g, e.position, e.home_epoch).ok()) {
      // A delayed entry whose delta was computed against a membership
      // view the home site has since cycled out of. The UID-array check
      // above cannot catch every such straggler (recovery may have
      // rebuilt the array without this update's UID); re-XORing its mask
      // would corrupt the parity block.
      sys->stats_.Add("node.stale_epoch_rejected");
      return Status::StaleEpoch("parity epoch");
    }
    // The array names a later write by the home itself. The home mints a
    // block's UIDs in commit order under its row lock, and releases the
    // lock once an entry is staged, so that write diffed against content
    // already holding this change; only a rebuild from data (a scrub, a
    // parity recovery) records it while this entry is in flight, and the
    // rebuilt parity holds the change too. Spare-path UIDs are minted by
    // the client and can commit out of order, so only the home's own
    // entries are judged this way.
    if (listed && from == grp(g)->SiteOfMember(e.position) &&
        e.uid.site() == from && cur.valid() && cur.site() == from &&
        cur.sequence() > e.uid.sequence()) {
      sys->stats_.Add("node.parity_superseded");
      return Status::OK();
    }
    *apply = true;
    return Status::OK();
  }

  void OnParityBatch(Message& msg) {
    ParityBatchFrame frame =
        std::move(std::get<ParityBatchFrame>(msg.payload));
    const SiteId from = msg.from;
    auto& seen = batch_seen[from];
    auto sit = seen.find(frame.batch_seq);
    if (sit != seen.end()) {
      sys->stats_.Add("node.batch_duplicate");
      if (sit->second.has_value()) {
        // The first ack was lost: replay the recorded one verbatim.
        Send(from, MessageType::kParityBatchAck, *sit->second,
             sit->second->entry_status.size());
      }
      // else: the original is still applying; its ack resolves the sender.
      for (ParityBatchEntry& e : frame.entries) {
        sys->arena_.Return(std::move(e.delta));
      }
      return;
    }
    seen.emplace(frame.batch_seq, std::nullopt);
    ParityBatchAck ack;
    ack.batch_seq = frame.batch_seq;
    ack.entry_status.assign(frame.entries.size(), Status::OK());
    std::vector<size_t> to_apply;
    for (size_t i = 0; i < frame.entries.size(); ++i) {
      ParityBatchEntry& e = frame.entries[i];
      bool apply = false;
      ack.entry_status[i] = CheckBatchEntry(frame.group, from, e,
                                            "node.parity_duplicate", &apply);
      if (apply) {
        to_apply.push_back(i);
      } else {
        sys->arena_.Return(std::move(e.delta));
      }
    }
    if (to_apply.empty()) {
      FinishBatchApply(from, std::move(frame), std::move(ack), {});
      return;
    }
    // One queued disk pass, charged per applied row (group commit
    // amortizes messages, not disk writes).
    const BlockNum first_addr =
        phys(frame.group, frame.entries[to_apply.front()].row);
    const uint32_t apply_units = static_cast<uint32_t>(to_apply.size());
    ScheduleDisk(IoClass::kWriteback, IoKind::kWrite, first_addr,
                 apply_units,
                 [this, from, frame = std::move(frame),
                  ack = std::move(ack),
                  to_apply = std::move(to_apply)]() mutable {
                   FinishBatchApply(from, std::move(frame), std::move(ack),
                                    to_apply);
                 });
  }

  void FinishBatchApply(SiteId from, ParityBatchFrame frame,
                        ParityBatchAck ack,
                        const std::vector<size_t>& to_apply) {
    for (size_t i : to_apply) {
      ParityBatchEntry& e = frame.entries[i];
      // Re-checked at apply time, not just at receipt: the parity can move,
      // the home's epoch can change, and a recovery sweep can rebuild the
      // row while this frame sits in the disk queue.
      bool apply = false;
      ack.entry_status[i] = CheckBatchEntry(
          frame.group, from, e, "node.parity_apply_superseded", &apply);
      if (!apply) {
        sys->arena_.Return(std::move(e.delta));
        continue;
      }
      // The wire carries the raw data delta for both parity roles; a Q
      // site scales the (possibly coalesced) delta by its Reed-Solomon
      // coefficient before the XOR (Q' = Q ^ g^position * delta), so P and
      // Q legs share one encoding. Coalesced entries merge deltas for one
      // (row, position) key, which all share the same coefficient, so
      // scaling after the merge equals merging scaled deltas.
      const int leg =
          RoleHere(frame.group, e.row) == BlockRole::kParityQ ? 1 : 0;
      GfScaleInPlace(&e.delta, LegCoeff(leg, e.position));
      ChangeMask mask = ChangeMask::FromFull(std::move(e.delta));
      Status st = store()->ApplyMask(
          phys(frame.group, e.row), mask, e.uid,
          static_cast<size_t>(e.position),
          static_cast<size_t>(grp(frame.group)->num_members()));
      cache.Invalidate(phys(frame.group, e.row));
      sys->arena_.Return(std::move(mask).TakeDelta());
      if (!st.ok()) {
        // Lost parity block; recovery will recompute. The per-entry error
        // lets the sender retry just this row.
        sys->stats_.Add("node.parity_apply_failed");
        ack.entry_status[i] = std::move(st);
      }
    }
    const size_t wire = ack.entry_status.size();  // one status byte each
    Send(from, MessageType::kParityBatchAck, ack, wire);
    auto& seen = batch_seen[from];
    seen[frame.batch_seq] = std::move(ack);
    // Bound the dedupe table: the sender's retry budget bounds how long a
    // recorded ack can still be asked for, and the UID-array check above
    // backstops any straggler that outlives the eviction.
    constexpr size_t kMaxRecordedAcks = 128;
    for (auto oldest = seen.begin();
         seen.size() > kMaxRecordedAcks && oldest != seen.end();) {
      if (oldest->second.has_value()) {
        oldest = seen.erase(oldest);
      } else {
        ++oldest;  // in flight: keep
      }
    }
  }

  /// True while this site's copy of the entry's block still carries the
  /// entry's change: it holds the entry's UID, or a later UID this site
  /// minted for a write that chained on it.
  bool HoldsChange(int g, const ParityCoalescer::Entry& e) {
    Result<BlockMeta> rec = store()->PeekMeta(phys(g, e.row));
    if (!rec.ok() || !rec->uid.valid()) return false;
    return rec->uid == e.uid ||
           (rec->uid.site() == self && e.uid.site() == self &&
            rec->uid.sequence() > e.uid.sequence());
  }

  void OnParityBatchAck(Message& msg) {
    const ParityBatchAck& ack = std::get<ParityBatchAck>(msg.payload);
    auto it = batches.find(ack.batch_seq);
    if (it == batches.end()) return;  // duplicate ack
    InFlightBatch batch = std::move(it->second);
    batches.erase(it);
    if (batch.timer != 0) sim()->Cancel(batch.timer);
    const BatchKey bk{batch.group, batch.parity_site};
    for (size_t i = 0; i < batch.entries.size(); ++i) {
      ParityCoalescer::Entry& e = batch.entries[i];
      inflight_keys[bk].erase(e.key());
      Status st = i < ack.entry_status.size() ? ack.entry_status[i]
                                              : Status::OK();
      if (st.ok()) {
        for (uint64_t op : e.ops) ResolveParityOp(op, Status::OK());
        continue;
      }
      if (st.IsStaleEpoch()) {
        if (!HoldsChange(batch.group, e)) {
          // The home's epoch moved and this site's copy no longer holds
          // the change (a recovery drained the spare over it or rebuilt
          // it from parity). Fail the waiters: the write layer re-runs
          // the write against the current copy, recomputing the delta.
          for (uint64_t op : e.ops) ResolveParityOp(op, st);
          continue;
        }
        // The home's epoch moved (say it was marked up again) while the
        // copy still holds the change and the parity does not. Failing
        // here would leave the parity behind for good: the retry would
        // diff against the updated copy. Restamp and resend instead.
        e.home_epoch =
            sys->status_.Epoch(grp(batch.group)->SiteOfMember(e.position));
        sys->stats_.Add("node.parity_restamped");
      }
      // Per-entry refusal (lost parity block, or a restamped entry):
      // spend one retry per waiter, fail the exhausted ones, re-stage the
      // entry for the survivors.
      std::vector<uint64_t> live;
      for (uint64_t op : e.ops) {
        auto wait = parity_done.find(op);
        if (wait == parity_done.end()) continue;
        if (++wait->second.tries > sys->node_config_.max_retries) {
          ResolveParityOp(op, st);
        } else {
          live.push_back(op);
        }
      }
      if (live.empty()) continue;
      sys->stats_.Add("node.batch_entry_retry");
      e.ops = std::move(live);
      staging[bk].AddEntry(std::move(e));
    }
    // The released keys may have blocked staged entries, and retried ones
    // were just re-staged; their waiters already paid a round trip, so
    // drain immediately rather than waiting out another flush delay.
    if (!staging[bk].empty()) FlushParity(batch.group, batch.parity_site);
  }

  void OnSpareReadReq(Message& msg) {
    auto req = std::get<SpareReadReq>(msg.payload);
    const SiteId from = msg.from;
    if (RoleHere(req.group, req.row) != BlockRole::kSpare) {
      SpareReadReply rep;
      rep.op = req.op;
      rep.status = Misroute("spare read reached a non-spare member");
      Send(from, MessageType::kSpareReadReply, std::move(rep), 0);
      return;
    }
    const BlockNum prow = phys(req.group, req.row);
    WithLock(req.op, prow, LockMode::kShared,
             [this, req, from, prow](TxnId holder) {
      ScheduleDisk(IoClass::kForeground, IoKind::kRead, prow, 1,
                   [this, req, from, prow, holder]() {
        SpareReadReply rep;
        rep.op = req.op;
        Result<BlockRecord> rec = store()->Read(prow);
        if (rec.ok() && rec->uid.valid() && rec->spare_for == req.home) {
          rep.status = Status::OK();
          rep.data = std::move(rec->data);
          rep.logical_uid = rec->logical_uid;
        } else {
          rep.status = Status::NotFound("spare invalid");
        }
        Unlock(holder, prow);
        size_t wire = rep.status.ok() ? rep.data.size() : 0;
        Send(from, MessageType::kSpareReadReply, std::move(rep), wire);
      });
    });
  }

  void OnSpareTakeReq(Message& msg) {
    auto req = std::get<SpareTakeReq>(msg.payload);
    const SiteId from = msg.from;
    if (RoleHere(req.group, req.row) != BlockRole::kSpare) {
      SpareReadReply rep;
      rep.op = req.op;
      rep.status = Misroute("spare take reached a non-spare member");
      Send(from, MessageType::kSpareTakeReply, std::move(rep), 0);
      return;
    }
    const BlockNum prow = phys(req.group, req.row);
    WithLock(req.op, prow, LockMode::kExclusive,
             [this, req, from, prow](TxnId holder) {
      ScheduleDisk(IoClass::kForeground, IoKind::kRead, prow, 1,
                   [this, req, from, prow, holder]() {
        SpareReadReply rep;
        rep.op = req.op;
        Result<BlockRecord> rec = store()->Read(prow);
        if (rec.ok() && rec->uid.valid() && rec->spare_for == req.home) {
          rep.status = Status::OK();
          rep.data = std::move(rec->data);
          rep.logical_uid = rec->logical_uid;
        } else {
          rep.status = Status::NotFound("spare invalid");
        }
        Unlock(holder, prow);
        size_t wire = rep.status.ok() ? rep.data.size() : 0;
        Send(from, MessageType::kSpareTakeReply, std::move(rep), wire);
      });
    });
  }

  void OnSpareWriteReq(Message& msg) {
    SpareWriteReq req = std::move(std::get<SpareWriteReq>(msg.payload));
    const SiteId from = msg.from;
    if (DedupeWrite(req.op, from, MessageType::kSpareWriteReply)) return;
    if (req.deadline != 0 && sim()->Now() > req.deadline) {
      sys->stats_.Add("node.write_expired");
      sys->arena_.Return(std::move(req.data));
      return;
    }
    if (!sys->CheckMemberEpoch(req.group, req.home, req.home_epoch).ok()) {
      // The writer's view of the home site is stale (it transitioned since
      // the request was stamped) — absorbing the write into the spare now
      // could shadow a home that is no longer down. Retryable: the client
      // restamps and re-evaluates the routing.
      sys->stats_.Add("node.stale_epoch_rejected");
      write_flows.erase(req.op);
      Send(from, MessageType::kSpareWriteReply,
           WriteReply{req.op, Status::StaleEpoch("spare write epoch")}, 0);
      sys->arena_.Return(std::move(req.data));
      return;
    }
    if (RoleHere(req.group, req.row) != BlockRole::kSpare) {
      write_flows.erase(req.op);
      Send(from, MessageType::kSpareWriteReply,
           WriteReply{req.op,
                      Misroute("spare write reached a non-spare member")},
           0);
      sys->arena_.Return(std::move(req.data));
      return;
    }
    const uint64_t op = req.op;
    const BlockNum prow = phys(req.group, req.row);
    const bool live = WithLock(
        op, prow, LockMode::kExclusive,
        [this, req = std::move(req), from](TxnId holder) mutable {
      if (lay(req.group).LegsOf(req.row).count > 1) {
        // More than one leg: the old value must be fetched per leg — a
        // torn pair (one leg applied an update the other missed around the
        // home's crash) cannot be repaired by one shared delta. Even an
        // already-applied logical UID is re-driven for the same reason: the
        // previous flow may have converged one leg and not the other, and
        // the per-leg deltas are zero wherever a leg is already current.
        StartLegGather(std::move(req), from, holder);
        return;
      }
      Result<BlockRecord> old = store()->Peek(phys(req.group, req.row));
      bool have_old =
          old.ok() && old->uid.valid() && old->spare_for == req.home;
      if (have_old && old->logical_uid == req.uid) {
        // Duplicate of a spare write we already performed (lost reply).
        Unlock(holder, phys(req.group, req.row));
        CompleteWrite(req.op, from, MessageType::kSpareWriteReply,
                      WriteReply{req.op, Status::OK()});
        return;
      }
      if (have_old) {
        CommitSpareWrite(std::move(req), from, holder,
                         LegValues{std::move(old->data), Block(0)});
        return;
      }
      // Spare invalid: reconstruct the old value first so the parity
      // delta is correct (first-degraded-write penalty).
      const int g = req.group;
      const int home = req.home;
      const BlockNum row = req.row;
      StartReconstruction(
          g, home, row,
          [this, req = std::move(req), from, holder](
              Status st, Block data, Uid) mutable {
            if (!st.ok()) {
              Unlock(holder, phys(req.group, req.row));
              CompleteWrite(req.op, from, MessageType::kSpareWriteReply,
                            WriteReply{req.op, st});
              return;
            }
            CommitSpareWrite(std::move(req), from, holder,
                             LegValues{std::move(data), Block(0)});
          });
    });
    if (!live) write_flows.erase(op);  // as in OnWriteReq
  }

  /// The home's old value as each parity leg of a row encodes it (P, then
  /// Q). Unused slots stay empty: the one-leg path allocates nothing.
  using LegValues = std::array<Block, 2>;

  /// Commits a spare write: persists the record, then ships every parity
  /// leg its delta from `old[leg]`.
  void CommitSpareWrite(SpareWriteReq req, SiteId reply_to, TxnId holder,
                        LegValues old) {
    const BlockNum addr = phys(req.group, req.row);
    ScheduleDisk(IoClass::kForeground, IoKind::kWrite, addr, 1,
                 [this, req = std::move(req), reply_to, holder,
                  old = std::move(old)]() mutable {
      const uint64_t op = req.op;
      const BlockNum prow = phys(req.group, req.row);
      // Returns the buffers of a flow that stops short of the commit.
      auto drop = [this, &req, &old]() {
        sys->arena_.Return(std::move(req.data));
        for (Block& b : old) sys->arena_.Return(std::move(b));
      };
      if (sys->status_.Declared(self,
                                grp(req.group)->SiteOfMember(req.home)) ==
          SiteState::kUp) {
        // The home recovered while this flow was queued (slow disk, long
        // reconstruction), or it was only ever suspected, never declared
        // down: committing now would shadow an up member that no recovery
        // sweep will drain. Stay silent — the client's retry re-evaluates
        // and targets the home.
        sys->stats_.Add("node.spare_write_stale");
        Unlock(holder, prow);
        write_flows.erase(op);
        drop();
        return;
      }
      if (!sys->CheckMemberEpoch(req.group, req.home, req.home_epoch).ok()) {
        // The home transitioned (say down -> recovering) while this flow
        // waited for its lock, decode or disk, so the receive-time check
        // no longer holds. A client retry of the same op may already be
        // writing at the home, whose fetch of this spare found nothing
        // yet; committing too would bring the op's delta to the parity
        // twice. Refuse; the client restamps and re-routes.
        sys->stats_.Add("node.stale_epoch_rejected");
        Unlock(holder, prow);
        FailWrite(op, reply_to, MessageType::kSpareWriteReply,
                  Status::StaleEpoch("spare write epoch"));
        drop();
        return;
      }
      Result<BlockMeta> cur = store()->PeekMeta(prow);
      if (cur.ok() && cur->uid.valid() && cur->spare_for != req.home) {
        // The spare already shadows another down member of the row (a
        // double failure): overwriting it would lose that member's
        // acknowledged writes. A row has one spare; this write fails.
        sys->stats_.Add("node.spare_write_occupied");
        Unlock(holder, prow);
        CompleteWrite(op, reply_to, MessageType::kSpareWriteReply,
                      WriteReply{op, Status::Blocked("spare occupied")});
        drop();
        return;
      }
      BlockRecord rec(0);
      rec.data = std::move(req.data);
      rec.uid = req.uid;
      rec.logical_uid = req.uid;
      rec.spare_for = req.home;
      Status st = store()->WriteRecord(prow, rec);
      cache.Invalidate(prow);
      if (!st.ok()) {
        Unlock(holder, prow);
        CompleteWrite(op, reply_to, MessageType::kSpareWriteReply,
                      WriteReply{op, st});
        return;
      }
      SendParityLegs(req.group, req.home, req.row, rec.data,
                     {&old[0], &old[1]}, req.uid,
                     [this, op, prow, reply_to, holder]() {
                       Unlock(holder, prow);
                       CompleteWrite(op, reply_to,
                                     MessageType::kSpareWriteReply,
                                     WriteReply{op, Status::OK()});
                     },
                     [this, op, prow, reply_to, holder](Status lst) {
                       Unlock(holder, prow);
                       FailWrite(op, reply_to, MessageType::kSpareWriteReply,
                                 std::move(lst));
                     });
      for (Block& b : old) sys->arena_.Return(std::move(b));
      sys->arena_.Return(std::move(rec.data));
    });
  }

  /// A spare write gathering the home's old value leg by leg.
  struct LegGather {
    SpareWriteReq req;
    SiteId reply_to = 0;
    TxnId holder = 0;
    ParityLegs legs;
    std::array<bool, 2> usable{};
    LegValues old{Block(0), Block(0)};
  };

  void StartLegGather(SpareWriteReq req, SiteId from, TxnId holder) {
    auto st = std::make_shared<LegGather>();
    st->req = std::move(req);
    st->reply_to = from;
    st->holder = holder;
    st->legs = lay(st->req.group).LegsOf(st->req.row);
    for (int leg = 0; leg < st->legs.count; ++leg) {
      st->usable[static_cast<size_t>(leg)] =
          LegUsable(st->req.group, static_cast<int>(st->legs[leg]));
    }
    GatherLegOld(std::move(st), 0);
  }

  /// Fetches leg `leg`'s old value by a decode through that leg alone,
  /// then the next leg's, then commits. A leg that is not usable cannot be
  /// decoded through; it gets the delta the home path would send it, from
  /// the value a usable leg encodes. A recovering leg whose sweep already
  /// passed the row is current and needs that delta; one whose sweep has
  /// not is rebuilt from the data anyway. A down leg is dropped by the
  /// send. With no usable leg there is no old value to diff against, so
  /// the write is refused (Blocked), as the one-leg decode refuses it,
  /// unless every leg is down and nothing is sent.
  void GatherLegOld(std::shared_ptr<LegGather> st, size_t leg) {
    const size_t n = static_cast<size_t>(st->legs.count);
    if (leg == n) {
      const Block* base = nullptr;
      bool all_down = true;
      for (size_t i = 0; i < n; ++i) {
        if (st->usable[i] && base == nullptr) base = &st->old[i];
        all_down = all_down &&
                   LegDown(st->req.group,
                           static_cast<int>(st->legs[static_cast<int>(i)]));
      }
      if (base == nullptr && !all_down) {
        sys->stats_.Add("node.spare_write_no_usable_leg");
        const uint64_t op = st->req.op;
        Unlock(st->holder, phys(st->req.group, st->req.row));
        sys->arena_.Return(std::move(st->req.data));
        CompleteWrite(op, st->reply_to, MessageType::kSpareWriteReply,
                      WriteReply{op, Status::Blocked("no usable parity leg")});
        return;
      }
      if (base == nullptr) base = &st->req.data;  // every leg down
      for (size_t i = 0; i < n; ++i) {
        if (!st->usable[i]) st->old[i] = sys->arena_.LeaseCopyOf(*base);
      }
      CommitSpareWrite(std::move(st->req), st->reply_to, st->holder,
                       std::move(st->old));
      return;
    }
    if (!st->usable[leg]) {
      GatherLegOld(std::move(st), leg + 1);
      return;
    }
    const int g = st->req.group;
    const int home = st->req.home;
    const BlockNum row = st->req.row;
    StartReconstruction(
        g, home, row,
        [this, st, leg, n](Status rst, Block data, Uid) mutable {
          if (rst.ok()) {
            st->old[leg] = std::move(data);
            GatherLegOld(std::move(st), leg + 1);
            return;
          }
          // Per-leg decode impossible (a second member is down, or the
          // leg flapped mid-flow): fall back to one shared decode. With
          // both legs in the plan, its §3.3 cross-validation only passes
          // when their UID arrays agree, so a shared old value is sound.
          StartReconstruction(
              st->req.group, st->req.home, st->req.row,
              [this, st, n](Status sst, Block data, Uid) mutable {
                for (Block& b : st->old) sys->arena_.Return(std::move(b));
                if (!sst.ok()) {
                  const uint64_t op = st->req.op;
                  Unlock(st->holder, phys(st->req.group, st->req.row));
                  CompleteWrite(op, st->reply_to,
                                MessageType::kSpareWriteReply,
                                WriteReply{op, sst});
                  return;
                }
                for (size_t i = 0; i + 1 < n; ++i) {
                  st->old[i] = sys->arena_.LeaseCopyOf(data);
                }
                st->old[n - 1] = std::move(data);
                CommitSpareWrite(std::move(st->req), st->reply_to,
                                 st->holder, std::move(st->old));
              });
        },
        /*for_read=*/false, /*force_leg=*/static_cast<int>(leg));
  }

  void OnSpareWriteBack(Message& msg) {
    SpareWriteBack wb = std::move(std::get<SpareWriteBack>(msg.payload));
    if (!sys->CheckMemberEpoch(wb.group, wb.home, wb.home_epoch).ok()) {
      // Fire-and-forget materialization from a reader whose view of the
      // home has since cycled; dropping it is always safe.
      sys->stats_.Add("node.writeback_stale_epoch");
      sys->arena_.Return(std::move(wb.data));
      return;
    }
    if (RoleHere(wb.group, wb.row) != BlockRole::kSpare) {
      (void)Misroute("spare writeback reached a non-spare member");
      sys->arena_.Return(std::move(wb.data));
      return;
    }
    const BlockNum wb_addr = phys(wb.group, wb.row);
    ScheduleDisk(IoClass::kRecovery, IoKind::kWrite, wb_addr, 1,
                 [this, wb = std::move(wb)]() mutable {
      // Materialization is only valid while the home is declared down.
      // This message is fire-and-forget, so a delayed copy can arrive after
      // the home restarted and recovery drained the spares, and a reader
      // that merely suspects the home never triggers its recovery; writing
      // it then would leave a valid spare shadowing an up member.
      if (sys->status_.Declared(self,
                                grp(wb.group)->SiteOfMember(wb.home)) !=
          SiteState::kDown) {
        sys->stats_.Add("node.writeback_stale");
        sys->arena_.Return(std::move(wb.data));
        return;
      }
      Result<BlockMeta> cur = store()->PeekMeta(phys(wb.group, wb.row));
      if (cur.ok() && cur->uid.valid()) return;  // raced with a write
      BlockRecord rec(0);
      rec.data = std::move(wb.data);
      rec.uid = site()->uids()->Next();
      rec.logical_uid = wb.logical_uid;
      rec.spare_for = wb.home;
      if (store()->WriteRecord(phys(wb.group, wb.row), rec).ok()) {
        cache.Invalidate(phys(wb.group, wb.row));
        sys->stats_.Add("node.materialized");
      }
      sys->arena_.Return(std::move(rec.data));
    });
  }

  void OnReconReq(Message& msg) {
    auto req = std::get<ReconReq>(msg.payload);
    const SiteId from = msg.from;
    if (RoleHere(req.group, req.row) == BlockRole::kNone) {
      // The requester planned its sources under tables an expansion has
      // since flipped; StaleEpoch makes it re-plan from the current map.
      ReconReply rep;
      rep.op = req.op;
      rep.row = req.row;
      rep.attempt = req.attempt;
      rep.status = Misroute("recon source no longer in the row");
      Send(from, MessageType::kReconReply, std::move(rep), 0);
      return;
    }
    // §3.3: reconstruction reads take no locks; they return UIDs instead.
    // Foreground class: recon rounds serve degraded client reads (the
    // background sweep repairs through the synchronous model instead).
    ScheduleDisk(IoClass::kForeground, IoKind::kRead,
                 phys(req.group, req.row), 1, [this, req, from]() {
      ReconReply rep;
      rep.op = req.op;
      rep.row = req.row;
      rep.attempt = req.attempt;
      Result<BlockRecord> rec = store()->Read(phys(req.group, req.row));
      if (!rec.ok()) {
        rep.status = rec.status();
      } else {
        rep.status = Status::OK();
        rep.data = std::move(rec->data);
        rep.uid = rec->uid;
        rep.uid_array = std::move(rec->uid_array);
      }
      size_t wire = rep.status.ok() ? rep.data.size() : 0;
      Send(from, MessageType::kReconReply, std::move(rep), wire);
    });
  }

  // --- client-side reconstruction state machine -----------------------------

  /// One reconstruction flow, keyed in `recons` by a NewFlowId.
  struct Recon {
    int group = 0;
    int home;
    BlockNum row;
    std::function<void(Status, Block, Uid)> done;
    std::vector<SiteId> sources;  // member ids, ascending
    std::map<int, ReconReply> replies;
    int attempt = 0;      // round tag; stale-round replies are discarded
    int uid_retries = 0;  // §3.3 UID-mismatch retries (capped separately)
    int rounds = 0;       // re-plans and timeout-driven reissues
    uint64_t timer = 0;   // pending round-timeout event
    // Decode plan (PlanRecon): the home plus at most one other data member
    // are erased, and each erasure takes one parity leg.
    RowPlan plan;
    std::vector<SiteId> data_members;  // the row's, as of the plan
    /// Members that answered with an unreadable block this flow; treated
    /// as erased in later plans even while their site looks up.
    std::set<int> dead_sources;
    /// Set for read-serving reconstructions so the decode can account
    /// degraded reads per parity role.
    bool for_read = false;
    /// Forces a one-leg plan through this leg (0 = P, 1 = Q); -1 lets the
    /// planner choose. The P+Q spare write needs the home's value as one
    /// specific leg encodes it; widening to a two-erasure plan would defeat
    /// that, so such plans report Blocked instead.
    int force_leg = -1;
  };
  std::map<uint64_t, Recon> recons;

  /// Picks the decode plan from the current membership view: every data
  /// member except the home, plus one usable parity leg per erasure (P
  /// first: no GF scaling on the decode path). The paper's single parity
  /// decodes the home alone; P+Q also survives one more lost data member.
  Status PlanRecon(Recon& rc) {
    RaddGroup* g = grp(rc.group);
    const PlacementMap& l = lay(rc.group);
    rc.data_members = l.DataSites(rc.row);
    rc.sources.clear();
    std::vector<int> erased;
    for (SiteId dm : rc.data_members) {
      const int m = static_cast<int>(dm);
      if (m == rc.home) continue;
      if (rc.dead_sources.count(m) != 0 ||
          sys->status_.Perceived(self, g->SiteOfMember(m)) ==
              SiteState::kDown) {
        erased.push_back(m);
      } else {
        rc.sources.push_back(dm);
      }
    }
    const ParityLegs legs = l.LegsOf(rc.row);
    std::array<bool, 2> usable{};
    for (int leg = 0; leg < legs.count; ++leg) {
      const int m = static_cast<int>(legs[leg]);
      usable[static_cast<size_t>(leg)] =
          rc.dead_sources.count(m) == 0 && LegUsable(rc.group, m);
    }
    PlanHints hints;
    hints.force_leg = rc.force_leg;
    RADD_ASSIGN_OR_RETURN(rc.plan,
                          PlanDecode(rc.home, erased, usable, hints));
    for (int leg = 0; leg < legs.count; ++leg) {
      if (rc.plan.use[static_cast<size_t>(leg)]) {
        rc.sources.push_back(legs[leg]);
      }
    }
    std::sort(rc.sources.begin(), rc.sources.end());
    return Status::OK();
  }

  void FinishRecon(std::map<uint64_t, Recon>::iterator it, Status st,
                   Block block, Uid uid) {
    if (it->second.timer != 0) sim()->Cancel(it->second.timer);
    auto done = std::move(it->second.done);
    recons.erase(it);
    done(std::move(st), std::move(block), uid);
  }

  void StartReconstruction(int g, int home, BlockNum row,
                           std::function<void(Status, Block, Uid)> done,
                           bool for_read = false, int force_leg = -1) {
    // Callers pass the row's logical owner; resolve to the member that
    // hosts its block under the current tables (identity except for rows
    // relocated by an expansion; idempotent, so already-resolved callers
    // are fine).
    home = static_cast<int>(lay(g).HostOfData(static_cast<SiteId>(home), row));
    Recon rc;
    rc.group = g;
    rc.home = home;
    rc.row = row;
    rc.done = std::move(done);
    rc.for_read = for_read;
    rc.force_leg = force_leg;
    Status st = PlanRecon(rc);
    if (!st.ok()) {
      rc.done(std::move(st), Block(0), Uid());
      return;
    }
    const uint64_t id = NewFlowId();
    recons.emplace(id, std::move(rc));
    IssueReconRound(id);
  }

  void IssueReconRound(uint64_t id) {
    auto it = recons.find(id);
    if (it == recons.end()) return;
    Recon& rc = it->second;
    rc.replies.clear();
    for (SiteId src : rc.sources) {
      SiteId site_id = grp(rc.group)->SiteOfMember(static_cast<int>(src));
      Send(site_id, MessageType::kReconReq,
           ReconReq{id, rc.group, rc.row, rc.attempt}, 0);
    }
    // A source can die (or its reply be lost) mid-round, which would leave
    // this flow waiting forever. Bound each round and re-plan against the
    // current membership view, failing only when no decodable plan remains
    // or the retry budget is spent.
    if (rc.timer != 0) sim()->Cancel(rc.timer);
    rc.timer = sim()->Schedule(
        4 * sys->node_config_.retry_timeout, [this, id]() {
          auto rit = recons.find(id);
          if (rit == recons.end()) return;
          rit->second.timer = 0;
          ReplanRound(rit, "node.recon_round_retry");
        });
  }

  /// Re-plans flow `it` against the current view and issues a fresh round,
  /// or finishes the flow when no plan remains or the round budget is
  /// spent.
  void ReplanRound(std::map<uint64_t, Recon>::iterator it, const char* stat) {
    Recon& rc = it->second;
    Status st = PlanRecon(rc);
    if (!st.ok()) {
      FinishRecon(it, std::move(st), Block(0), Uid());
      return;
    }
    if (++rc.rounds > sys->node_config_.max_retries) {
      FinishRecon(it, Status::Blocked("reconstruction timed out"), Block(0),
                  Uid());
      return;
    }
    ++rc.attempt;  // invalidate straggler replies from the abandoned round
    sys->stats_.Add(stat);
    IssueReconRound(it->first);
  }

  void OnReconReply(Message& msg) {
    ReconReply rep = std::move(std::get<ReconReply>(msg.payload));
    auto it = recons.find(rep.op);
    if (it == recons.end() || rep.attempt != it->second.attempt) {
      // A jitter-delayed reply from an earlier round or a finished flow;
      // mixing it into the current round could assemble a torn
      // reconstruction.
      sys->stats_.Add("node.recon_stale_reply");
      return;
    }
    Recon& rc = it->second;
    const int member = grp(rc.group)->MemberAtSite(msg.from);
    if (member < 0 || std::find(rc.sources.begin(), rc.sources.end(),
                                static_cast<SiteId>(member)) ==
                          rc.sources.end()) {
      // Not a source of this round (a site outside the group): counting it
      // would complete the round without a reply the plan relies on.
      sys->stats_.Add("node.recon_foreign_reply");
      return;
    }
    if (!rep.status.ok()) {
      // StaleEpoch: an expansion moved this source out of the row since the
      // plan; the re-plan reads the current tables. Any other error is an
      // unreadable block: one more erasure, charged for the rest of this
      // flow even though the member's site looks up.
      if (!rep.status.IsStaleEpoch()) rc.dead_sources.insert(member);
      ReplanRound(it, "node.recon_replan");
      return;
    }
    rc.replies[member] = std::move(rep);
    if (rc.replies.size() < rc.sources.size()) return;
    FinishDecode(it);
  }

  /// Decodes a completed round per the plan PlanRecon chose, through the
  /// row codec: §3.3 on every planned leg, then P only (formula (2)), Q
  /// only, or the two-erasure solve when a second data member is gone.
  void FinishDecode(std::map<uint64_t, Recon>::iterator it) {
    Recon& rc = it->second;
    const ParityLegs legs = lay(rc.group).LegsOf(rc.row);
    RowRead read;
    read.data.reserve(rc.replies.size());
    for (const auto& [m, r] : rc.replies) {
      if (m == static_cast<int>(legs[0])) {
        read.legs[0] = {&r.data, &r.uid_array};
      } else if (legs.count > 1 && m == static_cast<int>(legs[1])) {
        read.legs[1] = {&r.data, &r.uid_array};
      } else {
        read.data.push_back({m, r.uid, &r.data});
      }
    }
    if (!CheckRow(rc.plan, read, rc.data_members)) {
      sys->stats_.Add("node.uid_retry");
      if (++rc.uid_retries >= sys->node_config_.max_reconstruct_attempts) {
        FinishRecon(it, Status::Inconsistent("UID validation failed"),
                    Block(0), Uid());
        return;
      }
      ++rc.attempt;
      IssueReconRound(it->first);
      return;
    }
    // Decode into an arena buffer; the block travels by move from here to
    // the final consumer, which returns it.
    Block out = sys->arena_.Lease();
    Status st = DecodeRow(rc.plan, read, &out);
    if (!st.ok()) {
      sys->arena_.Return(std::move(out));
      FinishRecon(it, std::move(st), Block(0), Uid());
      return;
    }
    const Uid logical = DecodedUid(rc.plan, read);
    if (rc.plan.two_legs()) sys->stats_.Add("node.recon_two_erasure");
    sys->stats_.Add("node.reconstructions");
    if (rc.for_read) {
      sys->stats_.Add("node.degraded_reads");
      if (rc.plan.two_legs()) {
        sys->stats_.Add("node.degraded_reads.pq");
      } else if (rc.plan.use[0]) {
        sys->stats_.Add("node.degraded_reads.p");
      } else {
        sys->stats_.Add("node.degraded_reads.q");
      }
    }
    FinishRecon(it, Status::OK(), std::move(out), logical);
  }
};

// ===========================================================================
// RaddNodeSystem
// ===========================================================================

RaddNodeSystem::RaddNodeSystem(Simulator* sim, Network* net,
                               Cluster* cluster,
                               const RaddConfig& radd_config,
                               const NodeConfig& node_config)
    : RaddNodeSystem(sim, net, cluster,
                     std::vector<GroupSpec>{GroupSpec{radd_config, {}}},
                     node_config) {}

RaddNodeSystem::RaddNodeSystem(Simulator* sim, Network* net,
                               Cluster* cluster,
                               std::vector<GroupSpec> specs,
                               const NodeConfig& node_config)
    : sim_(sim),
      net_(net),
      cluster_(cluster),
      status_(cluster),
      node_config_(node_config),
      arena_(specs.front().config.block_size) {
  // Batching off is the coalescer with a threshold of one op and no
  // group-commit delay: every parity update flushes in a frame of its own.
  if (!node_config_.parity_batch.enabled) {
    node_config_.parity_batch.max_ops = 1;
    node_config_.parity_batch.max_delay = 0;
  }
  for (GroupSpec& spec : specs) {
    // The arena recycles one buffer size across all groups; a volume with
    // mixed block sizes would hand wrong-sized leases to the smaller ones.
    if (spec.config.block_size != specs.front().config.block_size) {
      std::fprintf(stderr,
                   "RaddNodeSystem: all groups must share one block size\n");
      std::abort();
    }
    // The protocol writes a spare in every row and its recovery drains
    // every row's spare; §7.2's thinned spares are the synchronous model's
    // alone.
    if (spec.config.spare_fraction != 1.0) {
      std::fprintf(stderr,
                   "RaddNodeSystem: spare_fraction must be 1 (every row "
                   "keeps a spare)\n");
      std::abort();
    }
    groups_.push_back(
        spec.members.empty()
            ? std::make_unique<RaddGroup>(cluster, spec.config)
            : std::make_unique<RaddGroup>(cluster, spec.config,
                                          std::move(spec.members)));
  }
  // One Node per distinct site across all groups, in first-seen order
  // (group-major, member order within a group).
  for (const auto& group : groups_) {
    for (int m = 0; m < group->num_members(); ++m) {
      SiteId site = group->SiteOfMember(m);
      if (!nodes_.count(site)) AddNode(site);
    }
  }
}

void RaddNodeSystem::AddNode(SiteId site) {
  auto n = std::make_unique<Node>(this, site);
  n->locals.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) n->RefreshLocal(g);
  nodes_[site] = std::move(n);
  Network::Handler prev = net_->GetHandler(site);
  if (!prev) {
    net_->RegisterHandler(
        site, [this, site](Message& msg) { Dispatch(site, msg); });
    return;
  }
  // An interceptor (the heartbeat detector) already owns this site's slot;
  // leave it first in line for its own traffic and take the rest. Without
  // this, registering would silence the site's failure detector.
  net_->RegisterHandler(
      site, [this, site, prev = std::move(prev)](Message& msg) {
        switch (msg.type) {
          case MessageType::kHeartbeat:
          case MessageType::kHbProbe:
          case MessageType::kHbProbeAck:
            prev(msg);
            return;
          default:
            Dispatch(site, msg);
        }
      });
}

int RaddNodeSystem::HostMember(int grp, int home, BlockNum index) const {
  return static_cast<int>(
      groups_[static_cast<size_t>(grp)]->layout().HostOfDataIndex(
          static_cast<SiteId>(home), index));
}

Status RaddNodeSystem::AddGroupMember(int grp, const LogicalDrive& drive) {
  if (grp < 0 || static_cast<size_t>(grp) >= groups_.size()) {
    return Status::InvalidArgument("AddGroupMember: no such group");
  }
  RaddGroup* g = groups_[static_cast<size_t>(grp)].get();
  Status st = g->BeginExpansion(drive);
  if (!st.ok()) return st;
  auto nit = nodes_.find(drive.site);
  if (nit == nodes_.end()) {
    AddNode(drive.site);
  } else {
    // The site already runs a Node for a sibling group; it only needs its
    // membership view of this group refreshed.
    nit->second->RefreshLocal(static_cast<size_t>(grp));
  }
  return Status::OK();
}

void RaddNodeSystem::ChargeBackgroundIo(SiteId site, uint32_t units,
                                        Simulator::Callback done) {
  auto nit = nodes_.find(site);
  if (nit == nodes_.end()) {
    done();
    return;
  }
  Node* n = nit->second.get();
  // Charged at the site's first block: recovery sweeps are sequential
  // scans, so the address is representative for seek accounting.
  n->ScheduleDisk(IoClass::kRecovery, IoKind::kWrite, 0, units,
                  std::move(done));
}

RaddNodeSystem::CacheCounters RaddNodeSystem::CacheStats() const {
  CacheCounters total;
  for (const auto& [site, n] : nodes_) {
    total.hits += n->cache.hits();
    total.misses += n->cache.misses();
    total.stale_rejected += n->cache.stale_rejected();
  }
  return total;
}

RaddNodeSystem::~RaddNodeSystem() = default;

Status RaddNodeSystem::CheckMemberEpoch(int grp, int home,
                                        uint64_t epoch) const {
  return status_.CheckEpoch(
      groups_[static_cast<size_t>(grp)]->SiteOfMember(home), epoch);
}

uint64_t RaddNodeSystem::InFlightOps() const {
  uint64_t total = 0;
  for (const auto& [site, n] : nodes_) {
    total += n->reads.size() + n->writes.size();
  }
  return total;
}

bool RaddNodeSystem::Quiescent() const {
  for (const auto& [site, n] : nodes_) {
    if (!n->reads.empty() || !n->writes.empty()) return false;
    if (!n->parity_done.empty()) return false;
    if (!n->pending_local_writes.empty()) return false;
    if (!n->recons.empty()) return false;
    if (!n->batches.empty()) return false;
    for (const auto& [ps, coalescer] : n->staging) {
      if (!coalescer.empty()) return false;
    }
  }
  return true;
}

void RaddNodeSystem::ResetNodeVolatileState(SiteId site) {
  auto nit = nodes_.find(site);
  if (nit == nodes_.end()) return;
  Node* n = nit->second.get();
  n->parity_done.clear();
  for (auto& [ps, timer] : n->flush_timers) sim_->Cancel(timer);
  n->flush_timers.clear();
  for (auto& [seq, batch] : n->batches) sim_->Cancel(batch.timer);
  n->batches.clear();
  n->inflight_keys.clear();
  n->staging.clear();
  n->batch_seen.clear();
  n->write_flows.clear();
  n->pending_local_writes.clear();
  n->waiting.clear();
  n->recons.clear();
  n->locks = LockManager();
  n->disk.Reset();  // queued I/O and in-flight completions die too
  n->cache.Clear();
  stats_.Add("node.volatile_reset");
  // Client operations issued from this site die with its process: their
  // callbacks would otherwise dangle forever.
  std::vector<uint64_t> dead_reads, dead_writes;
  for (const auto& [op, pr] : n->reads) dead_reads.push_back(op);
  for (const auto& [op, pw] : n->writes) dead_writes.push_back(op);
  for (uint64_t op : dead_reads) {
    FinishRead(site, op, Status::NetworkError("client site crashed"),
               Block(0));
  }
  for (uint64_t op : dead_writes) {
    FinishWrite(site, op, Status::NetworkError("client site crashed"));
  }
}

void RaddNodeSystem::SetDiskSlowFactor(SiteId site, uint32_t factor) {
  auto nit = nodes_.find(site);
  if (nit == nodes_.end()) return;
  nit->second->disk_slow = factor < 1 ? 1 : factor;
}

void RaddNodeSystem::Dispatch(SiteId site, Message& msg) {
  // A down site's network stack is gone: deliveries are dropped. (The
  // sender sees silence and relies on timeouts, as in a real network.)
  if (status_.StateOf(site) == SiteState::kDown) {
    stats_.Add("node.delivered_to_down_site");
    return;
  }
  Node* n = node(site);
  switch (msg.type) {
    case MessageType::kReadReq:
      n->OnReadReq(msg);
      break;
    case MessageType::kReadReply: {
      ReadReply rep = std::move(std::get<ReadReply>(msg.payload));
      auto it = n->reads.find(rep.op);
      if (it == n->reads.end()) return;
      if (rep.status.ok()) {
        FinishRead(site, rep.op, Status::OK(), std::move(rep.data));
      } else if (rep.status.IsDataLoss() || rep.status.IsUnavailable()) {
        // Block lost at the home site: reconstruct.
        PendingRead& pr = it->second;
        StartReadReconstruction(rep.op, pr);
      } else if (rep.status.IsStaleEpoch()) {
        // The read landed on a member an expansion moved the row away
        // from. StartRead re-resolves the hosting member, so the retry
        // routes to the block's current home.
        RetryRead(site, rep.op, /*stale_epoch=*/true);
      } else {
        FinishRead(site, rep.op, rep.status, Block(0));
      }
      break;
    }
    case MessageType::kWriteReq:
      n->OnWriteReq(msg);
      break;
    case MessageType::kWriteReply:
    case MessageType::kSpareWriteReply: {
      auto rep = std::get<WriteReply>(msg.payload);
      auto it = n->writes.find(rep.op);
      if (it == n->writes.end()) return;
      if (rep.status.IsStaleEpoch()) {
        // The server knows a newer membership epoch for the home site than
        // this request carried. Reissue immediately: StartWrite re-reads
        // the current state and restamps, so the retry routes correctly.
        RetryWrite(site, rep.op, /*stale_epoch=*/true);
        return;
      }
      if (rep.status.IsUnavailable()) {
        // Home said "block lost": redirect to the spare (degraded write).
        SendSpareWrite(rep.op, it->second);
        return;
      }
      FinishWrite(site, rep.op, rep.status);
      break;
    }
    case MessageType::kParityBatch:
      n->OnParityBatch(msg);
      break;
    case MessageType::kParityBatchAck:
      n->OnParityBatchAck(msg);
      break;
    case MessageType::kSpareReadReq:
      n->OnSpareReadReq(msg);
      break;
    case MessageType::kSpareReadReply: {
      SpareReadReply rep =
          std::move(std::get<SpareReadReply>(msg.payload));
      auto it = n->reads.find(rep.op);
      if (it == n->reads.end()) return;
      PendingRead& pr = it->second;
      if (rep.status.ok()) {
        stats_.Add("node.degraded_reads");
        stats_.Add("node.degraded_reads.spare");
        FinishRead(site, rep.op, Status::OK(), std::move(rep.data));
        return;
      }
      // Spare invalid. A recovering home may still hold a valid local
      // copy: try it before paying for reconstruction.
      SiteId home_site = groups_[static_cast<size_t>(pr.group)]->SiteOfMember(
          HostMember(pr.group, pr.home, pr.index));
      if (!pr.tried_home &&
          status_.Perceived(pr.client, home_site) != SiteState::kDown) {
        pr.tried_home = true;
        node(pr.client)->Send(home_site, MessageType::kReadReq,
                              ReadReq{rep.op, pr.group, pr.row}, 0);
        return;
      }
      StartReadReconstruction(rep.op, pr);
      break;
    }
    case MessageType::kSpareTakeReq:
      n->OnSpareTakeReq(msg);
      break;
    case MessageType::kSpareInvalidate:
      n->OnSpareInvalidate(msg);
      break;
    case MessageType::kSpareTakeReply:
      n->OnSpareTakeReply(msg);
      break;
    case MessageType::kSpareWriteReq:
      n->OnSpareWriteReq(msg);
      break;
    case MessageType::kSpareWriteBack:
      n->OnSpareWriteBack(msg);
      break;
    case MessageType::kReconReq:
      n->OnReconReq(msg);
      break;
    case MessageType::kReconReply:
      n->OnReconReply(msg);
      break;
    default:
      break;  // untyped / detector traffic: not ours
  }
}

void RaddNodeSystem::AsyncRead(SiteId client, int grp, int home,
                               BlockNum index, ReadCallback cb) {
  uint64_t op = NewOpId(client);
  PendingRead pr;
  pr.client = client;
  pr.group = grp;
  pr.home = home;
  pr.index = index;
  pr.row = layout(grp).DataToRow(static_cast<SiteId>(home), index);
  pr.cb = std::move(cb);
  pr.start = sim_->Now();
  node(client)->reads[op] = std::move(pr);
  StartRead(client, op);
}

uint64_t RaddNodeSystem::NewOpId(SiteId client) {
  if (sim_->num_shards() == 1) return next_op_++;
  // Sharded: a shared counter would make id assignment depend on thread
  // timing. Per-site minting is deterministic; the site in the high bits
  // keeps ids unique across sites.
  Node* n = node(client);
  return (static_cast<uint64_t>(client) + 1) << 40 | n->next_local_op++;
}

void RaddNodeSystem::StartReadReconstruction(uint64_t op,
                                             PendingRead& pr) {
  node(pr.client)->StartReconstruction(
      pr.group, pr.home, pr.row,
      [this, op, client = pr.client](Status st, Block data, Uid logical) {
        auto rit = node(client)->reads.find(op);
        if (rit == node(client)->reads.end()) return;
        if (!st.ok()) {
          FinishRead(client, op, st, Block(0));
          return;
        }
        PendingRead& r = rit->second;
        RaddGroup* g = groups_[static_cast<size_t>(r.group)].get();
        // Materialize into the spare (asynchronous side effect), but only
        // while the home site is down — a recovering home's own copy is
        // repaired by its sweep instead.
        const int home = HostMember(r.group, r.home, r.index);
        if (g->config().materialize_on_degraded_read &&
            status_.Perceived(r.client, g->SiteOfMember(home)) ==
                SiteState::kDown) {
          SpareWriteBack wb;
          wb.group = r.group;
          wb.home = home;
          wb.row = r.row;
          wb.home_epoch = status_.Epoch(g->SiteOfMember(home));
          wb.data = data;  // the read's caller still needs `data`
          wb.logical_uid = logical;
          size_t wire = wb.data.size();
          node(r.client)->Send(
              g->SiteOfMember(
                  static_cast<int>(g->layout().SpareSite(r.row))),
              MessageType::kSpareWriteBack, std::move(wb), wire);
        }
        FinishRead(client, op, Status::OK(), std::move(data));
      },
      /*for_read=*/true);
}

void RaddNodeSystem::StartRead(SiteId client, uint64_t op) {
  PendingRead& pr = node(client)->reads.at(op);
  pr.tried_home = false;
  // Reads are idempotent: a lost request or reply is simply retried.
  pr.timer = sim_->Schedule(4 * node_config_.retry_timeout, [this, client, op] {
    RetryRead(client, op, /*stale_epoch=*/false);
  });
  RaddGroup* g = groups_[static_cast<size_t>(pr.group)].get();
  // pr.home stays the row's logical owner across retries; each (re)issue
  // resolves the member currently hosting its block, so a retry after an
  // expansion move lands on the block's new home.
  const int home = HostMember(pr.group, pr.home, pr.index);
  SiteId home_site = g->SiteOfMember(home);
  Node* client_node = node(pr.client);
  SiteState state = status_.Perceived(pr.client, home_site);
  if (state == SiteState::kDown || state == SiteState::kRecovering) {
    SiteId spare_site =
        g->SiteOfMember(static_cast<int>(g->layout().SpareSite(pr.row)));
    if (status_.Perceived(pr.client, spare_site) == SiteState::kDown) {
      // Home and spare both unreachable: asking the dead spare would only
      // burn the retry budget, and the spare holds nothing the parity
      // legs do not cover, so decode at once.
      stats_.Add("node.read_spare_down");
      StartReadReconstruction(op, pr);
      return;
    }
    // Spare first; its reply drives the rest of the state machine.
    client_node->Send(spare_site, MessageType::kSpareReadReq,
                      SpareReadReq{op, pr.group, home, pr.row}, 0);
    return;
  }
  client_node->Send(home_site, MessageType::kReadReq,
                    ReadReq{op, pr.group, pr.row}, 0);
}

void RaddNodeSystem::AsyncWrite(SiteId client, int grp, int home,
                                BlockNum index, Block data, WriteCallback cb) {
  uint64_t op = NewOpId(client);
  PendingWrite pw;
  pw.client = client;
  pw.group = grp;
  pw.home = home;
  pw.index = index;
  pw.row = layout(grp).DataToRow(static_cast<SiteId>(home), index);
  pw.data = std::move(data);
  pw.cb = std::move(cb);
  pw.start = sim_->Now();
  node(client)->writes[op] = std::move(pw);
  StartWrite(client, op);
}

void RaddNodeSystem::StartWrite(SiteId client, uint64_t op) {
  PendingWrite& pw = node(client)->writes.at(op);
  RaddGroup* g = groups_[static_cast<size_t>(pw.group)].get();
  // As in StartRead: resolve the hosting member per (re)issue so retries
  // follow expansion moves; pw.home remains the logical owner.
  const int home = HostMember(pw.group, pw.home, pw.index);
  SiteId home_site = g->SiteOfMember(home);
  Node* client_node = node(pw.client);
  pw.timer = sim_->Schedule(4 * node_config_.retry_timeout, [this, client, op] {
    RetryWrite(client, op, /*stale_epoch=*/false);
  });
  if (status_.Perceived(pw.client, home_site) == SiteState::kDown) {
    SendSpareWrite(op, pw);
    return;
  }
  WriteReq req;
  req.op = op;
  req.group = pw.group;
  req.row = pw.row;
  req.home = home;
  req.deadline = WriteDeadline(pw);
  req.home_epoch = status_.Epoch(home_site);
  req.data = pw.data;  // pw keeps its copy for retries
  size_t wire = req.data.size();
  client_node->Send(home_site, MessageType::kWriteReq, std::move(req), wire);
}

void RaddNodeSystem::SendSpareWrite(uint64_t op, const PendingWrite& pw) {
  RaddGroup* g = groups_[static_cast<size_t>(pw.group)].get();
  const int home = HostMember(pw.group, pw.home, pw.index);
  const SiteId spare_site =
      g->SiteOfMember(static_cast<int>(g->layout().SpareSite(pw.row)));
  // pw keeps its copy of the data for retries; the UID is minted last.
  SpareWriteReq req{op,
                    pw.group,
                    home,
                    pw.row,
                    WriteDeadline(pw),
                    status_.Epoch(g->SiteOfMember(home)),
                    pw.data,
                    cluster_->site(pw.client)->uids()->Next()};
  const size_t wire = req.data.size();
  node(pw.client)->Send(spare_site, MessageType::kSpareWriteReq,
                        std::move(req), wire);
}

SimTime RaddNodeSystem::WriteDeadline(const PendingWrite& pw) const {
  // The write timer fires every 4*retry_timeout and gives up after
  // max_retries retries, so the client abandons the op at exactly this
  // time; any request copy arriving later is a zombie.
  return pw.start +
         static_cast<SimTime>(node_config_.max_retries + 1) * 4 *
             node_config_.retry_timeout;
}

void RaddNodeSystem::RetryRead(SiteId client, uint64_t op, bool stale_epoch) {
  auto it = node(client)->reads.find(op);
  if (it == node(client)->reads.end()) return;
  // A StaleEpoch reply pre-empts the op's timer; a fired timer is spent,
  // and its id is forgotten so that FinishRead does not cancel it.
  if (stale_epoch) sim_->Cancel(it->second.timer);
  it->second.timer = 0;
  if (++it->second.retries > node_config_.max_retries) {
    stats_.Add("node.read_retry_exhausted");
    FinishRead(client, op, Status::NetworkError("read timed out"), Block(0));
    return;
  }
  stats_.Add(stale_epoch ? "node.stale_epoch_retry" : "node.read_retry");
  StartRead(client, op);
}

void RaddNodeSystem::RetryWrite(SiteId client, uint64_t op, bool stale_epoch) {
  auto it = node(client)->writes.find(op);
  if (it == node(client)->writes.end()) return;
  // As in RetryRead.
  if (stale_epoch) sim_->Cancel(it->second.timer);
  it->second.timer = 0;
  if (++it->second.retries > node_config_.max_retries) {
    stats_.Add("node.write_retry_exhausted");
    FinishWrite(client, op, Status::NetworkError("write timed out"));
    return;
  }
  stats_.Add(stale_epoch ? "node.stale_epoch_retry" : "node.write_retry");
  StartWrite(client, op);
}

void RaddNodeSystem::FinishRead(SiteId client, uint64_t op, Status st,
                                Block data) {
  auto it = node(client)->reads.find(op);
  if (it == node(client)->reads.end()) return;
  sim_->Cancel(it->second.timer);
  ReadCallback cb = std::move(it->second.cb);
  SimTime latency = sim_->Now() - it->second.start;
  node(client)->reads.erase(it);
  cb(st, data, latency);
  // The callback has seen the data; recycle the buffer for the next
  // block-sized payload this node touches.
  arena_.Return(std::move(data));
}

void RaddNodeSystem::FinishWrite(SiteId client, uint64_t op, Status st) {
  auto it = node(client)->writes.find(op);
  if (it == node(client)->writes.end()) return;
  sim_->Cancel(it->second.timer);
  WriteCallback cb = std::move(it->second.cb);
  SimTime latency = sim_->Now() - it->second.start;
  node(client)->writes.erase(it);
  cb(st, latency);
}

RaddNodeSystem::TimedRead RaddNodeSystem::Read(SiteId client, int grp,
                                               int home, BlockNum index) {
  TimedRead out;
  bool done = false;
  AsyncRead(client, grp, home, index,
            [&](Status st, const Block& data, SimTime latency) {
              out.status = st;
              out.data = data;
              out.latency = latency;
              done = true;
            });
  sim_->RunUntilPredicate([&]() { return done; });
  if (!done) out.status = Status::Internal("simulation ran dry");
  return out;
}

RaddNodeSystem::TimedWrite RaddNodeSystem::Write(SiteId client, int grp,
                                                 int home, BlockNum index,
                                                 const Block& data) {
  TimedWrite out;
  bool done = false;
  AsyncWrite(client, grp, home, index, data, [&](Status st, SimTime latency) {
    out.status = st;
    out.latency = latency;
    done = true;
  });
  sim_->RunUntilPredicate([&]() { return done; });
  if (!done) out.status = Status::Internal("simulation ran dry");
  return out;
}

}  // namespace radd
