// Disaster recovery walkthrough (paper §3.4): a site is destroyed, and we
// compare how quickly its database becomes usable again under a WAL
// storage manager versus a POSTGRES-style no-overwrite storage manager —
// the paper's argument for pairing RADD with no-overwrite storage.
//
//   ./build/examples/disaster_recovery

#include <cstdio>

#include "core/radd.h"
#include "schemes/scheme.h"
#include "txn/storage_manager.h"

using namespace radd;

namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

void RunTransactions(StorageManager* sm, int count) {
  for (int i = 0; i < count; ++i) {
    TxnId t = sm->Begin();
    PageUpdate u;
    u.page = static_cast<BlockNum>(i) % sm->num_pages();
    u.offset = 0;
    u.bytes = Bytes("txn " + std::to_string(i));
    if (!sm->Update(t, u).ok() || !sm->Commit(t).ok()) {
      std::printf("transaction %d failed\n", i);
    }
  }
}

}  // namespace

int main() {
  RaddConfig config;
  config.group_size = 8;
  config.rows = 60;  // 48 data blocks per member
  SiteConfig sc{1, config.rows, config.block_size};
  CostModel cost;
  bool all_ok = true;

  for (bool use_wal : {true, false}) {
    Cluster cluster(config.group_size + 2, sc);
    RaddGroup radd(&cluster, config);
    std::unique_ptr<StorageManager> sm;
    if (use_wal) {
      sm = std::make_unique<WalStorageManager>(&radd, /*member=*/1,
                                               /*log blocks=*/24,
                                               /*pages=*/16);
    } else {
      sm = std::make_unique<NoOverwriteStorageManager>(&radd, 1, 16);
    }
    std::printf("=== %s storage manager on member 1 ===\n",
                use_wal ? "WAL" : "no-overwrite");

    RunTransactions(sm.get(), 40);

    // Disaster: the site burns down. All disks lost.
    std::printf("  *** disaster at site 1 ***\n");
    cluster.DisasterSite(radd.SiteOfMember(1));
    sm->CrashVolatile();

    // The DBMS restarts its member-1 database *at another site* while the
    // home is still gone; every block it touches is reconstructed through
    // the RADD.
    SiteId stand_in = radd.SiteOfMember(4);
    Result<OpCounts> rec = sm->Recover(stand_in);
    if (!rec.ok()) {
      std::printf("  recovery failed: %s\n", rec.status().ToString().c_str());
      return 1;
    }
    std::printf("  recovery at a remote site: %s\n",
                rec->ToFormula().c_str());
    std::printf("  modelled recovery time: %.1f ms "
                "(paper model: R=W=30ms, RR=RW=75ms)\n",
                cost.Price(*rec));

    // Verify the committed data is all there.
    Result<Block> page = sm->ReadCommitted(7 % sm->num_pages());
    std::printf("  committed data intact: %s\n",
                page.ok() ? "yes" : page.status().ToString().c_str());

    // Finally the site itself is rebuilt.
    cluster.RestoreSite(radd.SiteOfMember(1));
    Result<OpCounts> sweep = radd.RunRecovery(1);
    std::printf("  site rebuild sweep: %s (%llu physical ops)\n",
                sweep.status().ToString().c_str(),
                sweep.ok() ? static_cast<unsigned long long>(sweep->Total())
                           : 0ULL);
    Status invariants = radd.VerifyInvariants();
    std::printf("  invariants: %s\n\n", invariants.ToString().c_str());
    all_ok = all_ok && page.ok() && sweep.ok() && invariants.ok();
  }

  std::printf(
      "Takeaway (paper §3.4): the WAL pass must reconstruct the whole log\n"
      "through the RADD (G remote reads per block) before any data is\n"
      "usable, while the no-overwrite manager restarts after a single root\n"
      "read — so RADD pairs best with no-overwrite storage for site\n"
      "failures.\n");
  return all_ok ? 0 : 1;
}
