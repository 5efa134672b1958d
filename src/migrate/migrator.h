// Live key-range migration to a (typically newly added) memory server —
// the data plane of elastic scale-out.
//
// The unit of movement is the logical shard (a key range, the same unit the
// adaptive router plans in). Migration is copy-then-flip at leaf
// granularity, concurrent with live traffic:
//
//   per leaf L (old address A on a source MS, fences [la, ha)):
//     1. lock A via HOCL — writers on either path now block or decline;
//        lock-free readers keep reading A (its content stays intact);
//     2. allocate N in a shard-private chunk on the target MS and RDMA-
//        WRITE A's bytes there (versions/checksum copied verbatim);
//     3. tombstone A: set its free flag (content otherwise intact).
//        Readers holding A's address now bounce and re-traverse — this
//        MUST precede the flip, or a reader could serve A's frozen
//        content after a newer write already landed on N;
//     4. FLIP: lock the level-1 parent covering la, swap its child pointer
//        A -> N, seal, write back + release (one doorbell). From this
//        instant every fresh descent resolves to N (readers spin on
//        restart for the couple of round trips between 3 and 4);
//     5. repair the B-link chain: lock the left neighbor (the previously
//        migrated leaf, or the leaf covering la-1) and point its sibling
//        at N; retire A; then release A's lock.
//
//   Step 4 is the commit. What follows it (TreeClient::FinishFlip) and
//   what undoes steps 2-3 when it fails (TreeClient::RollBackFlip: revive
//   A, retire N) are the tails a survivor replays after a crash, so each
//   exists once.
//
//   Level-1 internal nodes rebuilt in the second phase flip BEFORE they
//   tombstone: internal content is routing info only, stale routing is
//   healed by fence checks + sibling chases, so there is no stale-read
//   window to close and no reason to make readers spin.
//
//   Staleness detection is end-to-end, not broadcast: an in-flight op
//   holding the pre-flip address lands on the tombstone, fails the
//   free/fence validation that guards every read, invalidates its cached
//   translation, and re-traverses through the flipped parent. The shard
//   map's version/epoch bump redirects RPC-path routing, and the migrator
//   additionally drops cached level-1 translations for the moved range on
//   every compute server at flip time (the epoch-bump broadcast), saving
//   each client one wasted READ + restart per key.
//
//   After the leaf walk, level-1 internal nodes fully contained in the
//   range are rebuilt on the target the same way (lock, copy, flip the
//   level-2 parent, repair siblings, tombstone), so the shard's covering
//   index structure is target-local too. Splits that race ahead of the
//   walk can leave fresh leaves on other servers (compute-side allocation
//   is round-robin), so MigrateRange re-walks the range in bounded passes
//   until a pass moves nothing; under sustained writes a residual may
//   remain (counted, never incorrect — the tree stays a single coherent
//   B-link tree wherever its nodes live).
//
// All copy traffic runs through one compute server's QPs as ordinary
// simulated round trips, so migration cost and interference are visible to
// the fabric model and the benchmarks.
#ifndef SHERMAN_MIGRATE_MIGRATOR_H_
#define SHERMAN_MIGRATE_MIGRATOR_H_

#include <cstdint>

#include "core/btree.h"
#include "migrate/shard_map.h"
#include "route/router.h"

namespace sherman::migrate {

struct MigratorOptions {
  int cs_id = 0;  // compute server whose QPs/locks drive the copy
};

class Migrator {
 public:
  // `map` and `router` are optional: a bare ShermanSystem can migrate raw
  // key ranges; a HybridSystem passes both so MigrateShard can resolve
  // shard bounds and flip the routing entry. Counts into the system's
  // registry as migrate.*.
  Migrator(ShermanSystem* system, MigratorOptions options,
           ShardMap* map = nullptr, route::AdaptiveRouter* router = nullptr);

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  // Moves every leaf (and contained level-1 node) whose fence interval
  // intersects [lo, hi) onto `target_ms`, concurrently with live traffic.
  // Requires a tree of height >= 2 (the root itself is never migrated).
  sim::Task<Status> MigrateRange(Key lo, Key hi, uint16_t target_ms);

  // Shard-level wrapper: resolves the shard's bounds from the router,
  // migrates the range, then flips the shard's home in the shard map and
  // bumps its version/epoch. Requires map + router.
  sim::Task<Status> MigrateShard(int shard, uint16_t target_ms);

 private:
  // One walk over [lo, hi): moves every off-target leaf; `*moved` counts
  // relocations.
  sim::Task<Status> LeafPass(Key lo, Key hi, uint16_t target, uint64_t* moved);
  // Moves level-1 internal nodes contained in [lo, hi) onto the target.
  sim::Task<Status> InternalPass(Key lo, Key hi, uint16_t target);

  // The shared copy/flip core both passes use: moves the LOCKED node whose
  // content is in `*buf` (level `level`, covering `cursor`) to `target`,
  // releases the lock in every outcome, and on success stores the copy's
  // address in `*naddr_out`; Retry means an internal node found no free
  // intent slot and nothing changed. Up to the commit (ReplaceChild) it
  // owns the one safety-critical ordering difference between the levels
  // (a leaf tombstones before the flip); the tails are the flip replay's
  // own: TreeClient::RollBackFlip when the flip fails (the copy retired),
  // TreeClient::FinishFlip after it, waiting (Acquire::kWait) for the
  // left neighbour and starting from `sibling_hint`, the node moved just
  // before when it is the neighbour.
  sim::Task<Status> MoveLockedNode(TreeClient::Locked locked,
                                   std::vector<uint8_t>* buf, uint8_t level,
                                   Key cursor, uint16_t target,
                                   rdma::GlobalAddress sibling_hint,
                                   rdma::GlobalAddress* naddr_out,
                                   OpStats* stats);

  // Swaps the child pointer `old_addr` -> `new_addr` in the level-`level`
  // node covering `key`, locked through TreeClient::LockCovering (`held` =
  // the node lock the caller already owns, for lane-collision detection),
  // re-resolving when the pointer is not there. Returns TimedOut after
  // kMaxRetries attempts, e.g. when a split's pending link leaves the
  // child reachable only through its left sibling.
  sim::Task<Status> ReplaceChild(Key key, uint8_t level,
                                 rdma::GlobalAddress old_addr,
                                 rdma::GlobalAddress new_addr,
                                 rdma::GlobalAddress held, OpStats* stats);

  // Bump allocation in shard-private chunks RPC'd from the target MS.
  sim::Task<rdma::GlobalAddress> AllocOnTarget(uint16_t ms, uint32_t size);

  // Host-memory (control-plane) count of live leaves overlapping [lo, hi)
  // that are not on `target` — the residual metric when passes run out.
  uint64_t CountOffTarget(Key lo, Key hi, uint16_t target) const;

  TreeClient& tc() { return system_->client(options_.cs_id); }
  uint32_t node_size() const { return system_->options().shape.node_size; }

  ShermanSystem* system_;
  MigratorOptions options_;
  ShardMap* map_;
  route::AdaptiveRouter* router_;

  uint16_t chunk_ms_ = 0;
  rdma::GlobalAddress chunk_base_ = rdma::kNullAddress;
  uint64_t chunk_used_ = 0;

  // migrate.*: data volume moved, protocol work per phase, and how far
  // the bounded-pass drain converged.
  obs::Counter* shards_migrated_;  // MigrateShard calls that completed
  obs::Counter* ranges_migrated_;  // MigrateRange calls that completed
  obs::Counter* leaves_moved_;
  obs::Counter* internals_moved_;  // level-1 nodes rebuilt on the target
  obs::Counter* passes_;           // copy passes across all ranges
  obs::Counter* bytes_copied_;     // node payload written to target MSs
  obs::Counter* chunk_rpcs_;       // shard-private chunks fetched
  obs::Counter* sibling_fixes_;    // left-neighbor sibling pointers repaired
  obs::Counter* residual_leaves_;  // still off-target when passes ran out
  obs::Counter* source_nodes_freed_;  // tombstoned sources retired for reuse
  obs::Counter* flips_;            // shard-map version bumps issued
  obs::Counter* busy_ns_;          // simulated time spent inside migration
  // Trace context on the shared migrator ring. A Migrator runs one
  // migration coroutine chain at a time, so mutating scopes are safe.
  obs::TraceCtx trace_;
};

}  // namespace sherman::migrate

#endif  // SHERMAN_MIGRATE_MIGRATOR_H_
