// Recoverer: survivor-driven repair of a crashed client's in-doubt state.
//
// Triggered when any lock waiter observes an expired lease (HoclClient's
// recovery hook), or explicitly by an operator/failure detector (tests,
// bench_recover). Exactly one survivor acts at a time per dead client,
// serialized by a CAS-claimed recovery word on MS 0 — the claim itself
// carries a lease stamp, so a recoverer that crashes mid-recovery is
// re-claimed and recovery re-runs (every step below is idempotent).
//
// Protocol, per dead client:
//  1. CLAIM the client's recovery word (CAS 0 -> my tag+stamp).
//  2. READ its intent slab (the write-ahead records of every structural
//     op that was between its first and last remote write — see
//     recover/intent.h).
//  3. SWEEP the client's lock lanes on every MS (kRpcSweepLocks): after
//     the sweep, survivors and the recoverer itself lock torn nodes with
//     the ordinary HOCL protocol. This is safe BEFORE the intents are
//     resolved because every torn state is either invisible behind
//     fence/free-flag validation (readers bounce, writers re-verify under
//     their locks) or B-link-legal (a half-split is served through
//     sibling chases). Coroutines of this survivor parked on the
//     recovery (RecoverDeadOwner) re-contend from here.
//  4. RESOLVE each intent: replay it forward if its commit point landed,
//     roll it back if not (per-op decision rules in recoverer.cc). Where
//     it can, a resolution is the op's own code: a split's ascent is
//     TreeClient::InsertInternal, a flip's tails are TreeClient::FinishFlip
//     and RollBackFlip, and every repair lock is a TreeClient::LockCovering
//     attempt, which drops the translation that steered a failed lock. The
//     dead client's reclamation-epoch pins are still held here, so no
//     tombstoned node the resolution reads can be recycled under it.
//     Orphaned allocations (unpublished split siblings, unflipped
//     migration copies) are retired through the epoch-protected free
//     path so crashes don't leak remote memory.
//  5. Release the dead client's epoch pins (ReclaimEpoch::MarkDead) —
//     node recycling, frozen fabric-wide since the crash, resumes.
//  6. RELEASE the claim.
#ifndef SHERMAN_RECOVER_RECOVERER_H_
#define SHERMAN_RECOVER_RECOVERER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/btree.h"
#include "recover/intent.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sherman::recover {

class Recoverer {
 public:
  // Counts into the deployment's registry as recover.*, shared by every
  // survivor's recoverer.
  Recoverer(ShermanSystem* system, TreeClient* client);

  ~Recoverer();

  Recoverer(const Recoverer&) = delete;
  Recoverer& operator=(const Recoverer&) = delete;

  // Recovers the client owning lock tag `dead_tag` (cs id = tag - 1).
  // PRECONDITION (fail-stop model): the client must actually be dead —
  // expired-lease detection establishes this on the organic path, and an
  // explicit caller (failure detector, test) must know it independently.
  // Recovering a live client would sweep locks it still holds.
  // Re-entrant: if this survivor is already recovering that tag, parks
  // until that recovery has swept the dead client's lanes (or ended), so
  // the calling lock waiter re-contends once, against a released lane. If
  // another survivor holds the claim, waits for it to finish instead of
  // duplicating the work.
  sim::Task<void> RecoverDeadOwner(uint16_t dead_tag);

  // Simulated duration of this survivor's last recovery (0 if none).
  sim::SimTime last_duration_ns() const { return last_duration_ns_; }

 private:
  // CAS-claims dead_cs's recovery word. Returns the claimed (stamped)
  // value this recoverer now owns, or 0 if another survivor completed the
  // recovery while we waited.
  sim::Task<uint64_t> ClaimDeadClient(int dead_cs);
  // CAS-transitions the claim from *expected to `desired` (renewal, or 0
  // to release). On success updates *expected and returns true; on
  // failure the claim was usurped (our lease on it expired and another
  // survivor took over) — the caller must STOP recovering, without
  // touching the word: every step is idempotent, so abandoning
  // mid-recovery is safe and the usurper finishes the job.
  sim::Task<bool> CasClaim(int dead_cs, uint64_t* expected, uint64_t desired);

  sim::Task<void> SweepLocks(uint16_t dead_tag);
  sim::Task<void> ClearRemoteSlot(int dead_cs, int slot);
  sim::Task<void> FreeNodeRemote(rdma::GlobalAddress addr);

  // Each resolver returns OK when the intent is fully resolved (safe to
  // clear) and an error when it could not make progress — e.g. a node it
  // needs is held by a live client that is itself parked on this very
  // recovery (lane aliasing can build such cycles). Giving up is safe:
  // the claim is released with the intent still published, the parked
  // client unwedges against the already-swept lanes, and the next trigger
  // re-runs the (idempotent) resolution without the cycle.
  sim::Task<Status> RecoverIntent(const IntentRecord& rec);
  sim::Task<Status> RecoverRoot(const IntentRecord& rec);
  sim::Task<Status> RecoverSplit(const IntentRecord& rec);
  sim::Task<Status> RecoverMerge(const IntentRecord& rec);
  sim::Task<Status> RecoverFlip(const IntentRecord& rec);

  // Is a separator entry with key `sep` present in the live internal node
  // at `level` covering it?
  sim::Task<bool> SeparatorPresent(Key sep, uint8_t level);

  uint32_t node_size() const;

  ShermanSystem* system_;
  TreeClient* t_;
  // Dead tags this survivor is recovering, each with the coroutines
  // parked on that recovery (see RecoverDeadOwner).
  std::map<uint16_t, sim::CoroQueue> in_progress_;
  obs::Counter* recoveries_;          // completed claim->release cycles
  obs::Counter* partial_recoveries_;  // gave up on a contended intent;
                                      // retried on the next trigger
  obs::Counter* intents_replayed_;    // completed forward past their commit
  obs::Counter* intents_rolled_back_;
  obs::Counter* lanes_swept_;         // lock lanes released across all MSs
  obs::Counter* orphans_freed_;       // nodes retired via the epoch-free path
  sim::SimTime last_duration_ns_ = 0;
  // Trace context on this survivor's recoverer ring; RecoverDeadOwner and
  // its resolvers run as one sequential coroutine chain per activation.
  obs::TraceCtx trace_;
};

}  // namespace sherman::recover

#endif  // SHERMAN_RECOVER_RECOVERER_H_
