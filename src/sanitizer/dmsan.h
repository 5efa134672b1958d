// DMSan: a remote-memory race detector and protocol-invariant sanitizer
// for the simulated RDMA fabric.
//
// Sherman's correctness rests on protocol discipline no compiler checks:
// every remote write to a live tree node must happen under that node's
// held (and unexpired) HOCL lock lane; freed nodes must not be touched
// until their reclamation epoch retires; multi-write structural ops must
// publish an intent record before their first covered write; torn
// versioned reads must be re-validated before their bytes are consumed;
// and the lock table / root pointer may only be mutated through the
// blessed HoclClient / root-swap APIs. ASan catches *host* memory bugs —
// DMSan watches the *remote* address space for exactly the class of bug
// PRs 3-5 kept finding by hand.
//
// Mechanism: a pure observer keyed off the single-threaded simulator. The
// Qp layer reports every work request at post time (program order), and
// the protocol layers feed ownership transitions (lock acquire, node
// alloc/free/publish, lane sweeps, MS-side RPC mutations). The checker
// maintains shadow state per remote address range — allocation state,
// owning lock lane + lease stamp, open intent slots, and a taint bit per
// unvalidated read buffer — and verifies five rule classes:
//
//   V1  remote write to a live node without holding its lock lane, or
//       with an expired lease (write-after-steal), or to another CS's
//       private (not yet published) node;
//   V2  read/write of a freed-or-grace-parked node by a client holding
//       no protective epoch pin (remote use-after-free);
//   V3  structural write tagged with an intent slot that is not
//       currently published (first write before publish, or a write
//       after the slot cleared);
//   V4  a torn/versioned lock-free read whose buffer is consumed as a
//       remote-write source without version re-validation;
//   V5  a mutation of a lock-table word or the root pointer that
//       bypasses the HoclClient / root-swap APIs;
//   V6  a node freed while a leaf-hint entry still maps to it (the hint
//       sidecar must invalidate BEFORE the free, or a hinted lookup could
//       land a READ on recycled memory without fence/role protection).
//
// DMSan never touches simulated state: runs with the checker attached are
// simulation-identical to runs without it (determinism_test relies on
// this). Reports carry both racing actors and a flight-recorder dump of
// their trace rings; by default a violation hard-fails the process
// (SHERMAN_CHECK), which tests can downgrade to recorded findings.
//
// Switching: compile-time default via -DSHERMAN_DMSAN=ON (CMake ->
// SHERMAN_DMSAN_DEFAULT), overridable at runtime with SHERMAN_DMSAN=1/0
// in the environment. ShermanSystem attaches a checker to its simulator
// when enabled; raw-fabric unit tests construct no system and are
// unchecked.
#ifndef SHERMAN_SANITIZER_DMSAN_H_
#define SHERMAN_SANITIZER_DMSAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lock/hocl.h"
#include "lock/lock_table.h"
#include "obs/trace.h"
#include "rdma/global_address.h"
#include "rdma/verbs.h"
#include "sim/simulator.h"

namespace sherman {
class ReclaimEpoch;
}

namespace sherman::dmsan {

// One detected protocol violation.
struct Violation {
  int rule = 0;  // 1..5 (V1..V5)
  std::string message;
  rdma::GlobalAddress addr;   // remote address at fault
  int actor_cs = -1;          // compute server issuing the access
  int other_actor = -1;       // second party (lane owner, node owner), -1 none
  uint64_t sim_time = 0;
};

class Checker {
 public:
  struct Config {
    uint32_t node_size = 0;
    HoclOptions lock;            // lane hash mode + lease arithmetic
    const ReclaimEpoch* reclaim = nullptr;
    obs::Tracer* tracer = nullptr;
    sim::Simulator* sim = nullptr;
  };

  explicit Checker(Config cfg);

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // --- feed: allocation state ---------------------------------------------
  // A node-sized region became private to `cs` (bump alloc, recycled node,
  // CS-local free-bin reuse re-entering circulation).
  void OnNodeAllocated(int cs, rdma::GlobalAddress addr, uint32_t size);
  // A private node became reachable from the tree (split commit, new root
  // install, migration child swap, bulk load): writes now require the lane.
  void PublishNode(rdma::GlobalAddress addr, uint8_t level);
  // A node parked on `ms`'s grace list at `epoch` (kRpcFreeNode or the
  // MS-side merge); stays kFreed until recycled via OnNodeAllocated.
  // Reports V6 if a leaf-hint entry still maps to the node.
  void OnNodeFreed(int ms, uint64_t offset, uint32_t size, uint64_t epoch);

  // --- feed: leaf-hint sidecar (src/cache/leaf_hints.h) --------------------
  // The MS directory published / dropped a hint entry pointing at `addr`.
  void OnHintPublished(rdma::GlobalAddress addr);
  void OnHintInvalidated(rdma::GlobalAddress addr);

  // --- feed: lock state ----------------------------------------------------
  // The masked-CAS acquire succeeded (called at completion, so the shadow
  // held-window is a subset of the actual held-window).
  void OnLockAcquired(int cs, const GlobalLockRef& ref, uint16_t lane_value);
  // Explicit release for the FAA-release ablation (the arithmetic release
  // cannot be decoded from the posted WR). Write-releases are decoded.
  void OnLockReleased(int cs, const GlobalLockRef& ref);
  // kRpcSweepLocks released every lane owned by `owner_tag` on `ms`.
  void OnLanesSwept(int ms, uint16_t owner_tag);
  // `cs` was declared dead (crash injection). Its in-flight shadow state
  // goes conservative: private nodes become live (a posted-but-unacked
  // commit batch may have published them; survivors then write them under
  // fresh locks) and all taints drop (the dead coroutines' heap buffers
  // can be recycled at any address).
  void OnClientDead(int cs);

  // --- feed: value-log extents (src/vlog/) ----------------------------------
  // `cs` registered a vlog segment at [base, base+seg_bytes) on `ms`.
  // (The region's node shadow already exists via OnNodeAllocated; this
  // routes accesses inside it through the extent rules below.)
  void OnVlogSegment(int cs, rdma::GlobalAddress base, uint32_t seg_bytes,
                     uint32_t cls);
  // `cs` is about to write the extent [addr, addr+bytes) (private append).
  void OnVlogAppend(int cs, rdma::GlobalAddress addr, uint32_t bytes);
  // The append landed: the extent is immutable and readable fabric-wide.
  void OnVlogPublish(rdma::GlobalAddress addr);
  // The extent went dead at `epoch` (delete/update/GC relocation); reads
  // past the grace window without an epoch pin are V2, writes are V2.
  void OnVlogRetire(int ms, uint64_t offset, uint64_t epoch);

  // --- feed: MS-side executor ---------------------------------------------
  // The RPC executor on `ms` is about to mutate `node` through host memory
  // (it declines locked nodes, so a shadow-held lane here is a real race).
  void OnRpcMutate(int ms, rdma::GlobalAddress node);

  // --- feed: validation ----------------------------------------------------
  // A lock-free read of [buf, buf+len) passed version/checksum validation.
  void NoteValidated(const void* buf, uint32_t len);

  // --- check: every posted work request ------------------------------------
  // Called from Qp::PostBatch / PostReadBatch in program order at post
  // time (single-threaded simulator: post order == decision order).
  void OnWr(int cs, const rdma::WorkRequest& wr);

  // --- reports -------------------------------------------------------------
  void set_abort_on_violation(bool abort) { abort_on_violation_ = abort; }
  const std::vector<Violation>& findings() const { return findings_; }
  void ClearFindings() { findings_.clear(); }
  uint64_t checked_wrs() const { return checked_wrs_; }
  uint64_t tracked_nodes() const;

 private:
  enum class NodeState : uint8_t { kPrivate, kLive, kFreed };
  struct NodeShadow {
    NodeState state = NodeState::kPrivate;
    int owner_cs = -1;       // kPrivate: owning CS
    uint8_t level = 0;       // kLive
    bool hinted = false;     // a leaf-hint entry maps to this node
    uint32_t size = 0;
    uint64_t freed_epoch = 0;  // kFreed
  };
  struct LaneShadow {
    uint16_t lane = 0;  // 0 = free
  };
  struct Taint {  // keyed by the buffer's first byte in taints_
    rdma::GlobalAddress src;
    uintptr_t end = 0;
    uint64_t at = 0;  // sim time of the read post
  };
  enum class VExtState : uint8_t { kAppending, kLive, kDead };
  struct VExtShadow {
    VExtState state = VExtState::kAppending;
    int owner_cs = -1;
    uint32_t size = 0;
    uint64_t dead_epoch = 0;
  };
  struct VSegShadow {
    uint32_t seg_bytes = 0;
    uint32_t cls = 0;
    int owner_cs = -1;
  };

  // Shadow lookups.
  // The shadow of the node covering (ms, offset), or null; *base gets
  // the node's base offset.
  NodeShadow* FindNode(uint16_t ms, uint64_t offset, uint64_t* base = nullptr);
  // `ms`'s node shadows, growing the index on first use.
  std::map<uint64_t, NodeShadow>& NodesOn(uint16_t ms);
  VExtShadow* FindVExtent(uint16_t ms, uint64_t offset);
  uint64_t NodeBase(uint16_t ms, const NodeShadow* n) const;
  uint64_t LaneKey(const GlobalLockRef& ref) const {
    return (static_cast<uint64_t>(ref.ms) << 33) |
           (static_cast<uint64_t>(ref.space == rdma::MemorySpace::kDevice)
            << 32) |
           ref.index;
  }

  bool LaneExpired(uint16_t lane) const;  // replicates HoclClient's math
  bool HoldsLane(int cs, rdma::GlobalAddress node_base, uint16_t* lane_out,
                 int* owner_out) const;
  bool InLockRegion(const rdma::WorkRequest& wr) const;
  bool OnRootWord(const rdma::WorkRequest& wr) const;

  void CheckWrite(int cs, const rdma::WorkRequest& wr);
  void CheckRead(int cs, const rdma::WorkRequest& wr);
  void DecodeLaneWrite(int cs, const rdma::WorkRequest& wr);
  void DecodeIntentWrite(const rdma::WorkRequest& wr);
  void AddTaint(int cs, const rdma::WorkRequest& wr);
  // The first taint that can overlap a range starting at `begin`.
  std::map<uintptr_t, Taint>::iterator TaintsFrom(uintptr_t begin);
  void DropTaintOverlapping(uintptr_t begin, uintptr_t end);

  void Report(int rule, rdma::GlobalAddress addr, int actor, int other,
              std::string message);

  Config cfg_;
  bool abort_on_violation_ = true;

  // Node shadows indexed by MS id: (node base offset -> shadow). Ranges
  // never overlap. Indexing by id leaves one ordered lookup per WR.
  std::vector<std::map<uint64_t, NodeShadow>> nodes_;
  // ms -> (segment base -> shadow) and (extent offset -> shadow).
  std::map<uint16_t, std::map<uint64_t, VSegShadow>> vsegs_;
  std::map<uint16_t, std::map<uint64_t, VExtShadow>> vexts_;
  std::map<uint64_t, LaneShadow> lanes_;
  // cs -> bitmap of published intent slots (decoded from slab writes).
  std::map<int, uint32_t> intent_live_;
  // Local buffers holding unvalidated lock-free reads, by first byte.
  // AddTaint drops every overlap first, so the ranges never overlap.
  std::map<uintptr_t, Taint> taints_;

  std::vector<Violation> findings_;
  uint64_t checked_wrs_ = 0;
};

// --- registry ---------------------------------------------------------------
// Checkers attach per simulator; the zero-cost fast path for unchecked
// builds/runs is a single global counter test.
extern int g_active_count;
inline bool Active() { return g_active_count > 0; }

void Attach(sim::Simulator* sim, Checker* checker);
void Detach(sim::Simulator* sim);
Checker* Find(sim::Simulator* sim);

// Taint clearing from contexts without a simulator pointer (free-function
// parsers): forwards to every attached checker.
void NoteValidatedAll(const void* buf, uint32_t len);

// SHERMAN_DMSAN=1/0 in the environment overrides the compile-time default
// (-DSHERMAN_DMSAN=ON -> SHERMAN_DMSAN_DEFAULT=1).
bool DefaultEnabled();

}  // namespace sherman::dmsan

#endif  // SHERMAN_SANITIZER_DMSAN_H_
