// Append-only fabric capture log (shredcap-style record/replay).
//
// With a CaptureLog attached (Fabric::SetCapture), the fabric appends one
// record for every COMMITTED wire delivery, on either engine, at the instant
// the sender commits it (Fabric::CommitDelivery): a plan-less send, each
// datagram copy (a duplicated copy is its own record), and the reliable
// channel's winner — the first transmitted copy, the one the receiver
// accepts. Dropped messages, suppressed duplicates, and retransmit copies
// the receiver will discard never appear. Loopback (src == dst) never hits
// the wire and is not captured. One corner is inherited from the reliable
// channel itself: a sender that gives up after its winner was committed
// keeps that winner's record although the delivery is withdrawn (exactly on
// the serial engine, best effort on the parallel one; DESIGN.md §5's
// fail-after-transmit corner). The capture is still deterministic — the same
// configuration commits the same record either way.
//
// Records are sharded per sending node (in parallel mode a shard is written
// only by its owner's worker, the same discipline as the fabric's stats
// shards) and carry a per-shard sequence number. Canonical() merges the
// shards sorted by (time, src, src_seq) — an order that is identical at
// every worker count because each source's send stream is.
//
// The payload hash is FNV-1a over (kind, size, receiver_delay): the fabric
// simulates no payload bytes, so the hash covers everything that determines
// a delivery's effect.

#ifndef FRAGVISOR_SRC_NET_CAPTURE_H_
#define FRAGVISOR_SRC_NET_CAPTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/time.h"

namespace fragvisor {

struct CaptureRecord {
  TimeNs time = 0;          // committed arrival instant at dst
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint8_t kind = 0;         // MsgKind
  uint64_t payload_hash = 0;
  uint64_t src_seq = 0;     // per-src commit order

  bool operator==(const CaptureRecord& o) const {
    return time == o.time && src == o.src && dst == o.dst && kind == o.kind &&
           payload_hash == o.payload_hash && src_seq == o.src_seq;
  }
  bool operator!=(const CaptureRecord& o) const { return !(*this == o); }
};

class CaptureLog {
 public:
  explicit CaptureLog(int num_nodes);

  int num_nodes() const { return static_cast<int>(shards_.size()); }
  uint64_t total_records() const;

  // Appends one committed delivery to src's shard. Called by the fabric; in
  // parallel mode only ever from src's own worker thread.
  void Record(NodeId src, NodeId dst, MsgKind kind, uint64_t size, TimeNs time,
              TimeNs receiver_delay);

  // Shards merged into the canonical (time, src, src_seq) order.
  std::vector<CaptureRecord> Canonical() const;

  // Wire form: a sim::Snapshot container holding the canonical record list
  // plus an opaque caller-provided config blob (the replayer re-runs the
  // captured configuration from it). Load returns false and sets `error`
  // without touching `out` on any malformed input.
  std::string Serialize(const std::string& config_blob) const;
  static bool Deserialize(const std::string& data, std::string* config_blob,
                          std::vector<CaptureRecord>* out, std::string* error);

  // Human-readable one-line form of a record, for divergence reports.
  static std::string Describe(const CaptureRecord& r);

 private:
  std::vector<std::vector<CaptureRecord>> shards_;  // [src] in commit order
};

// First index at which the two canonical record lists diverge (a differing
// record, or one list ending early), or -1 when identical.
int64_t CaptureDiverge(const std::vector<CaptureRecord>& expected,
                       const std::vector<CaptureRecord>& actual);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_NET_CAPTURE_H_
