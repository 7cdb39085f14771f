// DurabilityManager: the engine-facing facade over the WAL and checkpoint
// machinery. The engine serializes its own state (it owns the internals);
// the manager owns sequencing, framing, group commit, rotation, retention,
// and the recovery scan. Everything here runs on the scheduler thread.

#ifndef CAESAR_DURABILITY_MANAGER_H_
#define CAESAR_DURABILITY_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "durability/checkpoint.h"
#include "durability/durability.h"
#include "durability/wal.h"

namespace caesar {

// Everything Engine::Recover needs from disk, in one deterministic scan:
// the newest valid checkpoint (if any), the committed WAL batches beyond
// it, the recovery diagnostics, and where to continue writing.
struct RecoveryScan {
  bool checkpoint_found = false;
  CheckpointInfo checkpoint;
  std::vector<WalBatch> batches;  // batch_seq ascending
  std::vector<Diagnostic> diagnostics;  // I410/I411/I412/I413
  int64_t torn_tail_truncations = 0;
  int64_t checkpoints_skipped = 0;
  uint64_t next_batch_seq = 1;
  uint64_t next_segment_seq = 1;
};

Result<RecoveryScan> ScanForRecovery(const DurabilityOptions& options);

class DurabilityManager {
 public:
  // Fresh engine: starts a new segment after anything already in the
  // directory (never appends to, or clobbers, prior artifacts — recovery
  // reads them, a fresh start writes beside them).
  static Result<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options);

  // Recovered engine: continues at the sequence numbers the scan produced,
  // carrying the recovery counters forward.
  static Result<std::unique_ptr<DurabilityManager>> OpenAfterRecovery(
      const DurabilityOptions& options, const RecoveryScan& scan,
      Timestamp last_checkpoint_tick, int64_t replayed_events);

  // WAL-append of one tick's admitted events (write-ahead: called before
  // the tick is processed). Fails on a write error or an armed crash
  // hook.
  Status AppendTick(Timestamp t, const EventPtr* events, size_t n);

  // Seals the current Run batch with the engine's ingest snapshot and
  // group-commits per the fsync policy. Also size-rotates the segment.
  Status CommitBatch(std::string_view snapshot);

  // True when the checkpoint cadence is due at tick `t` (kWalCheckpoint
  // only; evaluated at Run batch boundaries).
  bool ShouldCheckpoint(Timestamp t) const;

  // Rotates the WAL, publishes a checkpoint of `engine_state` covering
  // everything committed so far, and applies retention.
  Status WriteCheckpoint(Timestamp t, std::string engine_state);

  // Sequence number the batch currently being appended will commit as.
  uint64_t pending_batch_seq() const { return last_committed_seq_ + 1; }

  // Highest batch sequence sealed by a commit record (durable under the
  // fsync policy). After recovery this is where the client resumes input.
  uint64_t durable_batch_seq() const { return last_committed_seq_; }

  const DurabilityCounters& counters() const { return counters_; }
  const DurabilityOptions& options() const { return options_; }

 private:
  DurabilityManager(DurabilityOptions options) : options_(std::move(options)) {}

  DurabilityOptions options_;
  std::unique_ptr<WalWriter> writer_;
  DurabilityCounters counters_;
  uint64_t last_committed_seq_ = 0;
  Timestamp last_checkpoint_tick_ = 0;
  bool cadence_anchored_ = false;
};

}  // namespace caesar

#endif  // CAESAR_DURABILITY_MANAGER_H_
