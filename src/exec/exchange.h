// Exchange fabric: moves tables between the tasks of adjacent stages.
//
// This implements the paper's data communication API (§5: "shuffle and
// broadcast ... transparently dispatch I/O requests to shared memory or
// external storage, according to the co-location of the upstream and
// downstream tasks"). That choice is made once per (producer, consumer)
// pipe, when the Exchange is built:
//   * a LOCAL pipe (both tasks on the same server) hands the consumer
//     the producer's shared_ptr<const Table> — no serialization, no copy;
//   * a REMOTE pipe serializes each chunk into the ObjectStore under
//     `<prefix>/<producer>-<consumer>/<chunk>` and deserializes it on
//     the consumer side.
// Everything else — when a chunk becomes visible, when a stream rolls
// back, when the edge is cancelled — is per-producer stream state under
// the exchange's one lock, shared by both kinds of pipe. Exchange stats
// expose which path each message took, so tests and examples can verify
// the zero-copy claim end to end.
//
// Resilience contract (what makes duplicate task execution safe):
//   * send() is IDEMPOTENT per producer — the first publish wins, later
//     publishes of the same producer index are discarded. Remote
//     payloads live under deterministic keys, so a re-publish after a
//     partial failure overwrites byte-identical data.
//   * send_chunked() generalizes the same contract to chunk
//     granularity: a producer's output is published as a sequence of
//     fixed-size row chunks under deterministic (producer, chunk-seq)
//     keys, each chunk accepted exactly once (concurrent duplicate
//     attempts cooperatively claim the next unpublished chunk), and a
//     partial-failure rollback restarts the stream from chunk 0 —
//     deterministic stage functions re-produce byte-identical chunks,
//     so a consumer that already read part of the old stream observes
//     an indistinguishable sequence. See DESIGN.md §14.
//   * reads are NON-DESTRUCTIVE — recv_all() drains a ChunkCursor,
//     which reads the routed payloads without consuming them, so a
//     speculative duplicate of a consumer task gathers exactly what the
//     original saw.
//   * remote puts/gets run under a RetryPolicy (capped exponential
//     backoff), so transient storage errors injected by a FlakyStore
//     are absorbed inside the fabric.
//   * reset_producer() restarts one producer's stream after a server
//     loss so the engine can re-run the producer task and re-publish
//     its lost zero-copy intermediates (remote data survives in the
//     object store and is simply overwritten identically).
//   * cancel() is terminal: every blocked and later read and publish
//     fails UNAVAILABLE, and no reset or re-publish revives the edge.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dag/types.h"
#include "exec/partition.h"
#include "exec/serde.h"
#include "exec/table.h"
#include "faults/retry_policy.h"
#include "storage/object_store.h"

namespace ditto::exec {

struct ExchangeStats {
  std::size_t zero_copy_messages = 0;
  std::size_t remote_messages = 0;
  Bytes remote_bytes = 0;
  std::size_t duplicate_publishes = 0;  ///< idempotently discarded sends
  std::size_t storage_retries = 0;      ///< remote put/get retries absorbed
  std::size_t producers_reset = 0;      ///< server-loss recovery resets
  std::size_t chunks_published = 0;     ///< accepted chunk publishes (>=1 per producer)
  /// Chunks read by consumers, through recv_all() or a streaming
  /// cursor; each read of a chunk counts, a duplicate consumer's too.
  /// A read counts once the chunk is visible, before a remote get.
  std::size_t chunks_consumed = 0;
};

class Exchange;

/// Streaming consumer handle: yields the chunks routed to one consumer
/// in deterministic (producer-major, chunk-seq) order, blocking until
/// each chunk arrives — this is how a downstream task starts on the
/// first arrived chunk while upstream tasks are still running.
/// Non-destructive: a speculative duplicate consumer opening its own
/// cursor observes the identical sequence.
class ChunkCursor {
 public:
  /// Next chunk, or nullopt once every producer's stream is finished
  /// and drained. Fails UNAVAILABLE if the exchange is cancelled.
  Result<std::optional<std::shared_ptr<const Table>>> next();

  /// Bytes of chunk payload handed out so far (consumer-side I/O
  /// accounting for profiles).
  Bytes bytes_read() const { return bytes_; }

 private:
  friend class Exchange;
  ChunkCursor(Exchange* ex, std::size_t consumer) : ex_(ex), consumer_(consumer) {}

  Exchange* ex_;
  std::size_t consumer_;
  std::size_t producer_ = 0;
  std::size_t chunk_ = 0;
  Bytes bytes_ = 0;
};

/// All pipes of one DAG edge: producers x consumers.
class Exchange {
 public:
  /// `prod_servers[i]` / `cons_servers[j]` decide whether each pipe is
  /// local (same server) or remote (through `store` under `prefix`).
  /// `retry` (not owned, may be null) governs remote put/get retries.
  /// `scatter_pool` (not owned, may be null) parallelizes shuffle
  /// partitioning for large tables; it must only run pure compute
  /// tasks, so sharing it across exchanges cannot deadlock.
  Exchange(ExchangeKind kind, std::string partition_key,
           const std::vector<ServerId>& prod_servers,
           const std::vector<ServerId>& cons_servers, storage::ObjectStore& store,
           std::string prefix, const faults::RetryPolicy* retry = nullptr,
           ThreadPool* scatter_pool = nullptr);

  /// Producer `i` publishes its output table; the exchange routes
  /// partitions (shuffle), the whole table (broadcast/all-gather), or a
  /// 1:1 slice (gather) and then finishes producer i's stream. Idempotent:
  /// the first publish per producer wins, duplicates are discarded (and
  /// block until the winner's publish resolves, taking over if it
  /// failed), which is what makes speculative re-execution safe.
  Status send(std::size_t producer, Table table);

  /// Chunk-granular publish: splits `table` into `chunk_rows`-row
  /// slices (zero-copy when the columns are borrowed) and publishes
  /// them in sequence, each chunk visible to streaming consumers the
  /// moment it is routed. Idempotent at chunk granularity: concurrent
  /// duplicate attempts cooperatively claim the next unpublished chunk
  /// from a shared per-producer counter, so every chunk is routed
  /// exactly once no matter how attempts interleave. On a mid-stream
  /// routing failure the whole stream rolls back to chunk 0 and the
  /// call fails; the retrying attempt (or a concurrent duplicate)
  /// restarts from the rolled-back counter. `tick` (may be null) runs
  /// between chunks — the engine uses it to honor cancellation at
  /// chunk boundaries; a non-ok tick abandons the stream without
  /// rollback (the job is aborting anyway).
  /// send() is exactly send_chunked() with a single chunk.
  Status send_chunked(std::size_t producer, Table table, std::size_t chunk_rows,
                      const std::function<Status()>& tick = nullptr);

  /// Consumer `j` drains a cursor and concatenates everything routed to
  /// it, in the cursor's (producer-major, chunk-seq) order,
  /// deterministic regardless of timing. A lone part comes back
  /// borrowed, without a copy; several are copied once into exact-size
  /// columns. Non-destructive: duplicate consumers see identical input.
  Result<Table> recv_all(std::size_t consumer);

  /// Opens a streaming cursor for consumer `j`. recv_all() reads through
  /// one too, so pipelined and materialized execution see the same
  /// chunk order and stay bit-identical for order-preserving consumers.
  ChunkCursor open_cursor(std::size_t consumer) { return ChunkCursor(this, consumer); }

  /// Forgets producer `i`'s publish and drops its local (zero-copy)
  /// chunks; its remote chunks stay in the store. The engine then
  /// re-runs the producer task to re-publish. Used for server-loss
  /// recovery. After cancel() it revives nothing.
  void reset_producer(std::size_t producer);

  /// Cancels the edge for good (job abort): blocked and later cursors
  /// and publishes fail UNAVAILABLE.
  void cancel();

  /// True if any of producer `i`'s pipes is local (its chunks would be
  /// lost with the producer's server).
  bool producer_has_local_channel(std::size_t producer) const;

  ExchangeStats stats() const;

  std::size_t producers() const { return producers_; }
  std::size_t consumers() const { return consumers_; }

 private:
  friend class ChunkCursor;

  /// Per-producer chunk-stream state, guarded by mu_. The whole-table
  /// publish is the 1-chunk special case.
  struct ChunkStream {
    std::size_t accepted = 0;  ///< chunks fully routed to every consumer
    bool publishing = false;   ///< a chunk route is in flight
    bool finished = false;     ///< stream complete; cursors move past it
  };

  /// One (producer, consumer) pipe. `local` is fixed at construction.
  /// A local pipe that receives its producer's chunks holds chunk c in
  /// `chunks[c]`, exactly `accepted` of them (guarded by mu_); a remote
  /// pipe holds nothing — its chunks live in the store under key().
  struct Pipe {
    bool local = false;
    std::vector<std::shared_ptr<const Table>> chunks;
  };

  /// Routing telemetry of one publish attempt, committed to stats_ and
  /// the global metrics only when the publish wins (once per chunk
  /// index), so retries and recovery re-publishes don't inflate the
  /// counters.
  struct PendingStats {
    std::size_t zero_copy_messages = 0;
    std::size_t remote_messages = 0;
    Bytes zero_copy_bytes = 0;
    Bytes remote_bytes = 0;
  };

  Pipe& pipe(std::size_t i, std::size_t j) { return pipes_[i * consumers_ + j]; }
  const Pipe& pipe(std::size_t i, std::size_t j) const { return pipes_[i * consumers_ + j]; }
  /// Store key of chunk `chunk` on remote pipe (i, j).
  std::string key(std::size_t i, std::size_t j, std::size_t chunk) const;
  faults::RetryPolicy policy() const {
    return retry_ != nullptr ? *retry_ : faults::RetryPolicy{.max_attempts = 1};
  }
  /// Partitions chunk `chunk` of producer `producer` and puts its remote
  /// parts into the store. Returns the parts for local pipes, indexed by
  /// consumer (null where the consumer is remote or receives nothing);
  /// the caller installs them when it accepts the chunk.
  Result<std::vector<std::shared_ptr<const Table>>> route_chunk(std::size_t producer,
                                                                std::size_t chunk, Table table,
                                                                PendingStats& pending);
  /// Gets remote chunk (i, j, chunk) from the store (under the retry
  /// policy) and deserializes it; a missing or corrupt payload is an
  /// error.
  Result<std::shared_ptr<const Table>> fetch(std::size_t i, std::size_t j, std::size_t chunk);
  /// Adds one accepted chunk's routing to the global metrics and trace.
  static void record_route_metrics(const PendingStats& pending);
  /// Drops producer `i`'s local chunks (the lost server's shared
  /// memory, or a rolled-back stream). Requires mu_.
  void clear_local_chunks(std::size_t producer);
  /// ChunkCursor backend: next chunk for `consumer` at cursor position
  /// (producer, chunk); blocks until the chunk arrives or the stream
  /// finishes. nullopt = this producer drained, advance the cursor.
  Result<std::optional<std::shared_ptr<const Table>>> next_chunk(std::size_t consumer,
                                                                 std::size_t producer,
                                                                 std::size_t chunk);

  const ExchangeKind kind_;
  const std::string partition_key_;
  storage::ObjectStore* store_;
  const std::string prefix_;
  const faults::RetryPolicy* retry_;
  ThreadPool* scatter_pool_;
  std::size_t producers_;
  std::size_t consumers_;
  std::atomic<std::size_t> storage_retries_{0};

  /// The one lock of the edge: guards every member below and the
  /// chunks of every pipe. cv_ wakes cursors waiting for a chunk and
  /// publishers waiting for an in-flight route.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pipe> pipes_;  ///< producer-major: pipe(i, j) = pipes_[i * consumers_ + j]
  std::vector<ChunkStream> streams_;
  bool cancelled_ = false;  ///< terminal; fails blocked and later reads and publishes
  ExchangeStats stats_;
  /// Per-producer count of chunk indices already counted into stats_;
  /// survives reset_producer so re-publishes of a chunk don't recount.
  std::vector<std::size_t> stats_chunks_counted_;
};

}  // namespace ditto::exec
