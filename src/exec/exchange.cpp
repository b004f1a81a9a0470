#include "exec/exchange.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ditto::exec {

Status LocalTableChannel::send(std::shared_ptr<const Table> table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return Status::unavailable("exchange canceled");
  items_.push_back(std::move(table));  // zero-copy: pointer moves
  cv_.notify_all();
  return Status::ok();
}

Result<std::shared_ptr<const Table>> LocalTableChannel::recv_at(std::size_t idx) const {
  std::unique_lock<std::mutex> lock(mu_);
  // Chunk `idx` becomes readable the moment it is buffered. A producer
  // reset clears items_, in which case we simply wait for the
  // byte-identical re-publish to refill the slot.
  cv_.wait(lock, [&] { return idx < items_.size() || aborted_; });
  if (aborted_) return Status::unavailable("exchange canceled");
  return items_[idx];
}

void LocalTableChannel::reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return;  // cancel is terminal; never resurrect readers
  items_.clear();  // the lost server's shared memory is gone
}

void LocalTableChannel::abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

Status RemoteTableChannel::send(std::shared_ptr<const Table> table) {
  std::size_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborted_) return Status::unavailable("exchange canceled");
    seq = next_send_;
  }
  const std::string key = prefix_ + "/" + std::to_string(seq);
  // Serialized once into a fresh exact-size payload that the store may
  // keep as is; a retried put hands over the same bytes again.
  const storage::Payload bytes = serialize_table(*table);
  DITTO_RETURN_IF_ERROR(faults::retry_status(
      policy(), "exchange.put", [&] { return store_->put_payload(key, bytes); },
      retry_counter_));
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_send_ = seq + 1;
    cv_.notify_all();
  }
  return Status::ok();
}

Result<std::shared_ptr<const Table>> RemoteTableChannel::fetch(std::size_t seq) const {
  const std::string key = prefix_ + "/" + std::to_string(seq);
  DITTO_ASSIGN_OR_RETURN(storage::Payload bytes,
                         faults::retry_result<storage::Payload>(
                             policy(), "exchange.get", [&] { return store_->get_payload(key); },
                             retry_counter_));
  // Zero-copy receive: fixed-width columns view the payload in place,
  // which the table keeps alive, so it outlives an overwrite or removal
  // of the key.
  DITTO_ASSIGN_OR_RETURN(Table table, deserialize_table(bytes));
  return std::make_shared<const Table>(std::move(table));
}

Result<std::shared_ptr<const Table>> RemoteTableChannel::recv_at(std::size_t idx) const {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return idx < next_send_ || aborted_; });
    if (aborted_) return Status::unavailable("exchange canceled");
  }
  // Chunk-seq deterministic key: a rollback between the wait and this
  // get is harmless — the durable bytes survive and the re-publish
  // overwrites them identically.
  return fetch(idx);
}

void RemoteTableChannel::reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return;  // cancel is terminal; never resurrect readers
  // Durable payloads survive in the store; the re-publish overwrites
  // the same deterministic keys with identical bytes.
  next_send_ = 0;
}

void RemoteTableChannel::abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

Exchange::Exchange(ExchangeKind kind, std::string partition_key,
                   const std::vector<ServerId>& prod_servers,
                   const std::vector<ServerId>& cons_servers, storage::ObjectStore& store,
                   std::string prefix, const faults::RetryPolicy* retry,
                   ThreadPool* scatter_pool)
    : kind_(kind),
      partition_key_(std::move(partition_key)),
      scatter_pool_(scatter_pool),
      producers_(prod_servers.size()),
      consumers_(cons_servers.size()),
      streams_(prod_servers.size()),
      stats_chunks_counted_(prod_servers.size(), 0) {
  channels_.reserve(producers_ * consumers_);
  for (std::size_t i = 0; i < producers_; ++i) {
    for (std::size_t j = 0; j < consumers_; ++j) {
      if (prod_servers[i] != kNoServer && prod_servers[i] == cons_servers[j]) {
        channels_.push_back(std::make_unique<LocalTableChannel>());
      } else {
        channels_.push_back(std::make_unique<RemoteTableChannel>(
            store, prefix + "/" + std::to_string(i) + "-" + std::to_string(j), retry,
            &storage_retries_));
      }
    }
  }
}

Status Exchange::route(std::size_t i, std::size_t j, std::shared_ptr<const Table> t,
                       PendingStats& pending) {
  TableChannel& ch = channel(i, j);
  const Bytes payload = t->byte_size();
  if (ch.is_zero_copy()) {
    ++pending.zero_copy_messages;
    pending.zero_copy_bytes += payload;
  } else {
    ++pending.remote_messages;
    pending.remote_bytes += payload;
  }
  return ch.send(std::move(t));
}

// Routing telemetry is committed once per (producer, chunk), on the
// chunk's first winning publish: failed-publish retries and server-loss
// re-publishes move the same logical data again and would otherwise
// inflate the zero-copy-vs-remote counters relative to the data
// actually exchanged.
void Exchange::commit_route_stats(std::size_t producer, std::size_t chunk,
                                  const PendingStats& pending) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (chunk < stats_chunks_counted_[producer]) return;
    stats_chunks_counted_[producer] = chunk + 1;
    ++stats_.chunks_published;
    stats_.zero_copy_messages += pending.zero_copy_messages;
    stats_.remote_messages += pending.remote_messages;
    stats_.remote_bytes += pending.remote_bytes;
  }
  // Global data-movement telemetry: counters prove how much of the
  // job's traffic stayed zero-copy, and the trace gains a cumulative
  // counter track per path (the engine-mode analogue of the sim's).
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (!mx.enabled()) return;
  obs::TraceCollector& tc = obs::TraceCollector::global();
  mx.counter("exchange.chunks_published").add();
  if (pending.zero_copy_messages > 0) {
    mx.counter("exchange.messages", {{"path", "zero_copy"}})
        .add(pending.zero_copy_messages);
    const std::uint64_t bytes =
        mx.counter("exchange.bytes", {{"path", "zero_copy"}}).add(pending.zero_copy_bytes);
    if (tc.enabled()) {
      tc.counter("exchange", "zero_copy_bytes", tc.now_us(), static_cast<double>(bytes), -1);
    }
  }
  if (pending.remote_messages > 0) {
    mx.counter("exchange.messages", {{"path", "remote"}}).add(pending.remote_messages);
    const std::uint64_t bytes =
        mx.counter("exchange.bytes", {{"path", "remote"}}).add(pending.remote_bytes);
    if (tc.enabled()) {
      tc.counter("exchange", "remote_bytes", tc.now_us(), static_cast<double>(bytes), -1);
    }
  }
}

// Routes one chunk of producer `i`'s output to its consumers. The
// chunk is partitioned/replicated exactly like a whole-table publish,
// which is what keeps chunked and materialized execution bit-identical:
// hash_partition preserves input row order within each partition, so
// the per-consumer concat of chunk partitions equals the partition of
// the concatenated chunks.
Status Exchange::route_chunk(std::size_t producer, std::size_t chunk, Table table) {
  obs::ScopedSpan span("exchange", "chunk");
  if (span.active()) {
    span.arg("producer", std::to_string(producer));
    span.arg("chunk", std::to_string(chunk));
    span.arg("rows", std::to_string(table.num_rows()));
  }
  PendingStats pending;
  switch (kind_) {
    case ExchangeKind::kShuffle: {
      DITTO_ASSIGN_OR_RETURN(std::vector<Table> parts,
                             hash_partition(table, partition_key_, consumers_, scatter_pool_));
      for (std::size_t j = 0; j < consumers_; ++j) {
        DITTO_RETURN_IF_ERROR(
            route(producer, j, std::make_shared<const Table>(std::move(parts[j])), pending));
      }
      break;
    }
    case ExchangeKind::kGather: {
      // One producer feeds exactly one consumer (paper §4.5 Fig. 7).
      const std::size_t j = producer % consumers_;
      DITTO_RETURN_IF_ERROR(
          route(producer, j, std::make_shared<const Table>(std::move(table)), pending));
      break;
    }
    case ExchangeKind::kBroadcast:
    case ExchangeKind::kAllGather: {
      // Every consumer receives the full chunk. The shared_ptr makes the
      // local copies free; remote consumers each pay serialization.
      const auto shared = std::make_shared<const Table>(std::move(table));
      for (std::size_t j = 0; j < consumers_; ++j) {
        DITTO_RETURN_IF_ERROR(route(producer, j, shared, pending));
      }
      break;
    }
  }
  commit_route_stats(producer, chunk, pending);
  return Status::ok();
}

void Exchange::count_duplicate_publish() {
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.duplicate_publishes;
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("exchange.duplicate_publishes").add();
}

namespace {

// Zero-copy view: rows [offset, offset+count) of `owner`, with
// fixed-width columns borrowing the owner's storage instead of copying
// (Table::slice would memcpy owned columns). String columns still copy:
// they are never borrowed.
Table table_view(const std::shared_ptr<const Table>& owner, std::size_t offset,
                 std::size_t count) {
  std::vector<Column> cols;
  cols.reserve(owner->num_columns());
  for (std::size_t c = 0; c < owner->num_columns(); ++c) {
    const Column& col = owner->column(c);
    switch (col.type()) {
      case DataType::kInt64:
        cols.push_back(Column::borrow_ints(owner, col.int_span().data() + offset, count));
        break;
      case DataType::kDouble:
        cols.push_back(
            Column::borrow_doubles(owner, col.double_span().data() + offset, count));
        break;
      default:
        cols.push_back(col.slice(offset, count));
        break;
    }
  }
  auto t = Table::make(owner->schema(), std::move(cols));
  return t.ok() ? std::move(t).value() : owner->slice(offset, count);
}

}  // namespace

Status Exchange::send_chunked(std::size_t producer, Table table, std::size_t chunk_rows,
                              const std::function<Status()>& tick) {
  if (producer >= producers_) return Status::out_of_range("bad producer index");
  if (chunk_rows == 0) return Status::invalid_argument("chunk_rows must be > 0");

  const std::size_t rows = table.num_rows();
  // Always at least one chunk: a zero-row output still publishes its
  // (empty, schema-bearing) table, exactly like the whole-table path.
  const std::size_t nchunks = rows == 0 ? 1 : (rows + chunk_rows - 1) / chunk_rows;
  const auto owner = std::make_shared<const Table>(std::move(table));

  // Chunk-granular idempotence gate: concurrent attempts of the same
  // producer (speculative duplicates, post-failure retries) claim the
  // next unpublished chunk from the shared `accepted` counter, so each
  // chunk is routed exactly once regardless of interleaving, and a
  // rolled-back stream is re-driven by whichever attempt iterates
  // next. Stage functions are deterministic and chunk_rows is fixed
  // per edge, so every attempt slices byte-identical chunks.
  bool claimed_any = false;
  for (;;) {
    std::size_t c;
    {
      std::unique_lock<std::mutex> lock(pub_mu_);
      pub_cv_.wait(lock, [&] { return !streams_[producer].publishing; });
      if (cancelled_) return Status::unavailable("exchange canceled");
      ChunkStream& s = streams_[producer];
      if (s.finished) {
        lock.unlock();
        if (!claimed_any) count_duplicate_publish();
        return Status::ok();
      }
      if (s.accepted >= nchunks) {
        // Every chunk is routed; this attempt seals the stream.
        s.finished = true;
        lock.unlock();
        pub_cv_.notify_all();
        return Status::ok();
      }
      c = s.accepted;
      s.publishing = true;
    }

    if (tick != nullptr) {
      // Cancellation at chunk boundaries: abandon the stream without
      // rollback — the job is aborting and will cancel the exchange.
      const Status st = tick();
      if (!st.is_ok()) {
        std::lock_guard<std::mutex> lock(pub_mu_);
        streams_[producer].publishing = false;
        pub_cv_.notify_all();
        return st;
      }
    }

    const std::size_t off = c * chunk_rows;
    const std::size_t len = std::min(chunk_rows, rows - std::min(rows, off));
    const Status st = route_chunk(producer, c, table_view(owner, off, len));
    {
      std::lock_guard<std::mutex> lock(pub_mu_);
      ChunkStream& s = streams_[producer];
      if (st.is_ok()) {
        s.accepted = c + 1;
        claimed_any = true;
      } else {
        // Mid-stream rollback: reopen the whole row and restart from
        // chunk 0 so the re-publish overwrites the same deterministic
        // keys instead of appending — a consumer mid-stream keeps the
        // chunks it already read (byte-identical to the re-publish)
        // and blocks until the stream catches back up.
        for (std::size_t j = 0; j < consumers_; ++j) channel(producer, j).reopen();
        s.accepted = 0;
      }
      s.publishing = false;
    }
    pub_cv_.notify_all();
    if (!st.is_ok()) return st;
  }
}

Status Exchange::send(std::size_t producer, Table table) {
  // The whole-table publish is the single-chunk special case of the
  // chunked protocol; first-publish-wins and failure-rollback semantics
  // are identical to the original implementation.
  const std::size_t rows = std::max<std::size_t>(table.num_rows(), 1);
  return send_chunked(producer, std::move(table), rows);
}

Result<Table> Exchange::recv_all(std::size_t consumer) {
  if (consumer >= consumers_) return Status::out_of_range("bad consumer index");
  ChunkCursor cursor = open_cursor(consumer);
  std::vector<std::shared_ptr<const Table>> items;
  for (;;) {
    DITTO_ASSIGN_OR_RETURN(auto chunk, cursor.next());
    if (!chunk.has_value()) break;
    items.push_back(std::move(*chunk));
  }
  // Every routed part's fixed-width columns borrow the producer's output
  // or the fetched payload, so a lone part comes back without copying
  // them; several parts are copied once, in producer order, into
  // exact-size columns.
  std::vector<const Table*> parts;
  parts.reserve(items.size());
  for (const auto& t : items) parts.push_back(t.get());
  return concat_tables(parts);
}

void Exchange::reset_producer(std::size_t producer) {
  if (producer >= producers_) return;
  {
    std::unique_lock<std::mutex> lock(pub_mu_);
    pub_cv_.wait(lock, [&] { return !streams_[producer].publishing; });
    // Drop the partial (or complete) stream: the engine re-runs the
    // producer task, which re-streams from chunk 0 under the same
    // deterministic keys.
    streams_[producer] = ChunkStream{};
  }
  for (std::size_t j = 0; j < consumers_; ++j) channel(producer, j).reopen();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.producers_reset;
}

void Exchange::cancel() {
  {
    std::lock_guard<std::mutex> lock(pub_mu_);
    cancelled_ = true;  // fails cursors blocked on future chunks
  }
  for (auto& ch : channels_) ch->abort();
  pub_cv_.notify_all();
}

Result<std::optional<std::shared_ptr<const Table>>> Exchange::next_chunk(
    std::size_t consumer, std::size_t producer, std::size_t chunk) {
  if (consumer >= consumers_) return Status::out_of_range("bad consumer index");
  // Gather routes each producer to exactly one consumer; the other
  // consumers' channels never see its chunks, so skip the stream
  // instead of blocking on it.
  if (kind_ == ExchangeKind::kGather && producer % consumers_ != consumer) {
    return std::optional<std::shared_ptr<const Table>>(std::nullopt);
  }
  bool ready = false;
  {
    std::unique_lock<std::mutex> lock(pub_mu_);
    pub_cv_.wait(lock, [&] {
      return cancelled_ || chunk < streams_[producer].accepted || streams_[producer].finished;
    });
    if (cancelled_) return Status::unavailable("exchange canceled");
    ready = chunk < streams_[producer].accepted;
    // else: finished && chunk >= accepted — producer drained.
  }
  if (!ready) return std::optional<std::shared_ptr<const Table>>(std::nullopt);
  // Safe outside the lock: an accepted chunk has been routed to every
  // consumer, and a concurrent rollback only delays recv_at until the
  // byte-identical re-publish refills the slot.
  DITTO_ASSIGN_OR_RETURN(auto t, channel(producer, consumer).recv_at(chunk));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.chunks_consumed;
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("exchange.chunks_consumed").add();
  return std::optional<std::shared_ptr<const Table>>(std::move(t));
}

Result<std::optional<std::shared_ptr<const Table>>> ChunkCursor::next() {
  while (producer_ < ex_->producers()) {
    DITTO_ASSIGN_OR_RETURN(auto chunk, ex_->next_chunk(consumer_, producer_, chunk_));
    if (chunk.has_value()) {
      ++chunk_;
      bytes_ += (*chunk)->byte_size();
      return chunk;
    }
    ++producer_;  // producer drained, move to the next stream
    chunk_ = 0;
  }
  return std::optional<std::shared_ptr<const Table>>(std::nullopt);
}

bool Exchange::producer_has_local_channel(std::size_t producer) const {
  if (producer >= producers_) return false;
  for (std::size_t j = 0; j < consumers_; ++j) {
    if (channel(producer, j).is_zero_copy()) return true;
  }
  return false;
}

ExchangeStats Exchange::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ExchangeStats out = stats_;
  out.storage_retries = storage_retries_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ditto::exec
