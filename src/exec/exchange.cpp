#include "exec/exchange.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ditto::exec {

Exchange::Exchange(ExchangeKind kind, std::string partition_key,
                   const std::vector<ServerId>& prod_servers,
                   const std::vector<ServerId>& cons_servers, storage::ObjectStore& store,
                   std::string prefix, const faults::RetryPolicy* retry,
                   ThreadPool* scatter_pool)
    : kind_(kind),
      partition_key_(std::move(partition_key)),
      store_(&store),
      prefix_(std::move(prefix)),
      retry_(retry),
      scatter_pool_(scatter_pool),
      producers_(prod_servers.size()),
      consumers_(cons_servers.size()),
      streams_(prod_servers.size()),
      stats_chunks_counted_(prod_servers.size(), 0) {
  pipes_.resize(producers_ * consumers_);
  for (std::size_t i = 0; i < producers_; ++i) {
    for (std::size_t j = 0; j < consumers_; ++j) {
      pipe(i, j).local = prod_servers[i] != kNoServer && prod_servers[i] == cons_servers[j];
    }
  }
}

std::string Exchange::key(std::size_t i, std::size_t j, std::size_t chunk) const {
  return prefix_ + "/" + std::to_string(i) + "-" + std::to_string(j) + "/" +
         std::to_string(chunk);
}

// Global data-movement telemetry of one accepted chunk: counters prove
// how much of the job's traffic stayed zero-copy, and the trace gains a
// cumulative counter track per path (the engine-mode analogue of the
// sim's). Called once per (producer, chunk), on the chunk's first
// winning publish: failed-publish retries and server-loss re-publishes
// move the same logical data again and would otherwise inflate the
// zero-copy-vs-remote counters relative to the data actually exchanged.
void Exchange::record_route_metrics(const PendingStats& pending) {
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
Result<std::vector<std::shared_ptr<const Table>>> Exchange::route_chunk(
    std::size_t producer, std::size_t chunk, Table table, PendingStats& pending) {
  obs::ScopedSpan span("exchange", "chunk");
  if (span.active()) {
    span.arg("producer", std::to_string(producer));
    span.arg("chunk", std::to_string(chunk));
    span.arg("rows", std::to_string(table.num_rows()));
  }
  // parts[j]: what consumer j receives of this chunk; null = nothing.
  std::vector<std::shared_ptr<const Table>> parts(consumers_);
  switch (kind_) {
    case ExchangeKind::kShuffle: {
      DITTO_ASSIGN_OR_RETURN(std::vector<Table> split,
                             hash_partition(table, partition_key_, consumers_, scatter_pool_));
      for (std::size_t j = 0; j < consumers_; ++j) {
        parts[j] = std::make_shared<const Table>(std::move(split[j]));
      }
      break;
    }
    case ExchangeKind::kGather:
      // One producer feeds exactly one consumer (paper §4.5 Fig. 7).
      parts[producer % consumers_] = std::make_shared<const Table>(std::move(table));
      break;
    case ExchangeKind::kBroadcast:
    case ExchangeKind::kAllGather:
      // Every consumer receives the full chunk. The shared_ptr makes the
      // local copies free; remote consumers each pay serialization.
      std::fill(parts.begin(), parts.end(), std::make_shared<const Table>(std::move(table)));
      break;
  }
  for (std::size_t j = 0; j < consumers_; ++j) {
    if (parts[j] == nullptr) continue;
    const Bytes bytes = parts[j]->byte_size();
    if (pipe(producer, j).local) {
      ++pending.zero_copy_messages;
      pending.zero_copy_bytes += bytes;
      continue;
    }
    ++pending.remote_messages;
    pending.remote_bytes += bytes;
    // Serialized once into a fresh exact-size payload that the store may
    // keep as is; a retried put hands over the same bytes again. The key
    // is deterministic, so a re-publish overwrites identical bytes.
    const storage::Payload payload = serialize_table(*parts[j]);
    const std::string k = key(producer, j, chunk);
    DITTO_RETURN_IF_ERROR(faults::retry_status(
        policy(), "exchange.put", [&] { return store_->put_payload(k, payload); },
        &storage_retries_));
    parts[j] = nullptr;  // the remote consumer reads the store
  }
  return parts;
}

void Exchange::clear_local_chunks(std::size_t producer) {
  for (std::size_t j = 0; j < consumers_; ++j) pipe(producer, j).chunks.clear();
}

Result<std::shared_ptr<const Table>> Exchange::fetch(std::size_t i, std::size_t j,
                                                     std::size_t chunk) {
  const std::string k = key(i, j, chunk);
  DITTO_ASSIGN_OR_RETURN(storage::Payload bytes,
                         faults::retry_result<storage::Payload>(
                             policy(), "exchange.get", [&] { return store_->get_payload(k); },
                             &storage_retries_));
  // Zero-copy receive: fixed-width columns view the payload in place,
  // which the table keeps alive, so it outlives an overwrite or removal
  // of the key.
  DITTO_ASSIGN_OR_RETURN(Table table, deserialize_table(bytes));
  return std::make_shared<const Table>(std::move(table));
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
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !streams_[producer].publishing; });
      if (cancelled_) return Status::unavailable("exchange canceled");
      ChunkStream& s = streams_[producer];
      if (s.finished) {
        if (claimed_any) return Status::ok();
        ++stats_.duplicate_publishes;
        lock.unlock();
        obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
        if (mx.enabled()) mx.counter("exchange.duplicate_publishes").add();
        return Status::ok();
      }
      if (s.accepted >= nchunks) {
        // Every chunk is routed; this attempt seals the stream.
        s.finished = true;
        lock.unlock();
        cv_.notify_all();
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
        std::lock_guard<std::mutex> lock(mu_);
        streams_[producer].publishing = false;
        cv_.notify_all();
        return st;
      }
    }

    const std::size_t off = c * chunk_rows;
    const std::size_t len = std::min(chunk_rows, rows - std::min(rows, off));
    PendingStats pending;
    auto parts = route_chunk(producer, c, table_view(owner, off, len), pending);
    Status st = parts.status();
    bool first_publish = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ChunkStream& s = streams_[producer];
      s.publishing = false;
      if (cancelled_) {
        // A cancel that landed while the chunk was routing: the chunk
        // stays invisible, whatever reached the store.
        st = Status::unavailable("exchange canceled");
      } else if (st.is_ok()) {
        // The chunk becomes visible to every consumer at once: local
        // parts are installed in the same step that accepts it.
        for (std::size_t j = 0; j < consumers_; ++j) {
          if ((*parts)[j] != nullptr) pipe(producer, j).chunks.push_back(std::move((*parts)[j]));
        }
        s.accepted = c + 1;
        claimed_any = true;
        first_publish = c >= stats_chunks_counted_[producer];
        if (first_publish) {
          stats_chunks_counted_[producer] = c + 1;
          ++stats_.chunks_published;
          stats_.zero_copy_messages += pending.zero_copy_messages;
          stats_.remote_messages += pending.remote_messages;
          stats_.remote_bytes += pending.remote_bytes;
        }
      } else {
        // Mid-stream rollback: drop the local chunks and restart from
        // chunk 0 so the re-publish overwrites the same deterministic
        // keys instead of appending — a consumer mid-stream keeps the
        // chunks it already read (byte-identical to the re-publish)
        // and blocks until the stream catches back up.
        clear_local_chunks(producer);
        s.accepted = 0;
      }
    }
    cv_.notify_all();
    if (!st.is_ok()) return st;
    if (first_publish) record_route_metrics(pending);
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
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !streams_[producer].publishing; });
  // Drop the partial (or complete) stream and the lost server's shared
  // memory: the engine re-runs the producer task, which re-streams from
  // chunk 0 under the same deterministic keys. Cursors check cancelled_
  // first, so after a cancel this revives no reader.
  streams_[producer] = ChunkStream{};
  clear_local_chunks(producer);
  ++stats_.producers_reset;
}

void Exchange::cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  cv_.notify_all();
}

Result<std::optional<std::shared_ptr<const Table>>> Exchange::next_chunk(
    std::size_t consumer, std::size_t producer, std::size_t chunk) {
  if (consumer >= consumers_) return Status::out_of_range("bad consumer index");
  // Gather routes each producer to exactly one consumer; the other
  // consumers' pipes never see its chunks, so skip the stream instead
  // of blocking on it.
  if (kind_ == ExchangeKind::kGather && producer % consumers_ != consumer) {
    return std::optional<std::shared_ptr<const Table>>(std::nullopt);
  }
  const Pipe& p = pipe(producer, consumer);
  std::shared_ptr<const Table> local;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return cancelled_ || chunk < streams_[producer].accepted || streams_[producer].finished;
    });
    if (cancelled_) return Status::unavailable("exchange canceled");
    if (chunk >= streams_[producer].accepted) {
      // finished && chunk >= accepted — producer drained.
      return std::optional<std::shared_ptr<const Table>>(std::nullopt);
    }
    if (p.local) local = p.chunks[chunk];
    ++stats_.chunks_consumed;
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("exchange.chunks_consumed").add();
  if (p.local) return std::optional<std::shared_ptr<const Table>>(std::move(local));
  // A remote chunk is read outside the lock. Its key is deterministic,
  // so a rollback or reset between the wait and this get is harmless:
  // the durable bytes survive and the re-publish overwrites them
  // identically.
  DITTO_ASSIGN_OR_RETURN(auto t, fetch(producer, consumer, chunk));
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
    if (pipe(producer, j).local) return true;
  }
  return false;
}

ExchangeStats Exchange::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExchangeStats out = stats_;
  out.storage_retries = storage_retries_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ditto::exec
