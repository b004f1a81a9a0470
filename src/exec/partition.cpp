#include "exec/partition.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <future>

#include "common/thread_pool.h"

namespace ditto::exec {

void run_chunked(std::size_t chunks, ThreadPool* pool,
                 const std::function<void(std::size_t)>& body) {
  // A body already running on one of `pool`'s workers runs its chunks
  // inline: waiting on the same pool from inside it could deadlock once
  // every worker waits.
  if (pool == nullptr || chunks <= 1 || pool->on_worker_thread()) {
    for (std::size_t c = 0; c < chunks; ++c) body(c);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(pool->submit([&body, c] { body(c); }));
  }
  for (auto& f : futures) f.get();
}

namespace {

template <typename PartFn>
ScatterPlan make_plan(std::size_t rows, std::size_t parts, ThreadPool* pool,
                      PartFn part_of_row) {
  ScatterPlan p;
  p.rows = rows;
  p.parts = parts;
  p.chunks = std::max<std::size_t>(1, (rows + p.chunk_rows - 1) / p.chunk_rows);
  p.part_of.resize(rows);
  p.base.assign(p.chunks * parts, 0);
  p.counts.assign(parts, 0);

  // Count pass: per-row partition ids and per-chunk histograms (each
  // chunk owns one histogram row, so no synchronization).
  run_chunked(p.chunks, pool, [&](std::size_t c) {
    const std::size_t lo = c * p.chunk_rows;
    const std::size_t hi = std::min(rows, lo + p.chunk_rows);
    std::size_t* hist = p.base.data() + c * parts;
    for (std::size_t r = lo; r < hi; ++r) {
      const std::uint32_t q = part_of_row(r);
      p.part_of[r] = q;
      ++hist[q];
    }
  });

  // Exclusive scan per partition: base[c][q] = rows of partition q in
  // chunks before c. Rewrites the histograms in place.
  for (std::size_t q = 0; q < parts; ++q) {
    std::size_t running = 0;
    for (std::size_t c = 0; c < p.chunks; ++c) {
      const std::size_t h = p.base[c * parts + q];
      p.base[c * parts + q] = running;
      running += h;
    }
    p.counts[q] = running;
  }
  p.part_start.resize(parts + 1);
  p.part_start[0] = 0;
  for (std::size_t q = 0; q < parts; ++q) {
    p.part_start[q + 1] = p.part_start[q] + p.counts[q];
  }
  return p;
}

/// String scatter keeps per-partition owned vectors: strings copy
/// either way, and borrowed columns are fixed-width only.
std::vector<std::vector<std::string>> scatter_strings(const std::vector<std::string>& src,
                                                      const ScatterPlan& p, ThreadPool* pool) {
  std::vector<std::vector<std::string>> out(p.parts);
  std::vector<std::string*> dst(p.parts);
  for (std::size_t q = 0; q < p.parts; ++q) {
    out[q].resize(p.counts[q]);
    dst[q] = out[q].data();
  }
  run_chunked(p.chunks, pool, [&](std::size_t c) {
    std::vector<std::size_t> cursor(p.base.begin() + static_cast<std::ptrdiff_t>(c * p.parts),
                                    p.base.begin() + static_cast<std::ptrdiff_t>((c + 1) * p.parts));
    const std::size_t lo = c * p.chunk_rows;
    const std::size_t hi = std::min(p.rows, lo + p.chunk_rows);
    for (std::size_t r = lo; r < hi; ++r) {
      const std::uint32_t q = p.part_of[r];
      dst[q][cursor[q]++] = src[r];
    }
  });
  return out;
}

std::vector<Table> scatter_table(const Table& in, const ScatterPlan& p, ThreadPool* pool) {
  const std::size_t ncols = in.num_columns();
  std::vector<std::vector<Column>> cols(p.parts);
  for (auto& c : cols) c.resize(ncols);

  // All fixed-width columns share one fused scatter sweep: every column
  // has the same partition-major layout, so one cursor update per ROW
  // routes all of them, and `part_of` is read once instead of once per
  // column. int64 and double are both 8-byte PODs; the move is a fixed
  // 8-byte memcpy (a single load/store after optimization), which
  // sidesteps strict-aliasing for the double case. Each column lands in
  // ONE uninitialized partition-major buffer (every slot written
  // exactly once — no zero-fill, one allocation) and partitions BORROW
  // slices of it: holding one small partition keeps the whole gathered
  // column alive (same deal as Table::slice); mutation copies out.
  struct FusedCol {
    std::size_t index;
    DataType type;
    const unsigned char* src;
    unsigned char* dst;
    std::shared_ptr<void> buf;
  };
  std::vector<FusedCol> fused;
  fused.reserve(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    const Column& col = in.column(ci);
    if (col.type() == DataType::kInt64) {
      std::shared_ptr<void> buf(new std::int64_t[p.rows], std::default_delete<std::int64_t[]>());
      fused.push_back({ci, col.type(),
                       reinterpret_cast<const unsigned char*>(col.int_span().data()),
                       static_cast<unsigned char*>(buf.get()), std::move(buf)});
    } else if (col.type() == DataType::kDouble) {
      std::shared_ptr<void> buf(new double[p.rows], std::default_delete<double[]>());
      fused.push_back({ci, col.type(),
                       reinterpret_cast<const unsigned char*>(col.double_span().data()),
                       static_cast<unsigned char*>(buf.get()), std::move(buf)});
    }
  }
  if (!fused.empty() && p.rows > 0) {
    run_chunked(p.chunks, pool, [&](std::size_t c) {
      std::vector<std::size_t> cursor(p.parts);
      for (std::size_t q = 0; q < p.parts; ++q) {
        cursor[q] = p.part_start[q] + p.base[c * p.parts + q];
      }
      const std::size_t lo = c * p.chunk_rows;
      const std::size_t hi = std::min(p.rows, lo + p.chunk_rows);
      for (std::size_t r = lo; r < hi; ++r) {
        const std::size_t slot = cursor[p.part_of[r]]++;
        for (const FusedCol& f : fused) {
          std::memcpy(f.dst + slot * 8, f.src + r * 8, 8);
        }
      }
    });
  }
  for (const FusedCol& f : fused) {
    for (std::size_t q = 0; q < p.parts; ++q) {
      if (p.counts[q] == 0) {
        cols[q][f.index] = f.type == DataType::kInt64 ? Column(std::vector<std::int64_t>{})
                                                      : Column(std::vector<double>{});
      } else if (f.type == DataType::kInt64) {
        cols[q][f.index] = Column::borrow_ints(
            f.buf, reinterpret_cast<const std::int64_t*>(f.dst) + p.part_start[q], p.counts[q]);
      } else {
        cols[q][f.index] = Column::borrow_doubles(
            f.buf, reinterpret_cast<const double*>(f.dst) + p.part_start[q], p.counts[q]);
      }
    }
  }

  for (std::size_t ci = 0; ci < ncols; ++ci) {
    const Column& col = in.column(ci);
    if (col.type() != DataType::kString) continue;
    auto outs = scatter_strings(col.strings(), p, pool);
    for (std::size_t q = 0; q < p.parts; ++q) cols[q][ci] = Column(std::move(outs[q]));
  }
  std::vector<Table> out;
  out.reserve(p.parts);
  for (std::size_t q = 0; q < p.parts; ++q) {
    auto t = Table::make(in.schema(), std::move(cols[q]));
    assert(t.ok() && "scatter built a malformed partition");
    out.push_back(std::move(t).value());
  }
  return out;
}

}  // namespace

ScatterPlan make_hash_plan(ColumnSpan<std::int64_t> keys, std::size_t parts,
                           ThreadPool* pool) {
  return make_plan(keys.size(), parts, pool, [keys, parts](std::size_t r) {
    return static_cast<std::uint32_t>(stable_hash64(keys[r]) % parts);
  });
}

ScatterPlan make_radix_plan(ColumnSpan<std::int64_t> keys, std::size_t parts,
                            ThreadPool* pool) {
  assert(parts > 0 && (parts & (parts - 1)) == 0 && "radix fanout must be a power of two");
  const std::uint64_t mask = parts - 1;
  return make_plan(keys.size(), parts, pool, [keys, mask](std::size_t r) {
    return static_cast<std::uint32_t>(stable_hash64(keys[r]) & mask);
  });
}

ScatterPlan make_key_range_plan(ColumnSpan<std::int64_t> keys, std::int64_t lo,
                                unsigned shift, std::size_t parts, ThreadPool* pool) {
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  return make_plan(keys.size(), parts, pool, [keys, base, shift](std::size_t r) {
    return static_cast<std::uint32_t>((static_cast<std::uint64_t>(keys[r]) - base) >> shift);
  });
}

std::vector<std::uint32_t> partitioned_row_indices(const ScatterPlan& p, ThreadPool* pool) {
  std::vector<std::uint32_t> out(p.rows);
  run_chunked(p.chunks, pool, [&](std::size_t c) {
    std::vector<std::size_t> cursor(p.parts);
    for (std::size_t q = 0; q < p.parts; ++q) {
      cursor[q] = p.part_start[q] + p.base[c * p.parts + q];
    }
    const std::size_t lo = c * p.chunk_rows;
    const std::size_t hi = std::min(p.rows, lo + p.chunk_rows);
    for (std::size_t r = lo; r < hi; ++r) {
      out[cursor[p.part_of[r]]++] = static_cast<std::uint32_t>(r);
    }
  });
  return out;
}

namespace {

template <typename T>
std::vector<T> partitioned_values_impl(const ScatterPlan& p, ColumnSpan<T> vals,
                                       ThreadPool* pool) {
  std::vector<T> out(p.rows);
  run_chunked(p.chunks, pool, [&](std::size_t c) {
    std::vector<std::size_t> cursor(p.parts);
    for (std::size_t q = 0; q < p.parts; ++q) {
      cursor[q] = p.part_start[q] + p.base[c * p.parts + q];
    }
    const std::size_t lo = c * p.chunk_rows;
    const std::size_t hi = std::min(p.rows, lo + p.chunk_rows);
    for (std::size_t r = lo; r < hi; ++r) {
      out[cursor[p.part_of[r]]++] = vals[r];
    }
  });
  return out;
}

}  // namespace

std::vector<std::int64_t> partitioned_values(const ScatterPlan& plan,
                                             ColumnSpan<std::int64_t> vals,
                                             ThreadPool* pool) {
  return partitioned_values_impl(plan, vals, pool);
}

std::vector<double> partitioned_values(const ScatterPlan& plan, ColumnSpan<double> vals,
                                       ThreadPool* pool) {
  return partitioned_values_impl(plan, vals, pool);
}

Table gather_rows(const Table& in, const std::uint32_t* rows, std::size_t n,
                  ThreadPool* pool) {
  const std::size_t ncols = in.num_columns();
  std::vector<Column> cols(ncols);

  // Fused fixed-width gather: one sweep over the output positions moves
  // every fixed-width column, each into one uninitialized exact-size
  // buffer written exactly once; the output columns borrow the buffers.
  struct FusedCol {
    std::size_t index;
    DataType type;
    const unsigned char* src;
    unsigned char* dst;
    std::shared_ptr<void> buf;
  };
  std::vector<FusedCol> fused;
  fused.reserve(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    const Column& col = in.column(ci);
    if (col.type() == DataType::kInt64) {
      std::shared_ptr<void> buf(new std::int64_t[n], std::default_delete<std::int64_t[]>());
      fused.push_back({ci, col.type(),
                       reinterpret_cast<const unsigned char*>(col.int_span().data()),
                       static_cast<unsigned char*>(buf.get()), std::move(buf)});
    } else if (col.type() == DataType::kDouble) {
      std::shared_ptr<void> buf(new double[n], std::default_delete<double[]>());
      fused.push_back({ci, col.type(),
                       reinterpret_cast<const unsigned char*>(col.double_span().data()),
                       static_cast<unsigned char*>(buf.get()), std::move(buf)});
    }
  }
  const std::size_t chunks = std::max<std::size_t>(1, (n + kScatterChunkRows - 1) / kScatterChunkRows);
  if (!fused.empty() && n > 0) {
    run_chunked(chunks, pool, [&](std::size_t c) {
      const std::size_t lo = c * kScatterChunkRows;
      const std::size_t hi = std::min(n, lo + kScatterChunkRows);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t r = rows[i];
        for (const FusedCol& f : fused) {
          std::memcpy(f.dst + i * 8, f.src + r * 8, 8);
        }
      }
    });
  }
  for (const FusedCol& f : fused) {
    if (n == 0) {
      cols[f.index] = f.type == DataType::kInt64 ? Column(std::vector<std::int64_t>{})
                                                 : Column(std::vector<double>{});
    } else if (f.type == DataType::kInt64) {
      cols[f.index] =
          Column::borrow_ints(f.buf, reinterpret_cast<const std::int64_t*>(f.dst), n);
    } else {
      cols[f.index] = Column::borrow_doubles(f.buf, reinterpret_cast<const double*>(f.dst), n);
    }
  }
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    const Column& col = in.column(ci);
    if (col.type() != DataType::kString) continue;
    const auto& src = col.strings();
    std::vector<std::string> dst(n);
    run_chunked(chunks, pool, [&](std::size_t c) {
      const std::size_t lo = c * kScatterChunkRows;
      const std::size_t hi = std::min(n, lo + kScatterChunkRows);
      for (std::size_t i = lo; i < hi; ++i) dst[i] = src[rows[i]];
    });
    cols[ci] = Column(std::move(dst));
  }
  auto t = Table::make(in.schema(), std::move(cols));
  assert(t.ok() && "gather built a malformed table");
  return std::move(t).value();
}

Result<std::vector<Table>> hash_partition(const Table& in, const std::string& key,
                                          std::size_t n, ThreadPool* pool) {
  if (n == 0) return Status::invalid_argument("zero partitions");
  DITTO_ASSIGN_OR_RETURN(const Column* kc, in.checked_column(key));
  if (kc->type() != DataType::kInt64) {
    return Status::invalid_argument("hash_partition key must be int64");
  }
  const ColumnSpan<std::int64_t> keys = kc->int_span();
  const ScatterPlan plan = make_hash_plan(keys, n, pool);
  return scatter_table(in, plan, pool);
}

Table range_slice(const std::shared_ptr<const Table>& src, std::size_t i, std::size_t n) {
  assert(src != nullptr && i < n && "range slice out of range");
  const std::size_t rows = src->num_rows();
  const std::size_t lo = rows * i / n;
  const std::size_t count = rows * (i + 1) / n - lo;
  std::vector<Column> cols;
  cols.reserve(src->num_columns());
  for (std::size_t c = 0; c < src->num_columns(); ++c) {
    const Column& col = src->column(c);
    if (col.is_borrowed() || col.type() == DataType::kString) {
      cols.push_back(col.slice(lo, count));  // already a view, or never borrowed
    } else if (col.type() == DataType::kInt64) {
      cols.push_back(Column::borrow_ints(src, col.int_span().data() + lo, count));
    } else {
      cols.push_back(Column::borrow_doubles(src, col.double_span().data() + lo, count));
    }
  }
  auto out = Table::make(src->schema(), std::move(cols));
  assert(out.ok());
  return std::move(out).value();
}

}  // namespace ditto::exec
