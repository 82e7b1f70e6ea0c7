// Fixed-size thread pool over BlockingQueue. This is the *real-thread*
// execution substrate (parallel_for under ML encode/training and Ward, serve
// ingest, AICCA labelling, tile streaming); the scaling benchmarks use the
// discrete-event ClusterExecutor instead, since scaling curves cannot be
// measured on this host's core count.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "util/blocking_queue.hpp"

namespace mfw::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(std::size_t threads);

  /// Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false after shutdown() / destruction began.
  bool submit(std::function<void()> task);

  /// Stops accepting tasks, drains the queue, and joins workers. Idempotent.
  void shutdown();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  BlockingQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
};

/// Runs fn(begin, end) over [0, n) in fixed chunks of `chunk` indices,
/// fanning chunks out across `pool` while the calling thread works too (so a
/// 1-thread pool, or one whose workers are busy, still makes progress).
/// Blocks until every chunk has run. Chunk boundaries depend only on (n,
/// chunk) — never on the pool's thread count — so callers that reduce
/// per-chunk results in chunk index order get results that are reproducible
/// at any thread count. If fn throws, remaining undispatched chunks are
/// skipped and the first exception is rethrown on the caller.
void parallel_for(ThreadPool& pool, std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Per-index convenience: runs fn(i) for i in [0, n) with an automatically
/// chosen chunk size (~4 chunks per pool thread for load balance).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mfw::util
