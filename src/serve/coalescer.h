/**
 * @file
 * Admission-control queue + request coalescer of the serve daemon.
 *
 * One bounded FIFO feeds every worker. Admission control sheds the
 * *oldest* queued item when the queue is full — the client that has
 * already waited longest is the one whose deadline is most likely
 * blown, so shedding it (with an explicit OVERLOADED response, via the
 * shed callback) keeps the latency of everything still in the queue
 * bounded instead of letting the whole tail collapse.
 *
 * Coalescing is micro-batching: a worker that pops an item carrying a
 * non-zero batch key keeps collecting items with the *same* key —
 * waiting up to the configured hold time for stragglers — until the
 * batch is full. The serve engine keys MLP^T requests by their fitted
 * model, so one batch becomes a single ml::Mlp::predict(Matrix) GEMM
 * over the union of the requests' target machines instead of N
 * per-request forward passes. Items with batch key 0 never coalesce
 * and are returned as singletons immediately.
 *
 * The queue is a plain mutex + condvar design on purpose: every
 * operation is O(queue depth) worst case with a depth of a few
 * hundred, and the expensive work (GEMMs, ridge solves) happens
 * outside the lock.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dtrank::serve
{

/** Coalescer tuning knobs. */
struct CoalescerConfig
{
    /** Admission-control bound; the oldest item is shed beyond it. */
    std::size_t queueDepth = 256;
    /** Most items one batch may carry (1 disables coalescing). */
    std::size_t batchMax = 64;
    /** Longest a worker holds a partial batch open for stragglers. */
    std::chrono::nanoseconds batchHold = std::chrono::microseconds(500);
};

/** Optional telemetry hooks; null members are simply not updated. */
struct CoalescerMetrics
{
    obs::Gauge *queueDepth = nullptr;    ///< Items currently queued.
    obs::Counter *shed = nullptr;        ///< Admission-control sheds.
    obs::Histogram *batchSize = nullptr; ///< Items per returned batch.
};

/**
 * The micro-batching queue. T is the queued work item; it only needs
 * to be movable. Thread-safe: any number of submitters and workers.
 */
template <typename T>
class Coalescer
{
  public:
    /**
     * @param config Tuning knobs (validated here).
     * @param on_shed Invoked with each item dropped by admission
     *        control, from inside submit() but outside the lock. It
     *        runs on the submitter's thread, so it must not block:
     *        submitters are typically latency-sensitive (the serve IO
     *        loop), and sheds happen exactly when the system is
     *        overloaded.
     */
    Coalescer(const CoalescerConfig &config,
              std::function<void(T &&)> on_shed,
              const CoalescerMetrics &metrics = CoalescerMetrics{})
        : config_(config), on_shed_(std::move(on_shed)),
          metrics_(metrics)
    {
        util::require(config_.queueDepth >= 1,
                      "Coalescer: queueDepth must be >= 1");
        util::require(config_.batchMax >= 1,
                      "Coalescer: batchMax must be >= 1");
        util::require(config_.batchHold.count() >= 0,
                      "Coalescer: batchHold must be >= 0");
    }

    Coalescer(const Coalescer &) = delete;
    Coalescer &operator=(const Coalescer &) = delete;

    /**
     * Enqueues an item. Items sharing a non-zero `batch_key` may be
     * returned together in one nextBatch() call. Returns false (item
     * dropped, shed callback NOT invoked for it) after stop(). When
     * the queue is full, the oldest item is shed to make room.
     */
    bool
    submit(std::uint64_t batch_key, T item)
    {
        bool had_victim = false;
        T victim{};
        {
            util::LockGuard lock(mutex_);
            if (stopped_)
                return false;
            if (queue_.size() >= config_.queueDepth) {
                victim = std::move(queue_.front().item);
                queue_.pop_front();
                had_victim = true;
            }
            queue_.push_back(Entry{batch_key, std::move(item)});
        }
        if (metrics_.queueDepth != nullptr && !had_victim)
            metrics_.queueDepth->add(1);
        if (had_victim && metrics_.shed != nullptr)
            metrics_.shed->inc();
        available_.notify_all();
        if (had_victim && on_shed_)
            on_shed_(std::move(victim));
        return true;
    }

    /**
     * Blocks until work is available (or the queue is stopped), then
     * returns the next batch: the oldest item plus — when it carries a
     * non-zero batch key — up to batchMax-1 more items with the same
     * key, holding the batch open up to batchHold for stragglers.
     * Returns an empty vector only after stop() with the queue fully
     * drained.
     */
    std::vector<T>
    nextBatch()
    {
        std::vector<T> batch;
        std::uint64_t key = 0;
        {
            util::LockGuard lock(mutex_);
            while (queue_.empty() && !stopped_)
                available_.wait(mutex_);
            if (queue_.empty())
                return batch; // stopped and drained
            key = queue_.front().key;
            batch.push_back(std::move(queue_.front().item));
            queue_.pop_front();
            if (key != 0 && config_.batchMax > 1) {
                takeMatching(key, batch);
                const auto deadline =
                    util::monotonicNow() + config_.batchHold;
                while (batch.size() < config_.batchMax && !stopped_) {
                    const auto now = util::monotonicNow();
                    if (now >= deadline)
                        break;
                    available_.waitFor(mutex_, deadline - now);
                    takeMatching(key, batch);
                }
            }
        }
        if (metrics_.queueDepth != nullptr)
            metrics_.queueDepth->add(
                -static_cast<std::int64_t>(batch.size()));
        if (metrics_.batchSize != nullptr)
            metrics_.batchSize->observe(
                static_cast<double>(batch.size()));
        // A straggler matching another worker's held batch key may
        // still be queued; make sure some worker looks at it.
        available_.notify_one();
        return batch;
    }

    /**
     * Stops the queue: wakes every waiter, makes submit() refuse new
     * items. Queued items are still handed out by nextBatch() until
     * drained; call drainAndShed() instead to refuse them too.
     */
    void
    stop()
    {
        {
            util::LockGuard lock(mutex_);
            stopped_ = true;
        }
        available_.notify_all();
    }

    /** stop(), then sheds everything still queued via the callback. */
    void
    drainAndShed()
    {
        std::deque<Entry> drained;
        {
            util::LockGuard lock(mutex_);
            stopped_ = true;
            drained.swap(queue_);
        }
        available_.notify_all();
        if (metrics_.queueDepth != nullptr && !drained.empty())
            metrics_.queueDepth->add(
                -static_cast<std::int64_t>(drained.size()));
        for (Entry &entry : drained) {
            if (metrics_.shed != nullptr)
                metrics_.shed->inc();
            if (on_shed_)
                on_shed_(std::move(entry.item));
        }
    }

    /** Items currently queued (tests / introspection). */
    std::size_t
    depth() const
    {
        util::LockGuard lock(mutex_);
        return queue_.size();
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        T item{};
    };

    /** Moves every queued item whose key matches into `batch`. */
    void
    takeMatching(std::uint64_t key, std::vector<T> &batch)
        DTRANK_REQUIRES(mutex_)
    {
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < config_.batchMax;) {
            if (it->key == key) {
                batch.push_back(std::move(it->item));
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
    }

    const CoalescerConfig config_;
    const std::function<void(T &&)> on_shed_;
    const CoalescerMetrics metrics_;

    mutable util::Mutex mutex_;
    util::CondVar available_;
    std::deque<Entry> queue_ DTRANK_GUARDED_BY(mutex_);
    bool stopped_ DTRANK_GUARDED_BY(mutex_) = false;
};

} // namespace dtrank::serve
