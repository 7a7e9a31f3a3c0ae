#include "core/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace gfi::core {

unsigned Executor::defaultWorkers()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return hc != 0 ? hc : 1;
}

void Executor::forEachOrdered(std::size_t count, const ProduceFn& produce)
{
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(effectiveWorkers(), count));
    if (n <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            if (CommitFn commit = produce(i)) {
                commit();
            }
        }
        return;
    }
    const std::size_t window = 4u * n;

    // Shared scheduling state. `nextFetch` is the in-order hand-out cursor,
    // `nextCommit` the committed-prefix length, `pending` the reorder buffer.
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t nextFetch = 0;
    std::size_t nextCommit = 0;
    std::map<std::size_t, CommitFn> pending;
    std::exception_ptr firstError;
    bool commitFailed = false;

    auto worker = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            // Backpressure: wait while the reorder window is full. Every
            // commit and every error notifies, so the wait needs no timeout.
            cv.wait(lock, [&] {
                return nextFetch >= count || firstError != nullptr ||
                       nextFetch < nextCommit + window;
            });
            if (nextFetch >= count || firstError != nullptr) {
                return;
            }
            const std::size_t index = nextFetch++;
            lock.unlock();

            CommitFn commit;
            std::exception_ptr error;
            try {
                commit = produce(index);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            if (error == nullptr) {
                pending[index] = std::move(commit);
            } else if (firstError == nullptr) {
                firstError = error;
            }

            // Drain every commit that is now in order. Commits run under the
            // lock: they are cheap (journal line, vector slot, callback) and
            // this serializes them without a dedicated committer thread.
            // A produce failure leaves a gap that stops the drain at the
            // failed index; a commit failure stops committing outright (the
            // journal is likely broken — don't keep writing past the error).
            while (!commitFailed && !pending.empty() &&
                   pending.begin()->first == nextCommit) {
                CommitFn fn = std::move(pending.begin()->second);
                pending.erase(pending.begin());
                if (fn) {
                    try {
                        fn();
                    } catch (...) {
                        if (firstError == nullptr) {
                            firstError = std::current_exception();
                        }
                        commitFailed = true;
                        break;
                    }
                }
                ++nextCommit;
            }
            cv.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
        t.join();
    }
    if (firstError != nullptr) {
        std::rethrow_exception(firstError);
    }
}

} // namespace gfi::core
