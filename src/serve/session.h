/**
 * @file
 * Serving-layer sessions: per-connection HE state over shared engines.
 *
 * A session is what one client connection owns — its parameters, its
 * per-session HeContext, and the relinearization keys it loaded. The
 * context layers over process-shared immutable state twice: the
 * HeEngineState cache deduplicates twiddle tables and modulus-chain
 * contexts across sessions with identical parameters, and the worker's
 * ScratchArena is lent to every session so kernel scratch is allocated
 * once per worker, not once per client. Two sessions with the same
 * parameters therefore hold mutually compatible ciphertexts (same
 * RnsNttContext instances) — the property cross-client batching rests
 * on.
 *
 * SessionManager tracks the live set: creation assigns ids, connection
 * teardown releases them (the e2e suite asserts the count returns to
 * zero — no orphaned sessions).
 */

#ifndef HENTT_SERVE_SESSION_H
#define HENTT_SERVE_SESSION_H

#include <map>
#include <memory>

#include "common/mutex.h"
#include "he/bgv.h"

namespace hentt::serve {

/** One client's serving state (see file comment). */
struct Session {
    u64 id = 0;
    std::shared_ptr<const he::HeContext> ctx;

    /** Install the keys a LoadKeys frame carried, replacing any
     *  previous set. Safe against in-flight requests: they pinned the
     *  old version at submit time (see relin_key()), so the swap never
     *  destroys a key the worker is dereferencing. */
    void
    SetRelinKey(std::shared_ptr<const he::RelinKey> rk)
        HENTT_EXCLUDES(rk_mutex_)
    {
        MutexLock lock(rk_mutex_);
        rk_ = std::move(rk);
    }

    /** The currently loaded keys (null before LoadKeys). Callers get a
     *  shared_ptr copy that pins this key version for as long as they
     *  hold it — the coalescer copies it into the request at submit
     *  time, so a concurrent key reload cannot invalidate a request
     *  already admitted. */
    [[nodiscard]] std::shared_ptr<const he::RelinKey>
    relin_key() const HENTT_EXCLUDES(rk_mutex_)
    {
        MutexLock lock(rk_mutex_);
        return rk_;
    }

  private:
    /** Leaf lock (nothing is acquired under it) guarding the key slot
     *  against a LoadKeys/Submit race across threads. */
    mutable Mutex rk_mutex_;
    std::shared_ptr<const he::RelinKey> rk_
        HENTT_GUARDED_BY(rk_mutex_);
};

/** Thread-safe registry of live sessions. */
class SessionManager
{
  public:
    /** @param arena the worker arena lent to every session context. */
    explicit SessionManager(std::shared_ptr<he::ScratchArena> arena)
        : arena_(std::move(arena))
    {
    }

    /**
     * Create a session for @p params: acquires the shared engine state
     * (cache hit when any live session already uses these parameters)
     * and builds the session context over it and the worker arena.
     * kInvalidArgument for parameter sets the library rejects.
     */
    [[nodiscard]] Result<std::shared_ptr<Session>>
    Create(const he::HeParams &params) HENTT_EXCLUDES(mutex_);

    /** Drop a session from the registry (outstanding shared_ptrs stay
     *  valid until released). Idempotent. */
    void Close(u64 id) HENTT_EXCLUDES(mutex_);

    /** Live sessions right now. */
    std::size_t ActiveCount() const HENTT_EXCLUDES(mutex_);

    /** Sessions ever created. */
    u64 CreatedCount() const HENTT_EXCLUDES(mutex_);

  private:
    std::shared_ptr<he::ScratchArena> arena_;
    mutable Mutex mutex_;
    u64 next_id_ HENTT_GUARDED_BY(mutex_) = 1;
    u64 created_ HENTT_GUARDED_BY(mutex_) = 0;
    std::map<u64, std::shared_ptr<Session>> sessions_
        HENTT_GUARDED_BY(mutex_);
};

}  // namespace hentt::serve

#endif  // HENTT_SERVE_SESSION_H
