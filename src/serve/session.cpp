/** @file SessionManager implementation (see session.h). */

#include "serve/session.h"

namespace hentt::serve {

Result<std::shared_ptr<Session>>
SessionManager::Create(const he::HeParams &params)
{
    // Engine-state acquisition (table builds on a cache miss) runs
    // outside the registry lock — one slow CreateSession must not
    // stall other connections' registry calls.
    std::shared_ptr<const he::HeEngineState> state;
    try {
        state = he::HeEngineState::Acquire(params);
    } catch (...) {
        return CurrentExceptionToStatus().WithFrame(
            "SessionManager::Create");
    }
    auto session = std::make_shared<Session>();
    session->ctx =
        std::make_shared<const he::HeContext>(std::move(state), arena_);
    MutexLock lock(mutex_);
    session->id = next_id_++;
    ++created_;
    sessions_[session->id] = session;
    return session;
}

void
SessionManager::Close(u64 id)
{
    MutexLock lock(mutex_);
    sessions_.erase(id);
}

std::size_t
SessionManager::ActiveCount() const
{
    MutexLock lock(mutex_);
    return sessions_.size();
}

u64
SessionManager::CreatedCount() const
{
    MutexLock lock(mutex_);
    return created_;
}

}  // namespace hentt::serve
