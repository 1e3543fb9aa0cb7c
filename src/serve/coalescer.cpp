/** @file Coalescer implementation (see coalescer.h). */

#include "serve/coalescer.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "he/he_graph.h"

namespace hentt::serve {

Coalescer::Coalescer(BatchConfig config,
                     std::shared_ptr<he::ScratchArena> arena)
    : config_(config), arena_(std::move(arena))
{
    if (config_.max_batch == 0) {
        config_.max_batch = 1;
    }
    if (arena_ == nullptr) {
        arena_ = std::make_shared<he::ScratchArena>();
    }
}

Coalescer::~Coalescer()
{
    Stop();
}

void
Coalescer::Start()
{
    {
        MutexLock lock(mutex_);
        if (started_) {
            return;
        }
        started_ = true;
        stop_ = false;
    }
    worker_ = std::thread([this] { WorkerLoop(); });
}

void
Coalescer::Stop()
{
    {
        MutexLock lock(mutex_);
        if (!started_) {
            return;
        }
        stop_ = true;
    }
    cv_work_.notify_all();
    if (worker_.joinable()) {
        worker_.join();
    }
    MutexLock lock(mutex_);
    started_ = false;
}

Result<u64>
Coalescer::Submit(std::shared_ptr<Session> session,
                  std::vector<he::Ciphertext> inputs,
                  std::vector<WireProgram::Op> ops,
                  std::vector<u32> outputs)
{
    try {
        HENTT_FAILPOINT(fp::kServeRequest);
    } catch (...) {
        return CurrentExceptionToStatus().WithFrame(
            "Coalescer::Submit");
    }
    if (session == nullptr) {
        return Status(ErrorCode::kFailedPrecondition,
                      "submit without a session")
            .WithFrame("Coalescer::Submit");
    }
    // Pin the session's key version now: the request executes against
    // this exact key even if the client reloads keys mid-flight (the
    // shared_ptr keeps the old version alive for the worker).
    std::shared_ptr<const he::RelinKey> rk = session->relin_key();
    // Fail fast on a keyless key-switch: by the time the batch runs,
    // the error would be a graph configuration error; at submit time
    // it is a precise per-request Status.
    for (const WireProgram::Op &op : ops) {
        if ((op.op == WireOp::kRelin ||
             op.op == WireOp::kRelinModSwitch) &&
            rk == nullptr) {
            return Status(ErrorCode::kFailedPrecondition,
                          "program key-switches but session " +
                              std::to_string(session->id) +
                              " has loaded no relinearization keys")
                .WithFrame("Coalescer::Submit");
        }
    }
    Request request;
    request.session = std::move(session);
    request.rk = std::move(rk);
    request.inputs = std::move(inputs);
    request.ops = std::move(ops);
    request.outputs = std::move(outputs);
    request.arrival = std::chrono::steady_clock::now();
    u64 id = 0;
    std::size_t queued = 0;
    {
        MutexLock lock(mutex_);
        if (stop_ || !started_) {
            return Status(ErrorCode::kUnavailable,
                          "coalescer is not running")
                .WithFrame("Coalescer::Submit");
        }
        id = next_request_id_++;
        request.id = id;
        requests_[id].owner = request.session->id;
        queue_.push_back(std::move(request));
        queued = queue_.size();
        ++stats_.requests_submitted;
    }
    // Wake the worker only on the transitions it acts on: the window
    // opening (it must start the deadline timer) and the window
    // filling (it must close early). Mid-window arrivals would only
    // bounce it off wait_until — on a busy daemon that is two context
    // switches per request for nothing.
    if (queued == 1 || queued >= config_.max_batch) {
        cv_work_.notify_all();
    }
    return id;
}

namespace {

/** The one answer every non-owner path gets: a foreign session's id,
 *  a consumed id, and an id that never existed are deliberately
 *  indistinguishable, so sequential request ids enumerate nothing. */
PollResult
UnknownRequest(u64 request_id, const char *frame)
{
    PollResult result;
    result.done = true;
    result.status = Status(ErrorCode::kFailedPrecondition,
                           "unknown request id " +
                               std::to_string(request_id))
                        .WithFrame(frame);
    return result;
}

}  // namespace

PollResult
Coalescer::TakeLocked(u64 request_id, u64 session_id, const char *frame)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end() || it->second.owner != session_id) {
        // Not this session's request: leave it for its owner.
        return UnknownRequest(request_id, frame);
    }
    if (!it->second.result.done) {
        return PollResult{};  // still queued or executing
    }
    PollResult result = std::move(it->second.result);
    requests_.erase(it);
    return result;
}

PollResult
Coalescer::Poll(u64 request_id, u64 session_id)
{
    MutexLock lock(mutex_);
    return TakeLocked(request_id, session_id, "Coalescer::Poll");
}

PollResult
Coalescer::Wait(u64 request_id, u64 session_id)
{
    MutexLock lock(mutex_);
    for (;;) {
        PollResult result =
            TakeLocked(request_id, session_id, "Coalescer::Wait");
        if (result.done) {
            return result;
        }
        cv_done_.wait(mutex_);
    }
}

void
Coalescer::DropSessionRequests(u64 session_id)
{
    MutexLock lock(mutex_);
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->session->id == session_id) {
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    // Executing requests lose their entry here, so their results are
    // discarded when they land; settled ones are freed.
    for (auto it = requests_.begin(); it != requests_.end();) {
        if (it->second.owner == session_id) {
            it = requests_.erase(it);
        } else {
            ++it;
        }
    }
}

WireStats
Coalescer::StatsSnapshot() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
Coalescer::WorkerLoop()
{
    for (;;) {
        std::vector<Request> batch;
        {
            MutexLock lock(mutex_);
            while (!stop_ && queue_.empty()) {
                cv_work_.wait(mutex_);
            }
            if (stop_) {
                break;
            }
            // Admission window: hold the batch open for more arrivals
            // until the oldest request's deadline. At max_batch = 1
            // the first request already fills it, so it never opens.
            const auto deadline = queue_.front().arrival + kAdmissionWindow;
            while (!stop_ && queue_.size() < config_.max_batch &&
                   std::chrono::steady_clock::now() < deadline) {
                cv_work_.wait_until(mutex_, deadline);
            }
            if (stop_) {
                break;
            }
            const std::size_t take =
                std::min(queue_.size(), config_.max_batch);
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            ++stats_.batches_executed;
            if (batch.size() > 1) {
                stats_.coalesced_requests += batch.size();
            }
            stats_.max_batch_observed = std::max<u64>(
                stats_.max_batch_observed, batch.size());
        }
        // Kernels run with no serve lock held (lock-order contract).
        std::vector<std::pair<u64, PollResult>> results =
            ExecuteBatch(batch);
        {
            MutexLock lock(mutex_);
            for (std::pair<u64, PollResult> &entry : results) {
                auto it = requests_.find(entry.first);
                if (it == requests_.end()) {
                    continue;  // dropped while executing: discard
                }
                if (entry.second.status.ok()) {
                    ++stats_.requests_completed;
                } else {
                    ++stats_.requests_failed;
                }
                it->second.result = std::move(entry.second);
            }
        }
        cv_done_.notify_all();
    }
    // Drain on stop: everything still queued settles as kUnavailable
    // so pollers (and the e2e suite) never hang on a dead daemon.
    {
        MutexLock lock(mutex_);
        while (!queue_.empty()) {
            PollResult &result = requests_[queue_.front().id].result;
            queue_.pop_front();
            result.done = true;
            result.status = Status(ErrorCode::kUnavailable,
                                   "daemon stopped before the request "
                                   "executed")
                                .WithFrame("Coalescer::WorkerLoop");
        }
    }
    cv_done_.notify_all();
}

std::vector<std::pair<u64, PollResult>>
Coalescer::ExecuteBatch(std::vector<Request> &batch)
{
    std::vector<std::pair<u64, PollResult>> results;
    results.reserve(batch.size());

    // Group by engine state: requests over the same parameters share
    // one graph (their ciphertexts are mutually compatible); distinct
    // parameter sets get their own graph within the admitted batch.
    std::map<const he::HeEngineState *, std::vector<Request *>> groups;
    for (Request &request : batch) {
        groups[request.session->ctx->engine_state().get()].push_back(
            &request);
    }
    for (auto &[state, requests] : groups) {
        // The evaluation context borrows the worker arena; building it
        // is two shared_ptr copies, not a table build.
        auto ctx = std::make_shared<const he::HeContext>(
            requests.front()->session->ctx->engine_state(), arena_);
        he::BgvScheme scheme(ctx);
        he::HeOpGraph graph(scheme);

        // Enqueue every request's program; slot k of request r maps to
        // futures[r][k]. Ops carry their session's key per node, so
        // keyless stages batch across every client in the group.
        std::vector<std::vector<he::CtFuture>> futures(requests.size());
        std::vector<Status> build_errors(requests.size());
        for (std::size_t r = 0; r < requests.size(); ++r) {
            Request &request = *requests[r];
            std::vector<he::CtFuture> &slots = futures[r];
            slots.reserve(request.inputs.size() + request.ops.size());
            try {
                for (he::Ciphertext &ct : request.inputs) {
                    slots.push_back(graph.Input(std::move(ct)));
                }
                // The key version pinned at submit time — immune to a
                // concurrent LoadKeys swap on the session.
                const he::RelinKey *rk = request.rk.get();
                for (const WireProgram::Op &op : request.ops) {
                    // Decode already validated slot references, but
                    // Submit is also a direct (in-process) entry
                    // point — re-check before indexing.
                    const bool two_operand = op.op == WireOp::kAdd ||
                                             op.op == WireOp::kSub ||
                                             op.op == WireOp::kMul;
                    if (op.a >= slots.size() ||
                        (two_operand && op.b >= slots.size())) {
                        ThrowStatus(
                            Status(ErrorCode::kInvalidArgument,
                                   "program op references slot out "
                                   "of range"));
                    }
                    switch (op.op) {
                      case WireOp::kAdd:
                        slots.push_back(
                            graph.Add(slots[op.a], slots[op.b]));
                        break;
                      case WireOp::kSub:
                        slots.push_back(
                            graph.Sub(slots[op.a], slots[op.b]));
                        break;
                      case WireOp::kMul:
                        slots.push_back(
                            graph.Mul(slots[op.a], slots[op.b]));
                        break;
                      case WireOp::kRelin:
                        slots.push_back(
                            graph.Relinearize(slots[op.a], rk));
                        break;
                      case WireOp::kModSwitch:
                        slots.push_back(graph.ModSwitch(slots[op.a]));
                        break;
                      case WireOp::kRelinModSwitch:
                        slots.push_back(
                            graph.RelinModSwitch(slots[op.a], rk));
                        break;
                    }
                }
            } catch (...) {
                build_errors[r] = CurrentExceptionToStatus().WithFrame(
                    "Coalescer::ExecuteBatch(build)");
            }
        }

        // One execution for the whole group: same-kind nodes across
        // all requests share wavefront batches. Per-node failures are
        // contained by the graph (poisoning); a thrown configuration
        // error surfaces per request below through TryGet.
        (void)graph.ExecuteStatus();

        for (std::size_t r = 0; r < requests.size(); ++r) {
            Request &request = *requests[r];
            PollResult result;
            result.done = true;
            if (!build_errors[r].ok()) {
                result.status = build_errors[r];
                results.emplace_back(request.id, std::move(result));
                continue;
            }
            for (const u32 slot : request.outputs) {
                if (slot >= futures[r].size()) {
                    result.status =
                        Status(ErrorCode::kInvalidArgument,
                               "output slot " + std::to_string(slot) +
                                   " out of range")
                            .WithFrame("Coalescer::ExecuteBatch");
                    result.outputs.clear();
                    break;
                }
                Result<const he::Ciphertext *> output =
                    futures[r][slot].TryGet();
                if (!output.ok()) {
                    result.status = output.status().WithFrame(
                        "serve request " + std::to_string(request.id));
                    result.outputs.clear();
                    break;
                }
                result.outputs.push_back(**output);
            }
            results.emplace_back(request.id, std::move(result));
        }
    }
    return results;
}

}  // namespace hentt::serve
