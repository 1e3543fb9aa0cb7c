/** @file Coalescer implementation (see coalescer.h). */

#include "serve/coalescer.h"

#include <algorithm>
#include <iterator>
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
    u64 id = 0;
    bool first = false;
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
        first = queue_.empty();
        queue_.push_back(std::move(request));
        ++stats_.requests_submitted;
    }
    // Wake the worker only when the queue becomes non-empty: an idle
    // worker is waiting for exactly that, and a busy one re-checks the
    // queue between wavefronts anyway.
    if (first) {
        cv_work_.notify_one();
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
    // Admitted, unfinished batches in admission order. Worker-owned:
    // no other thread touches them, so they need no lock.
    std::vector<Batch> batches;
    std::vector<Request> arrivals;
    for (;;) {
        {
            MutexLock lock(mutex_);
            while (!stop_ && queue_.empty() && batches.empty()) {
                cv_work_.wait(mutex_);
            }
            if (stop_) {
                break;
            }
            arrivals.assign(std::make_move_iterator(queue_.begin()),
                            std::make_move_iterator(queue_.end()));
            queue_.clear();
        }
        if (!arrivals.empty()) {
            const std::size_t created = Admit(batches, arrivals);
            arrivals.clear();
            MutexLock lock(mutex_);
            stats_.batches_executed += created;
        }
        // Fewest pending wavefronts first; min_element returns the
        // first minimum, so ties go to the earliest-admitted batch.
        const auto next = std::min_element(
            batches.begin(), batches.end(),
            [](const Batch &a, const Batch &b) {
                return a.pending < b.pending;
            });
        if (next->pending > 0) {
            // One wavefront, holding the graph's mutex and no serve
            // lock (lock-order contract). Per-node failures are
            // contained by the graph (poisoning); a configuration
            // error makes no progress, so the batch goes straight to
            // collection, which reports it per request through TryGet.
            next->started = true;
            (void)next->graph->ExecuteStatus(1);
            const std::size_t left = next->graph->PendingWavefronts();
            next->pending = left < next->pending ? left : 0;
            if (next->pending > 0) {
                continue;
            }
        }
        std::vector<std::pair<u64, PollResult>> results = Collect(*next);
        const std::size_t size = next->requests.size();
        batches.erase(next);
        {
            MutexLock lock(mutex_);
            if (size > 1) {
                stats_.coalesced_requests += size;
            }
            stats_.max_batch_observed =
                std::max<u64>(stats_.max_batch_observed, size);
            for (std::pair<u64, PollResult> &entry : results) {
                auto it = requests_.find(entry.first);
                if (it == requests_.end()) {
                    continue;  // dropped while admitted: discard
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
    // Drain on stop: everything still queued or admitted settles as
    // kUnavailable so pollers (and the e2e suite) never hang on a dead
    // daemon. Like a drop, it counts as neither completed nor failed.
    {
        MutexLock lock(mutex_);
        const auto settle = [this](const Request &request) {
            auto it = requests_.find(request.id);
            if (it == requests_.end()) {
                return;  // its session dropped it
            }
            it->second.result.done = true;
            it->second.result.status =
                Status(ErrorCode::kUnavailable,
                       "daemon stopped before the request executed")
                    .WithFrame("Coalescer::WorkerLoop");
        };
        for (const Request &request : queue_) {
            settle(request);
        }
        queue_.clear();
        for (const Batch &batch : batches) {
            for (const Request &request : batch.requests) {
                settle(request);
            }
        }
    }
    cv_done_.notify_all();
}

std::size_t
Coalescer::Admit(std::vector<Batch> &batches,
                 std::vector<Request> &arrivals)
{
    // Requests over the same parameters share one graph (their
    // ciphertexts are mutually compatible); distinct parameter sets
    // get their own batches.
    std::size_t created = 0;
    for (Request &request : arrivals) {
        const std::shared_ptr<const he::HeEngineState> &state =
            request.session->ctx->engine_state();
        std::size_t input_bytes = 0;
        for (const he::Ciphertext &ct : request.inputs) {
            for (const RnsPoly &part : ct.parts) {
                input_bytes += part.flat().size_bytes();
            }
        }
        auto batch = std::find_if(
            batches.begin(), batches.end(), [&](const Batch &open) {
                return !open.started && open.state == state.get() &&
                       open.requests.size() < config_.max_batch &&
                       open.input_bytes + input_bytes <= kBatchInputBytes;
            });
        if (batch == batches.end()) {
            // The evaluation context borrows the worker arena; building
            // it is two shared_ptr copies, not a table build.
            Batch fresh;
            fresh.state = state.get();
            fresh.scheme = std::make_unique<he::BgvScheme>(
                std::make_shared<const he::HeContext>(state, arena_));
            fresh.graph = std::make_unique<he::HeOpGraph>(*fresh.scheme);
            batches.push_back(std::move(fresh));
            batch = std::prev(batches.end());
            ++created;
        }
        batch->input_bytes += input_bytes;
        he::HeOpGraph &graph = *batch->graph;

        // Enqueue the request's program; slot k maps to slots[k]. Ops
        // carry their session's key per node, so keyless stages batch
        // across every client in the graph.
        std::vector<he::CtFuture> slots;
        slots.reserve(request.inputs.size() + request.ops.size());
        Status build_error;
        try {
            for (he::Ciphertext &ct : request.inputs) {
                slots.push_back(graph.Input(std::move(ct)));
            }
            // The key version pinned at submit time — immune to a
            // concurrent LoadKeys swap on the session.
            const he::RelinKey *rk = request.rk.get();
            for (const WireProgram::Op &op : request.ops) {
                // Decode already validated slot references, but Submit
                // is also a direct (in-process) entry point — re-check
                // before indexing.
                const bool two_operand = op.op == WireOp::kAdd ||
                                         op.op == WireOp::kSub ||
                                         op.op == WireOp::kMul;
                if (op.a >= slots.size() ||
                    (two_operand && op.b >= slots.size())) {
                    ThrowStatus(Status(ErrorCode::kInvalidArgument,
                                       "program op references slot out "
                                       "of range"));
                }
                switch (op.op) {
                  case WireOp::kAdd:
                    slots.push_back(graph.Add(slots[op.a], slots[op.b]));
                    break;
                  case WireOp::kSub:
                    slots.push_back(graph.Sub(slots[op.a], slots[op.b]));
                    break;
                  case WireOp::kMul:
                    slots.push_back(graph.Mul(slots[op.a], slots[op.b]));
                    break;
                  case WireOp::kRelin:
                    slots.push_back(graph.Relinearize(slots[op.a], rk));
                    break;
                  case WireOp::kModSwitch:
                    slots.push_back(graph.ModSwitch(slots[op.a]));
                    break;
                  case WireOp::kRelinModSwitch:
                    slots.push_back(graph.RelinModSwitch(slots[op.a], rk));
                    break;
                }
            }
        } catch (...) {
            build_error = CurrentExceptionToStatus().WithFrame(
                "Coalescer::Admit");
        }
        batch->requests.push_back(std::move(request));
        batch->slots.push_back(std::move(slots));
        batch->build_errors.push_back(std::move(build_error));
    }
    // Only open batches gained nodes.
    for (Batch &batch : batches) {
        if (!batch.started) {
            batch.pending = batch.graph->PendingWavefronts();
        }
    }
    return created;
}

std::vector<std::pair<u64, PollResult>>
Coalescer::Collect(const Batch &batch)
{
    std::vector<std::pair<u64, PollResult>> results;
    results.reserve(batch.requests.size());
    for (std::size_t r = 0; r < batch.requests.size(); ++r) {
        const Request &request = batch.requests[r];
        PollResult result;
        result.done = true;
        if (!batch.build_errors[r].ok()) {
            result.status = batch.build_errors[r];
            results.emplace_back(request.id, std::move(result));
            continue;
        }
        for (const u32 slot : request.outputs) {
            if (slot >= batch.slots[r].size()) {
                result.status =
                    Status(ErrorCode::kInvalidArgument,
                           "output slot " + std::to_string(slot) +
                               " out of range")
                        .WithFrame("Coalescer::Collect");
                result.outputs.clear();
                break;
            }
            // Every scheduled node is settled; TryGet only computes a
            // Relinearize the auto-fusion bypassed that the request
            // also returns.
            Result<const he::Ciphertext *> output =
                batch.slots[r][slot].TryGet();
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
    return results;
}

}  // namespace hentt::serve
