/**
 * @file
 * Coalescer — the admission-control queue that turns many clients'
 * independent requests into shared HeOpGraph wavefronts.
 *
 * This is the serving layer's scale play, the paper's batching argument
 * lifted one more level: limb-batching amortised dispatch overhead
 * across a polynomial's rows, ciphertext-batching across one caller's
 * ops, and the coalescer amortises it across *clients*. Requests from
 * any number of sessions land in one queue. The worker is
 * work-conserving and schedules one wavefront at a time: between any
 * two wavefronts it admits everything queued, then runs one wavefront
 * of the admitted batch with the fewest pending wavefronts (ties go to
 * the earliest admitted). There is no admission timer:
 *
 *   - a lone request starts as soon as the worker is free;
 *   - a batch stays open to later arrivals over its engine state (up
 *     to max_batch requests) until its first wavefront runs, so under
 *     load the requests queued behind a running batch share one graph;
 *   - a small request arriving mid-graph waits for at most the one
 *     wavefront in progress, not the whole graph.
 *
 * max_batch = 1 is the unbatched ablation: every request runs as its
 * own batch of one.
 *
 * Key handling: the batch graph carries per-node relinearization keys
 * (each request's ops point at the key version its session had loaded
 * at submit time, pinned via shared_ptr so a mid-flight key reload
 * never invalidates them), so keyless
 * stages (Add/Mul/ModSwitch — including the expensive tensor product)
 * batch across *all* clients while key-switching stages sub-batch per
 * client key (see HeOpGraph).
 *
 * Locking: the queue/result mutex is a leaf lock released before any
 * kernel executes — the worker holds one graph's mutex for one
 * wavefront and NO serve lock, so the documented HeOpGraph →
 * ScratchArena → ThreadPool order is untouched (ARCHITECTURE.md
 * lock-ordering table).
 */

#ifndef HENTT_SERVE_COALESCER_H
#define HENTT_SERVE_COALESCER_H

#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "he/he_graph.h"
#include "serve/session.h"
#include "serve/wire.h"

namespace hentt::serve {

/** Admission control: the one knob. */
struct BatchConfig {
    /** Most requests admitted into one batch; 1 is the unbatched
     *  ablation (bench_serve's comparison baseline). */
    std::size_t max_batch = 64;
};

/** Outcome of polling a request. */
struct PollResult {
    /** False while the request is queued or executing. */
    bool done = false;
    /** OK iff the whole program evaluated; otherwise the first failed
     *  output's Status with full provenance. */
    Status status;
    std::vector<he::Ciphertext> outputs;
};

/** The admission queue + its worker thread (see file comment). */
class Coalescer
{
  public:
    Coalescer(BatchConfig config,
              std::shared_ptr<he::ScratchArena> arena);
    ~Coalescer();

    Coalescer(const Coalescer &) = delete;
    Coalescer &operator=(const Coalescer &) = delete;

    /** Launch the worker thread. */
    void Start();

    /** Stop the worker once the wavefront in progress (if any)
     *  finishes; every queued request and every request of an admitted
     *  but unfinished batch settles with kUnavailable (pollers wake).
     *  Idempotent. */
    void Stop();

    /**
     * Enqueue a program for @p session: materialised inputs, ops over
     * slots (inputs first, then op results), and the output slots to
     * return. Fails fast with kFailedPrecondition when the program
     * key-switches but the session has loaded no keys. Returns the
     * request id to poll.
     */
    [[nodiscard]] Result<u64>
    Submit(std::shared_ptr<Session> session,
           std::vector<he::Ciphertext> inputs,
           std::vector<WireProgram::Op> ops, std::vector<u32> outputs)
        HENTT_EXCLUDES(mutex_);

    /** Non-blocking result check; a done result is consumed (a second
     *  poll of the same id reports it unknown). Results are scoped to
     *  the submitting session: @p session_id must match the owner
     *  recorded at Submit, otherwise — and for genuinely unknown ids —
     *  the poll comes back done with kFailedPrecondition ("unknown
     *  request id", deliberately indistinguishable so ids enumerate
     *  nothing), and the owner's result is left untouched. */
    [[nodiscard]] PollResult Poll(u64 request_id, u64 session_id)
        HENTT_EXCLUDES(mutex_);

    /** Blocking Poll: waits until the request settles. Same ownership
     *  scoping — a foreign @p session_id fails immediately rather than
     *  blocking on a result it may never consume. */
    [[nodiscard]] PollResult Wait(u64 request_id, u64 session_id)
        HENTT_EXCLUDES(mutex_);

    /** Abandon every request @p session_id owns — queued ones are
     *  dropped, admitted ones complete and are discarded, undelivered
     *  results are freed. Connection-teardown hook (no orphans). */
    void DropSessionRequests(u64 session_id) HENTT_EXCLUDES(mutex_);

    /** Batching counters (the session_* fields stay zero; the daemon
     *  overlays them from its SessionManager). */
    WireStats StatsSnapshot() const HENTT_EXCLUDES(mutex_);

    /** The worker arena sessions borrow. */
    const std::shared_ptr<he::ScratchArena> &arena() const
    {
        return arena_;
    }

  private:
    struct Request {
        u64 id = 0;
        std::shared_ptr<Session> session;
        /** The session's key version at submit time, pinned so a
         *  concurrent LoadKeys reload cannot destroy the key this
         *  request's graph nodes point at mid-execution. */
        std::shared_ptr<const he::RelinKey> rk;
        std::vector<he::Ciphertext> inputs;
        std::vector<WireProgram::Op> ops;
        std::vector<u32> outputs;
    };

    /** One admitted batch: a graph over the requests of one engine
     *  state, stepped one wavefront at a time. Worker-owned. */
    struct Batch {
        const he::HeEngineState *state = nullptr;
        std::unique_ptr<he::BgvScheme> scheme;  ///< graph refers to it
        std::unique_ptr<he::HeOpGraph> graph;
        std::vector<Request> requests;
        /** slots[r][k]: the future of slot k of requests[r]. */
        std::vector<std::vector<he::CtFuture>> slots;
        std::vector<Status> build_errors;  ///< per request
        std::size_t pending = 0;           ///< wavefronts left
        /** Whether a wavefront has run; a started batch admits no
         *  more requests. */
        bool started = false;
    };

    /** One request id's entry in requests_: queued or executing while
     *  result.done is false, then the settled, not-yet-polled result. */
    struct Tracked {
        u64 owner = 0;  ///< submitting session id
        PollResult result;
    };

    void WorkerLoop() HENTT_EXCLUDES(mutex_);

    /** Poll/Wait's shared lookup: the settled result (consumed), a
     *  not-done PollResult while pending, or UnknownRequest when the id
     *  is absent or @p session_id does not own it. */
    PollResult TakeLocked(u64 request_id, u64 session_id,
                          const char *frame) HENTT_REQUIRES(mutex_);

    /** Add @p arrivals to @p batches: each joins the open batch over
     *  its engine state, or starts a new one. Builds graph nodes, so it
     *  runs with no serve lock held. Returns the batches created. */
    std::size_t Admit(std::vector<Batch> &batches,
                      std::vector<Request> &arrivals);

    /** The outputs of every request of a batch with no pending
     *  wavefront. Runs with no serve lock held. */
    static std::vector<std::pair<u64, PollResult>>
    Collect(const Batch &batch);

    BatchConfig config_;
    std::shared_ptr<he::ScratchArena> arena_;

    mutable Mutex mutex_;
    CondVar cv_work_;  ///< signalled on first queued submit and stop
    CondVar cv_done_;  ///< signalled when results land
    bool stop_ HENTT_GUARDED_BY(mutex_) = false;
    bool started_ HENTT_GUARDED_BY(mutex_) = false;
    u64 next_request_id_ HENTT_GUARDED_BY(mutex_) = 1;
    std::deque<Request> queue_ HENTT_GUARDED_BY(mutex_);
    /** Every live request id from Submit until its result is polled
     *  (or its session drops it). */
    std::map<u64, Tracked> requests_ HENTT_GUARDED_BY(mutex_);
    WireStats stats_ HENTT_GUARDED_BY(mutex_);

    std::thread worker_;
};

}  // namespace hentt::serve

#endif  // HENTT_SERVE_COALESCER_H
