/**
 * @file
 * HeOpGraph — an async, ciphertext-level HE pipeline on top of the
 * batched kernels (ciphertext_batch.h).
 *
 * Operations on the graph (Add/Mul/Relinearize/ModSwitch/...) do not
 * execute immediately: they enqueue whole-ciphertext nodes and return
 * CtFuture handles. Execute() then runs the DAG in dependency
 * wavefronts, and every group of independent same-kind ops in a
 * wavefront executes as a single batch — one thread-pool dispatch per
 * stage spanning all ciphertexts x parts x limbs. This is how
 * independent ciphertext ops overlap on the blocking pool: their limb
 * tasks share dispatches instead of queuing behind one another, the
 * CPU analogue of streaming independent HE ops down one big GPU batch
 * (the paper's Section V-A batching argument lifted from polynomials
 * to operations).
 *
 * Typical use:
 *
 *     HeOpGraph g(scheme, &rk);
 *     CtFuture x = g.Input(ct_a), y = g.Input(ct_b), z = g.Input(ct_c);
 *     CtFuture xy = g.MulRelin(x, y);      // independent of zz
 *     CtFuture zz = g.MulRelin(z, z);      // batched with xy
 *     CtFuture sum = g.Add(xy, zz);
 *     const Ciphertext &result = sum.get();  // runs the graph
 */

#ifndef HENTT_HE_HE_GRAPH_H
#define HENTT_HE_HE_GRAPH_H

#include <cstddef>
#include <deque>
#include <limits>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "he/bgv.h"

namespace hentt::he {

class HeOpGraph;

/**
 * Future-style handle to a ciphertext computed by an HeOpGraph. Cheap
 * to copy; valid as long as the graph outlives it. get() forces
 * execution of all pending nodes in the owning graph.
 */
class CtFuture
{
  public:
    CtFuture() = default;

    /** Whether the handle refers to a graph node at all. */
    bool valid() const { return graph_ != nullptr; }

    /** Whether the node has already been computed (never blocks). */
    bool ready() const;

    /**
     * The computed ciphertext; triggers HeOpGraph::Execute() on the
     * owning graph when the node is still pending. If the node failed
     * (its own kernel threw, or an operand upstream failed and the
     * poison reached it), throws the node's Status — carrying the node
     * id, op kind, and the originating failure's provenance chain — via
     * ThrowStatus, so the exception is still catchable as the mapped
     * std type. get() on a default-constructed handle throws a
     * PreconditionError (a std::logic_error).
     */
    const Ciphertext &get() const;

    /**
     * Non-throwing variant: executes pending work like get(), then
     * returns either a pointer to the computed ciphertext or the node's
     * failure Status.
     */
    [[nodiscard]] Result<const Ciphertext *> TryGet() const;

    /**
     * This node's failure state without forcing execution: OK when the
     * node computed successfully, kUnavailable when the node is still
     * pending (or the handle is empty), otherwise the contained error.
     */
    [[nodiscard]] Status status() const;

  private:
    friend class HeOpGraph;
    CtFuture(HeOpGraph *graph, std::size_t node)
        : graph_(graph), node_(node)
    {
    }

    HeOpGraph *graph_ = nullptr;
    std::size_t node_ = 0;
};

/**
 * Dependency graph of whole-ciphertext HE operations, executed in
 * wavefronts through the batched kernels. Append-only: nodes are added
 * by the op methods and computed by Execute(); a graph can keep
 * growing after partial execution (already-computed nodes are never
 * re-run).
 *
 * Thread safety: every public method (and every CtFuture accessor)
 * takes the graph's internal mutex, so futures may be handed to other
 * threads and forced concurrently — the winner runs the pending
 * wavefronts, the others block and then read settled results. Node
 * values are immutable once settled and node storage is a deque, so
 * references returned by get() stay valid without the lock. The graph
 * mutex is held across batched-kernel execution and is acquired
 * *before* the context's ScratchArena mutex and the ThreadPool's run
 * mutex (see ARCHITECTURE.md's lock-ordering table).
 */
class HeOpGraph
{
  public:
    /**
     * @param scheme the scheme whose context the ciphertexts live in
     * @param rk     relinearization keys; required before the first
     *               Relinearize/MulRelin node executes, may be null
     *               for graphs without key switching
     */
    explicit HeOpGraph(const BgvScheme &scheme,
                       const RelinKey *rk = nullptr);

    /** Register an already-computed ciphertext as a graph leaf. */
    CtFuture Input(Ciphertext ct);

    /** Enqueue out = a + b (element-wise, matching degree/level). */
    CtFuture Add(CtFuture a, CtFuture b);

    /** Enqueue out = a - b (element-wise, matching degree/level). */
    CtFuture Sub(CtFuture a, CtFuture b);

    /** Enqueue the degree-2 tensor product of two degree-1 inputs. */
    CtFuture Mul(CtFuture a, CtFuture b);

    /**
     * Enqueue the key-switch of a degree-2 input back to degree 1.
     * @p rk overrides the graph-level key for this node (cross-client
     * graphs mix ciphertexts under different keys — see the serving
     * layer); nullptr uses the constructor's key. Keyed nodes in a
     * wavefront sub-batch by key: one kernel call per distinct key.
     */
    CtFuture Relinearize(CtFuture a, const RelinKey *rk = nullptr);

    /** Enqueue Mul immediately followed by Relinearize (the common
     *  chain; both stages batch with their wavefront peers). */
    CtFuture
    MulRelin(CtFuture a, CtFuture b, const RelinKey *rk = nullptr);

    /** Enqueue the drop of the input's last RNS prime (noise
     *  management between multiplications). */
    CtFuture ModSwitch(CtFuture a);

    /**
     * Enqueue the fused Relinearize→ModSwitch of a degree-2 input: key
     * switch back to degree 1 and drop the last RNS prime in one
     * pipeline stage (BatchRelinModSwitch), saving the standalone fold
     * and rescale sweeps the two-node chain pays between the
     * relinearization inverse stage and the divide-and-round. All
     * RelinModSwitch nodes in a wavefront execute as one batch (one
     * per distinct key when per-node keys are in play).
     */
    CtFuture RelinModSwitch(CtFuture a, const RelinKey *rk = nullptr);

    /** Enqueue Mul followed by the fused RelinModSwitch — the full
     *  multiply-and-descend step of a leveled circuit. */
    CtFuture MulRelinModSwitch(CtFuture a, CtFuture b,
                               const RelinKey *rk = nullptr);

    /**
     * Run every pending node. Nodes are grouped into dependency
     * wavefronts; within a wavefront, all nodes of the same kind
     * execute as one batched kernel call (single dispatches spanning
     * the whole group). Exceptions from kernels propagate and leave
     * the affected wavefront's nodes pending.
     *
     * Failure containment: a node whose batched kernel throws is
     * *settled with an error Status* instead of aborting the wavefront
     * — when several nodes shared the batch, each is retried as a
     * batch of one so only the genuinely failing nodes fail. The error
     * poisons exactly the failed node's dependents (they settle with a
     * kPoisoned Status naming the origin node); independent chains in
     * the same wavefront still complete, and their results are
     * bit-identical to a fault-free run. Failed nodes are sticky: a
     * later Execute() does not retry them. Only configuration errors
     * (a Relinearize scheduled on a graph built without keys) still
     * throw out of Execute(), as a PreconditionError.
     *
     * The scheduler auto-fuses before running: a pending Relinearize
     * node whose only consumer is a pending ModSwitch collapses into
     * one kRelinModSwitch node (the fused kernel), exactly what an
     * explicit RelinModSwitch() call would have enqueued — the
     * standalone fold/rescale sweeps between the two ops disappear.
     * The bypassed Relinearize node is *not* computed; holding a
     * CtFuture to it stays legal — get() materialises it on demand
     * with a standalone Relinearize.
     */
    void Execute() HENTT_EXCLUDES(mutex_);

    /** ExecuteStatus()'s default wavefront limit: run everything. */
    static constexpr std::size_t kAllWavefronts =
        std::numeric_limits<std::size_t>::max();

    /**
     * Execute() with the error report as a value: runs the first
     * @p max_wavefronts pending dependency wavefronts (all of them by
     * default), then returns OK when every settled node settled
     * cleanly, the aggregated failure Status (every failed node, with
     * provenance) otherwise. Configuration errors that Execute() throws
     * are returned as a Status too — this entry point never throws
     * library errors.
     *
     * Stepping — calling with max_wavefronts = 1 until
     * PendingWavefronts() reads 0 — runs exactly the kernel batches of
     * one full call, in the same order, with the same auto-fusion,
     * poisoning and batch-of-one retry, so its results are
     * bit-identical. The serving layer steps graphs to interleave
     * requests of different depths on one worker.
     */
    [[nodiscard]] Status
    ExecuteStatus(std::size_t max_wavefronts = kAllWavefronts)
        HENTT_EXCLUDES(mutex_);

    /**
     * Number of dependency wavefronts a full Execute() would run now
     * (the depth of the pending DAG after auto-fusion); 0 when nothing
     * is pending. Applies the auto-fusion rewrite the next execution
     * would apply, which is idempotent. Each ExecuteStatus(1) lowers it
     * by exactly one unless a configuration error is returned.
     */
    std::size_t PendingWavefronts() HENTT_EXCLUDES(mutex_);

    /** Number of nodes ever added (inputs included). */
    std::size_t size() const HENTT_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return nodes_.size();
    }

    /** Number of nodes not yet computed. */
    std::size_t pending() const HENTT_EXCLUDES(mutex_);

  private:
    friend class CtFuture;

    enum class Kind {
        kInput,
        kAdd,
        kSub,
        kMul,
        kRelin,
        kModSwitch,
        kRelinModSwitch,  ///< fused Relinearize→ModSwitch stage
    };

    struct Node {
        Kind kind;
        std::size_t a = 0;  // operand node indices (kind-dependent)
        std::size_t b = 0;
        // Per-node key override for kRelin/kRelinModSwitch; nullptr
        // falls back to the graph-level rk_. Must outlive execution.
        const RelinKey *rk = nullptr;
        bool done = false;
        // Bypassed by the auto-fusion pass (a Relinearize whose only
        // consumer became a fused node): skipped by Execute and by
        // pending(), materialised lazily if a CtFuture demands it.
        bool fused_away = false;
        // A CtFuture::get() asked for this node's value: the fusion
        // pass must never bypass it (even on the Execute() that the
        // get() itself triggers).
        bool demanded = false;
        // Settled failure state. A done node with !status.ok() holds no
        // value: its kernel threw (status carries the kernel error) or
        // an operand failed upstream (kPoisoned, naming the origin).
        // Sticky — Execute() never retries a failed node.
        Status status;
        Ciphertext value;
    };

    /** Display name of a node kind ("Mul", "RelinModSwitch", ...). */
    static const char *KindName(Kind kind);

    /** Execute() body over at most @p max_wavefronts wavefronts; the
     *  public entry points wrap it in the lock. */
    void ExecuteLocked(std::size_t max_wavefronts = kAllWavefronts)
        HENTT_REQUIRES(mutex_);

    /** Scheduling pass shared by execution and PendingWavefronts():
     *  applies auto-fusion, labels each pending node with its wavefront
     *  in @p depth (0 for settled or bypassed nodes), and returns the
     *  deepest label. */
    std::size_t PlanLocked(std::vector<std::size_t> &depth)
        HENTT_REQUIRES(mutex_);

    CtFuture Enqueue(Kind kind, std::size_t a, std::size_t b,
                     const RelinKey *rk = nullptr)
        HENTT_EXCLUDES(mutex_);
    std::size_t CheckOwned(const CtFuture &f) const;
    /** Settle node @p i as failed with @p status (provenance frame
     *  "HeOpGraph node i (Kind)" appended). */
    void SettleFailed(std::size_t i, Status status)
        HENTT_REQUIRES(mutex_);

    const BgvScheme &scheme_;
    const RelinKey *rk_;
    // Serialises node appends, execution, and future reads; ordered
    // before the arena and pool mutexes the batched kernels take.
    mutable Mutex mutex_;
    // Deque, not vector: references returned by CtFuture::get() must
    // stay valid while the graph keeps growing (ops append nodes).
    std::deque<Node> nodes_ HENTT_GUARDED_BY(mutex_);
};

}  // namespace hentt::he

#endif  // HENTT_HE_HE_GRAPH_H
