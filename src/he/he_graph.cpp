#include "he/he_graph.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "he/ciphertext_batch.h"

namespace hentt::he {

bool
CtFuture::ready() const
{
    if (graph_ == nullptr) {
        return false;
    }
    MutexLock lock(graph_->mutex_);
    return graph_->nodes_[node_].done;
}

const Ciphertext &
CtFuture::get() const
{
    if (!valid()) {
        ThrowStatus(Status(ErrorCode::kFailedPrecondition,
                           "get() on an empty CtFuture: the handle is "
                           "default-constructed and bound to no graph "
                           "node")
                        .WithFrame("CtFuture::get"));
    }
    MutexLock lock(graph_->mutex_);
    if (!graph_->nodes_[node_].done) {
        // Demanding a node pins it into the schedule: a previous
        // bypass is undone, and the fusion pass of the Execute() this
        // very call triggers will not bypass it either — without the
        // pin, get() on a Relinearize whose only consumer is a pending
        // ModSwitch would return an empty value.
        graph_->nodes_[node_].demanded = true;
        graph_->nodes_[node_].fused_away = false;
        graph_->ExecuteLocked();
    }
    const HeOpGraph::Node &node = graph_->nodes_[node_];
    if (!node.status.ok()) {
        ThrowStatus(node.status.WithFrame(
            "CtFuture::get(node " + std::to_string(node_) + ", " +
            HeOpGraph::KindName(node.kind) + ")"));
    }
    // Safe to hand out without the lock: settled nodes are immutable
    // and deque storage never relocates them.
    return node.value;
}

Result<const Ciphertext *>
CtFuture::TryGet() const
{
    try {
        return &get();
    } catch (...) {
        return CurrentExceptionToStatus();
    }
}

Status
CtFuture::status() const
{
    if (!valid()) {
        return Status(ErrorCode::kUnavailable,
                      "empty CtFuture: bound to no graph node");
    }
    MutexLock lock(graph_->mutex_);
    const HeOpGraph::Node &node = graph_->nodes_[node_];
    if (!node.done) {
        return Status(ErrorCode::kUnavailable,
                      "node " + std::to_string(node_) + " (" +
                          HeOpGraph::KindName(node.kind) +
                          ") not yet executed");
    }
    return node.status;
}

HeOpGraph::HeOpGraph(const BgvScheme &scheme, const RelinKey *rk)
    : scheme_(scheme), rk_(rk)
{
}

const char *
HeOpGraph::KindName(Kind kind)
{
    switch (kind) {
      case Kind::kInput:
        return "Input";
      case Kind::kAdd:
        return "Add";
      case Kind::kSub:
        return "Sub";
      case Kind::kMul:
        return "Mul";
      case Kind::kRelin:
        return "Relinearize";
      case Kind::kModSwitch:
        return "ModSwitch";
      case Kind::kRelinModSwitch:
        return "RelinModSwitch";
    }
    return "Unknown";
}

void
HeOpGraph::SettleFailed(std::size_t i, Status status)
{
    Node &node = nodes_[i];
    node.status = status.WithFrame("HeOpGraph node " + std::to_string(i) +
                                   " (" + KindName(node.kind) + ")");
    node.done = true;
}

std::size_t
HeOpGraph::CheckOwned(const CtFuture &f) const
{
    if (!f.valid() || f.graph_ != this) {
        ThrowStatus(Status(ErrorCode::kInvalidArgument,
                           "CtFuture does not belong to this graph")
                        .WithFrame("HeOpGraph::CheckOwned"));
    }
    return f.node_;
}

CtFuture
HeOpGraph::Enqueue(Kind kind, std::size_t a, std::size_t b,
                   const RelinKey *rk)
{
    Node node;
    node.kind = kind;
    node.a = a;
    node.b = b;
    node.rk = rk;
    MutexLock lock(mutex_);
    nodes_.push_back(std::move(node));
    return CtFuture(this, nodes_.size() - 1);
}

CtFuture
HeOpGraph::Input(Ciphertext ct)
{
    Node node;
    node.kind = Kind::kInput;
    node.done = true;
    node.value = std::move(ct);
    MutexLock lock(mutex_);
    nodes_.push_back(std::move(node));
    return CtFuture(this, nodes_.size() - 1);
}

CtFuture
HeOpGraph::Add(CtFuture a, CtFuture b)
{
    return Enqueue(Kind::kAdd, CheckOwned(a), CheckOwned(b));
}

CtFuture
HeOpGraph::Sub(CtFuture a, CtFuture b)
{
    return Enqueue(Kind::kSub, CheckOwned(a), CheckOwned(b));
}

CtFuture
HeOpGraph::Mul(CtFuture a, CtFuture b)
{
    return Enqueue(Kind::kMul, CheckOwned(a), CheckOwned(b));
}

CtFuture
HeOpGraph::Relinearize(CtFuture a, const RelinKey *rk)
{
    const std::size_t n = CheckOwned(a);
    return Enqueue(Kind::kRelin, n, n, rk);
}

CtFuture
HeOpGraph::MulRelin(CtFuture a, CtFuture b, const RelinKey *rk)
{
    return Relinearize(Mul(a, b), rk);
}

CtFuture
HeOpGraph::ModSwitch(CtFuture a)
{
    const std::size_t n = CheckOwned(a);
    return Enqueue(Kind::kModSwitch, n, n);
}

CtFuture
HeOpGraph::RelinModSwitch(CtFuture a, const RelinKey *rk)
{
    const std::size_t n = CheckOwned(a);
    return Enqueue(Kind::kRelinModSwitch, n, n, rk);
}

CtFuture
HeOpGraph::MulRelinModSwitch(CtFuture a, CtFuture b, const RelinKey *rk)
{
    return RelinModSwitch(Mul(a, b), rk);
}

std::size_t
HeOpGraph::pending() const
{
    MutexLock lock(mutex_);
    std::size_t count = 0;
    for (const Node &node : nodes_) {
        if (!node.done && !node.fused_away) {
            ++count;
        }
    }
    return count;
}

void
HeOpGraph::Execute()
{
    MutexLock lock(mutex_);
    ExecuteLocked();
}

std::size_t
HeOpGraph::PlanLocked(std::vector<std::size_t> &depth)
{
    // Auto-fusion pass: a pending Relinearize whose ONLY consumer is a
    // pending ModSwitch collapses into that consumer as one fused
    // kRelinModSwitch node — the scheduler applies the same fusion an
    // explicit RelinModSwitch() call opts into. Consumers are counted
    // across every not-yet-done node (single-operand kinds store their
    // operand twice; count it once), so a Relinearize feeding anything
    // else keeps its standalone node. Graphs without relin keys never
    // fuse (and can never hold bypassed nodes), so the whole pass is
    // skipped there; a pending node carrying its own key (cross-client
    // graphs) re-enables it.
    bool any_keyed = rk_ != nullptr;
    for (const Node &node : nodes_) {
        if (!node.done && node.rk != nullptr) {
            any_keyed = true;
        }
    }
    if (any_keyed) {
        std::vector<std::size_t> uses(nodes_.size(), 0);
        for (const Node &node : nodes_) {
            if (node.done) {
                continue;
            }
            ++uses[node.a];
            if (node.b != node.a) {
                ++uses[node.b];
            }
        }
        // A node bypassed by an earlier Execute() that has since
        // gained a pending consumer (ops can keep appending) rejoins
        // the schedule — the pass below may legitimately re-bypass it
        // when the new consumer is again a lone ModSwitch; any other
        // consumer shape materialises it.
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (nodes_[i].fused_away && uses[i] > 0) {
                nodes_[i].fused_away = false;
            }
        }
        for (Node &node : nodes_) {
            if (node.done || node.kind != Kind::kModSwitch) {
                continue;
            }
            Node &relin = nodes_[node.a];
            if (relin.done || relin.fused_away || relin.demanded ||
                relin.kind != Kind::kRelin || uses[node.a] != 1 ||
                (relin.rk == nullptr && rk_ == nullptr)) {
                continue;
            }
            node.kind = Kind::kRelinModSwitch;
            node.a = relin.a;
            node.b = relin.a;
            node.rk = relin.rk;  // the fused stage key-switches with
                                 // the bypassed node's key
            relin.fused_away = true;
        }
    }

    // Wavefront labelling: operands always precede their consumers in
    // nodes_ (append-only), so one ascending pass assigns each pending
    // node 1 + the max depth of its pending operands (computed nodes
    // count as depth 0).
    depth.assign(nodes_.size(), 0);
    std::size_t max_depth = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].done || nodes_[i].fused_away) {
            continue;
        }
        depth[i] = 1 + std::max(depth[nodes_[i].a], depth[nodes_[i].b]);
        max_depth = std::max(max_depth, depth[i]);
    }
    return max_depth;
}

std::size_t
HeOpGraph::PendingWavefronts()
{
    MutexLock lock(mutex_);
    std::vector<std::size_t> depth;
    return PlanLocked(depth);
}

void
HeOpGraph::ExecuteLocked(std::size_t max_wavefronts)
{
    // Fusion and depth are recomputed on every call, so a graph run one
    // wavefront per call executes exactly the batches one full call
    // would: running every depth-1 node lowers each remaining node's
    // depth by exactly one, and fusion only ever looks at pending nodes.
    std::vector<std::size_t> depth;
    const std::size_t max_depth =
        std::min(PlanLocked(depth), max_wavefronts);

    // Within a wavefront, all nodes of one kind run as a single batched
    // kernel call — this is where independent ciphertext ops overlap.
    constexpr Kind kKinds[] = {Kind::kAdd,       Kind::kSub,
                               Kind::kMul,       Kind::kRelin,
                               Kind::kModSwitch, Kind::kRelinModSwitch};
    // One batched kernel call over a sub-span of the group's operands.
    // Keyed kinds receive the sub-batch's resolved RelinKey (the
    // kernels take one key per call).
    const HeContext &ctx = scheme_.context();
    const auto run_batch = [&](Kind kind, const RelinKey *rk,
                               std::span<const Ciphertext *const> lhs,
                               std::span<const Ciphertext *const> rhs,
                               std::span<Ciphertext *const> dst) {
        switch (kind) {
          case Kind::kAdd:
            BatchAdd(ctx, lhs, rhs, dst);
            break;
          case Kind::kSub:
            BatchAdd(ctx, lhs, rhs, dst, /*subtract=*/true);
            break;
          case Kind::kMul:
            BatchMul(ctx, lhs, rhs, dst);
            break;
          case Kind::kRelin:
            BatchRelinearize(ctx, *rk, lhs, dst);
            break;
          case Kind::kModSwitch:
            BatchModSwitch(ctx, lhs, dst);
            break;
          case Kind::kRelinModSwitch:
            BatchRelinModSwitch(ctx, *rk, lhs, dst);
            break;
          case Kind::kInput:
            break;  // unreachable: inputs are born done
        }
    };

    std::vector<std::size_t> group;
    for (std::size_t d = 1; d <= max_depth; ++d) {
        // Poison pass: a node whose operand settled with an error (its
        // kernel threw, or the poison already reached it) settles
        // immediately as kPoisoned, naming the origin. Operands of a
        // depth-d node live at depth < d, so they are settled by now —
        // the poison walks the DAG one wavefront at a time and touches
        // exactly the failed node's dependants.
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            Node &node = nodes_[i];
            if (node.done || node.fused_away || depth[i] != d) {
                continue;
            }
            const std::size_t bad =
                !nodes_[node.a].status.ok()
                    ? node.a
                    : (!nodes_[node.b].status.ok() ? node.b : i);
            if (bad != i) {
                SettleFailed(
                    i, Status(ErrorCode::kPoisoned,
                              "operand node " + std::to_string(bad) +
                                  " (" + KindName(nodes_[bad].kind) +
                                  ") failed: " +
                                  nodes_[bad].status.ToString()));
            }
        }
        for (const Kind kind : kKinds) {
            group.clear();
            for (std::size_t i = 0; i < nodes_.size(); ++i) {
                if (!nodes_[i].done && !nodes_[i].fused_away &&
                    depth[i] == d && nodes_[i].kind == kind) {
                    group.push_back(i);
                }
            }
            if (group.empty()) {
                continue;
            }
            // Keyed kinds sub-batch by resolved key (per-node override,
            // else the graph key): one kernel call per distinct key in
            // the wavefront — cross-client traffic under different keys
            // still shares a wavefront, one kernel call per client key.
            // Keyless kinds run as one sub-batch spanning everything.
            const bool keyed = kind == Kind::kRelin ||
                               kind == Kind::kRelinModSwitch;
            std::vector<const RelinKey *> batch_keys;
            for (const std::size_t i : group) {
                const RelinKey *rk =
                    keyed ? (nodes_[i].rk != nullptr ? nodes_[i].rk
                                                     : rk_)
                          : nullptr;
                if (std::find(batch_keys.begin(), batch_keys.end(),
                              rk) == batch_keys.end()) {
                    batch_keys.push_back(rk);
                }
            }
            for (const RelinKey *batch_rk : batch_keys) {
                // A graph scheduled without the keys its nodes need is
                // a configuration error, not a contained per-node
                // failure: it throws (as std::logic_error via the
                // bridge), leaving the wavefront pending.
                if (keyed && batch_rk == nullptr) {
                    ThrowStatus(Status(ErrorCode::kFailedPrecondition,
                                       "HeOpGraph has no "
                                       "relinearization keys")
                                    .WithFrame("HeOpGraph::Execute"));
                }
                std::vector<std::size_t> members;
                std::vector<const Ciphertext *> lhs, rhs;
                std::vector<Ciphertext *> dst;
                for (const std::size_t i : group) {
                    const RelinKey *rk =
                        keyed ? (nodes_[i].rk != nullptr ? nodes_[i].rk
                                                         : rk_)
                              : nullptr;
                    if (rk != batch_rk) {
                        continue;
                    }
                    members.push_back(i);
                    lhs.push_back(&nodes_[nodes_[i].a].value);
                    rhs.push_back(&nodes_[nodes_[i].b].value);
                    dst.push_back(&nodes_[i].value);
                }
                try {
                    run_batch(kind, batch_rk, lhs, rhs, dst);
                    for (const std::size_t i : members) {
                        nodes_[i].done = true;
                    }
                } catch (...) {
                    if (members.size() == 1) {
                        SettleFailed(members[0],
                                     CurrentExceptionToStatus());
                        continue;
                    }
                    // The batch failed as a whole; isolate which
                    // members genuinely fail by retrying each as a
                    // batch of one. Healthy nodes complete (their
                    // retried kernel result is bit-identical — same
                    // operands, same math), so one bad ciphertext
                    // cannot take its wavefront peers down.
                    for (std::size_t k = 0; k < members.size(); ++k) {
                        try {
                            run_batch(kind, batch_rk, {&lhs[k], 1},
                                      {&rhs[k], 1}, {&dst[k], 1});
                            nodes_[members[k]].done = true;
                        } catch (...) {
                            SettleFailed(members[k],
                                         CurrentExceptionToStatus());
                        }
                    }
                }
            }
        }
    }
}

Status
HeOpGraph::ExecuteStatus(std::size_t max_wavefronts)
{
    MutexLock lock(mutex_);
    try {
        ExecuteLocked(max_wavefronts);
    } catch (...) {
        return CurrentExceptionToStatus().WithFrame(
            "HeOpGraph::ExecuteStatus");
    }
    ErrorReport report;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].done && !nodes_[i].status.ok()) {
            report.errors.push_back(nodes_[i].status);
        }
    }
    return report.Summary();
}

}  // namespace hentt::he
