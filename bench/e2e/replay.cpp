/**
 * @file
 * Per-layer replay: one request of the workload's measured class timed
 * through each layer's public functions in pipeline order, in process,
 * after the daemon has stopped. Every number is the median of repeated
 * calls after one warm-up call, at the daemon's lane count.
 */

#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "e2e.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"
#include "serve/coalescer.h"
#include "serve/serde.h"
#include "serve/session.h"
#include "simd/simd_backend.h"

namespace hentt::e2e {

namespace {

/** Frame header bytes: u32 length, u8 version, u8 type. */
constexpr std::size_t kFrameHeader = 6;

/** Replay spans go on their own trace lane. */
constexpr u32 kReplayLane = 1000;

template <typename T>
T
Unwrap(Result<T> result)
{
    if (!result.ok()) {
        ThrowStatus(result.status().WithFrame("replay"));
    }
    return std::move(*result);
}

/**
 * Median ms of fn() over repeated calls after one warm-up call;
 * prepare() runs untimed before each call. At least @p min_reps calls,
 * then more until @p max_reps or @p budget_s has passed. The whole
 * measurement is one span named @p name.
 */
template <typename Prepare, typename Fn>
double
MedianMs(SpanLog &spans, const char *name, Prepare &&prepare, Fn &&fn,
         std::size_t max_reps = 41, double budget_s = 0.25)
{
    constexpr std::size_t kMinReps = 5;
    const auto begin = Clock::now();
    prepare();
    fn();
    std::vector<double> ms;
    while (ms.size() < max_reps &&
           (ms.size() < kMinReps ||
            Ms(Clock::now() - begin) < budget_s * 1e3)) {
        prepare();
        const auto t0 = Clock::now();
        fn();
        ms.push_back(Ms(Clock::now() - t0));
    }
    spans.Record(name, 0, kReplayLane, begin, Clock::now());
    return Median(ms);
}

template <typename Fn>
double
MedianMs(SpanLog &spans, const char *name, Fn &&fn)
{
    return MedianMs(spans, name, [] {}, fn);
}

/** One request as the coalescer holds it. */
struct GraphRequest {
    std::vector<he::Ciphertext> inputs;
    const he::RelinKey *rk;
};

/** Run @p requests through one HeOpGraph exactly as
 *  Coalescer::ExecuteBatch does for one engine state; returns each
 *  request's outputs. */
std::vector<std::vector<he::Ciphertext>>
ExecuteAsBatch(const std::shared_ptr<const he::HeEngineState> &state,
               const std::shared_ptr<he::ScratchArena> &arena,
               const RequestClass &cls, std::vector<GraphRequest> &requests)
{
    using serve::WireOp;
    auto ctx = std::make_shared<const he::HeContext>(state, arena);
    he::BgvScheme scheme(ctx);
    he::HeOpGraph graph(scheme);
    std::vector<std::vector<he::CtFuture>> futures(requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
        std::vector<he::CtFuture> &slots = futures[r];
        for (he::Ciphertext &ct : requests[r].inputs) {
            slots.push_back(graph.Input(std::move(ct)));
        }
        const he::RelinKey *rk = requests[r].rk;
        for (const serve::WireProgram::Op &op : cls.ops) {
            switch (op.op) {
              case WireOp::kMul:
                slots.push_back(graph.Mul(slots[op.a], slots[op.b]));
                break;
              case WireOp::kModSwitch:
                slots.push_back(graph.ModSwitch(slots[op.a]));
                break;
              case WireOp::kRelinModSwitch:
                slots.push_back(graph.RelinModSwitch(slots[op.a], rk));
                break;
              default:
                throw std::invalid_argument("op unused by the workloads");
            }
        }
    }
    (void)graph.ExecuteStatus();
    std::vector<std::vector<he::Ciphertext>> outputs(requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
        for (const u32 slot : cls.outputs) {
            outputs[r].push_back(*Unwrap(futures[r][slot].TryGet()));
        }
    }
    return outputs;
}

/** Twiddle words the lazy transforms can touch for every prime of
 *  @p ctx: the split forward/inverse tables with their Shoup
 *  companions plus the fused radix-4 stage copies (6 words per
 *  super-block), 8 bytes each. Computed from the table layout. */
double
TwiddleBytes(const RnsNttContext &ctx)
{
    std::size_t words = 0;
    for (std::size_t i = 0; i < ctx.basis().prime_count(); ++i) {
        const TwiddleTable &t = ctx.engine(i).table();
        words += t.forward_words().size() + t.forward_shoup_words().size() +
                 t.inverse_words().size() + t.inverse_shoup_words().size();
        for (const auto *stages :
             {&t.fused_forward_stages(), &t.fused_inverse_stages()}) {
            for (const TwiddleTable::FusedStage &stage : *stages) {
                words += 6 * stage.blocks;
            }
        }
    }
    return static_cast<double>(words * sizeof(u64));
}

}  // namespace

void
Replay(const RunConfig &config,
       const std::vector<std::unique_ptr<Conn>> &conns, Report &report,
       SpanLog &spans)
{
    const Workload &w = *config.workload;
    const StreamSpec *spec = &w.streams.front();
    for (const StreamSpec &s : w.streams) {
        if (s.measured) {
            spec = &s;
            break;
        }
    }
    const RequestClass &cls = *spec->cls;
    std::vector<Conn *> sessions;
    for (const std::unique_ptr<Conn> &conn : conns) {
        if (conn->cls == &cls) {
            sessions.push_back(conn.get());
        }
    }
    Conn &c0 = *sessions.front();
    const he::HeContext &client_ctx = *c0.client->context();
    const std::vector<he::Ciphertext> &inputs = c0.inputs.front();

    // The daemon side: shared engine state plus one worker arena.
    auto arena = std::make_shared<he::ScratchArena>();
    const std::shared_ptr<const he::HeEngineState> state =
        he::HeEngineState::Acquire(cls.params);
    auto daemon_ctx = std::make_shared<const he::HeContext>(state, arena);

    // Request path, client side: serde, then the wire codec.
    serve::WireProgram program;
    const double to_wire = MedianMs(spans, "serde.to_wire", [&] {
        program = serve::WireProgram{};
        for (const he::Ciphertext &ct : inputs) {
            program.inputs.push_back(serve::ToWire(ct));
        }
        program.ops = cls.ops;
        program.outputs = cls.outputs;
    });
    std::vector<u8> payload;
    const double encode = MedianMs(spans, "wire.encode", [&] {
        payload = serve::EncodeProgram(program);
    });
    report.Add("serde.to_wire_ms", to_wire, "ms");
    report.Add("wire.encode_ms", encode, "ms");
    report.Add("wire.req_bytes", payload.size() + kFrameHeader, "B");

    // Daemon side: decode, validate, materialise.
    std::optional<serve::WireProgram> decoded;
    const double decode = MedianMs(spans, "wire.decode", [&] {
        decoded = Unwrap(serve::DecodeProgram(payload));
    });
    std::vector<he::Ciphertext> daemon_inputs;
    const double from_wire = MedianMs(spans, "serde.from_wire", [&] {
        daemon_inputs.clear();
        for (const serve::WireCiphertext &wct : decoded->inputs) {
            daemon_inputs.push_back(
                Unwrap(serve::CiphertextFromWire(*daemon_ctx, wct)));
        }
    });
    report.Add("wire.decode_ms", decode, "ms");
    report.Add("serde.from_wire_ms", from_wire, "ms");

    // HE layer: the request's graph as the coalescer builds it, alone
    // (b1) and with one request from each session (b4). The first,
    // untimed execution counts the NTT and element-wise work.
    std::vector<GraphRequest> batch;
    std::vector<std::vector<he::Ciphertext>> outputs;
    const auto prepare_b1 = [&] {
        batch = {{daemon_inputs, c0.rk.get()}};
    };
    prepare_b1();
    const NttOpCounts before = GetNttOpCounts();
    outputs = ExecuteAsBatch(state, arena, cls, batch);
    const NttOpCounts after = GetNttOpCounts();
    const double b1 = MedianMs(spans, "he.graph.b1", prepare_b1, [&] {
        outputs = ExecuteAsBatch(state, arena, cls, batch);
    });
    std::vector<std::vector<he::Ciphertext>> session_inputs;
    for (std::size_t r = 0; r < 4; ++r) {
        const Conn &conn = *sessions[r % sessions.size()];
        std::vector<he::Ciphertext> in;
        for (const he::Ciphertext &ct : conn.inputs.front()) {
            in.push_back(Unwrap(
                serve::CiphertextFromWire(*daemon_ctx, serve::ToWire(ct))));
        }
        session_inputs.push_back(std::move(in));
    }
    const double b4 = MedianMs(
        spans, "he.graph.b4",
        [&] {
            batch.clear();
            for (std::size_t r = 0; r < 4; ++r) {
                batch.push_back({session_inputs[r],
                                 sessions[r % sessions.size()]->rk.get()});
            }
        },
        [&] { (void)ExecuteAsBatch(state, arena, cls, batch); });
    report.Add("he.graph_ms.b1", b1, "ms");
    report.Add("he.graph_ms.b4", b4, "ms");

    // Batch kernels, one call each at the request's input level. A
    // keyless class still gets a key so every workload reports every
    // kernel.
    std::unique_ptr<he::RelinKey> own_rk;
    const he::RelinKey *rk = c0.rk.get();
    if (rk == nullptr) {
        own_rk = std::make_unique<he::RelinKey>(
            c0.scheme->MakeRelinKey(*c0.sk));
        rk = own_rk.get();
    }
    const he::Ciphertext *a[] = {&daemon_inputs[0]};
    const he::Ciphertext *b[] = {&daemon_inputs[1]};
    he::Ciphertext product, switched, rescaled;
    he::Ciphertext *product_out[] = {&product};
    const he::Ciphertext *product_in[] = {&product};
    he::Ciphertext *switched_out[] = {&switched};
    he::Ciphertext *rescaled_out[] = {&rescaled};
    report.Add("he.mul_ms", MedianMs(spans, "he.mul", [&] {
        he::BatchMul(*daemon_ctx, a, b, product_out);
    }), "ms");
    report.Add("he.relinms_ms", MedianMs(spans, "he.relinms", [&] {
        he::BatchRelinModSwitch(*daemon_ctx, *rk, product_in, switched_out);
    }), "ms");
    report.Add("he.modswitch_ms", MedianMs(spans, "he.modswitch", [&] {
        he::BatchModSwitch(*daemon_ctx, a, rescaled_out);
    }), "ms");
    const he::BgvScheme daemon_scheme(daemon_ctx);
    const double kernels = MedianMs(spans, "he.kernels", [&] {
        (void)EvaluateLocal(daemon_scheme, c0.rk.get(), cls, daemon_inputs);
    });
    report.Add("he.kernels_ms", kernels, "ms");
    report.Add("he.overhead_ms", b1 - kernels, "ms");

    // Reply path: serde and codec on the daemon, then on the client.
    std::vector<serve::WireCiphertext> wire_out;
    const double reply_to_wire = MedianMs(spans, "serde.reply_to_wire", [&] {
        wire_out.clear();
        for (const he::Ciphertext &ct : outputs.front()) {
            wire_out.push_back(serve::ToWire(ct));
        }
    });
    std::vector<u8> reply;
    const double reply_encode = MedianMs(spans, "wire.reply_encode", [&] {
        reply = serve::EncodeCiphertextList(wire_out);
    });
    std::vector<serve::WireCiphertext> reply_wire;
    const double reply_decode = MedianMs(spans, "wire.reply_decode", [&] {
        reply_wire = Unwrap(serve::DecodeCiphertextList(reply));
    });
    const double reply_from_wire =
        MedianMs(spans, "serde.reply_from_wire", [&] {
            for (const serve::WireCiphertext &wct : reply_wire) {
                (void)Unwrap(serve::CiphertextFromWire(client_ctx, wct));
            }
        });
    report.Add("wire.reply_bytes", reply.size() + kFrameHeader, "B");
    report.Add("serde.reply_to_wire_ms", reply_to_wire, "ms");
    report.Add("wire.reply_encode_ms", reply_encode, "ms");
    report.Add("wire.reply_decode_ms", reply_decode, "ms");
    report.Add("serde.reply_from_wire_ms", reply_from_wire, "ms");

    // Coalescer, in process with the daemon's default BatchConfig, fed
    // the lone schedule and then a window of the open schedule.
    {
        serve::SessionManager manager(arena);
        serve::Coalescer coalescer(serve::BatchConfig{}, arena);
        coalescer.Start();
        std::vector<std::shared_ptr<serve::Session>> live;
        for (const Conn *conn : sessions) {
            live.push_back(Unwrap(manager.Create(cls.params)));
            if (conn->rk != nullptr) {
                live.back()->SetRelinKey(
                    std::make_shared<const he::RelinKey>(*conn->rk));
            }
        }
        const auto submit = [&](std::size_t r,
                                std::vector<he::Ciphertext> in) {
            return Unwrap(coalescer.Submit(live[r % live.size()],
                                           std::move(in), cls.ops,
                                           cls.outputs));
        };
        const auto await = [&](std::size_t r, u64 id) {
            const serve::PollResult result =
                coalescer.Wait(id, live[r % live.size()]->id);
            if (!result.status.ok()) {
                ThrowStatus(result.status);
            }
        };
        std::vector<he::Ciphertext> lone_in;
        const double sojourn = MedianMs(
            spans, "coalescer.lone", [&] { lone_in = session_inputs[0]; },
            [&] { await(0, submit(0, std::move(lone_in))); });
        report.Add("coalescer.sojourn_ms", sojourn, "ms");
        report.Add("coalescer.wait_ms", sojourn - b1, "ms");

        const std::vector<double> due =
            ArrivalSchedule(spec->open_rps, config.smoke ? 0.3 : 1.5,
                            DeriveSeed(config.seed, 400));
        std::vector<std::vector<he::Ciphertext>> open_in;
        for (std::size_t r = 0; r < due.size(); ++r) {
            open_in.push_back(session_inputs[r % live.size()]);
        }
        std::vector<u64> ids(due.size());
        std::vector<Clock::time_point> sent(due.size()), done(due.size());
        std::atomic<std::size_t> published{0};
        const auto begin = Clock::now();
        std::thread waiter([&] {
            for (std::size_t r = 0; r < due.size(); ++r) {
                while (published.load(std::memory_order_acquire) <= r) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(20));
                }
                await(r, ids[r]);
                done[r] = Clock::now();
            }
        });
        for (std::size_t r = 0; r < due.size(); ++r) {
            std::this_thread::sleep_until(
                begin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due[r])));
            sent[r] = Clock::now();
            ids[r] = submit(r, std::move(open_in[r]));
            published.store(r + 1, std::memory_order_release);
        }
        waiter.join();
        spans.Record("coalescer.open", 0, kReplayLane, begin, Clock::now());
        std::vector<double> open_ms;
        for (std::size_t r = 0; r < due.size(); ++r) {
            open_ms.push_back(Ms(done[r] - sent[r]));
        }
        report.Add("coalescer.open_sojourn_ms", Median(open_ms), "ms");
    }

    // NTT rows at the workload's degree, and the request's exact work.
    const RnsNttContext &ntt = *state->ntt_context();
    const NttEngine &engine = ntt.engine(0);
    const std::span<const u64> row0 = daemon_inputs[0].parts[0].row(0);
    std::vector<u64> fwd_row(row0.begin(), row0.end());
    std::vector<u64> inv_row = fwd_row;
    const double fwd_us =
        1e3 * MedianMs(spans, "ntt.fwd_row", [] {},
                       [&] { engine.ForwardLazy(fwd_row); }, 201, 0.1);
    const double inv_us =
        1e3 * MedianMs(spans, "ntt.inv_row", [] {},
                       [&] { engine.Inverse(inv_row); }, 201, 0.1);
    const auto fwd_rows = static_cast<double>(after.forward - before.forward);
    const auto inv_rows = static_cast<double>(after.inverse - before.inverse);
    report.Add("ntt.fwd_rows", fwd_rows, "count");
    report.Add("ntt.inv_rows", inv_rows, "count");
    report.Add("ntt.stage_dispatches",
               static_cast<double>(after.butterfly_stages -
                                   before.butterfly_stages),
               "count");
    report.Add("ntt.fwd_row_us", fwd_us, "us");
    report.Add("ntt.inv_row_us", inv_us, "us");
    report.Add("ntt.share",
               (fwd_us * fwd_rows + inv_us * inv_rows) / 1e3 / b1, "1");
    report.Add("ntt.data_bytes_per_row", ntt.degree() * sizeof(u64), "B");
    report.Add("ntt.twiddle_bytes", TwiddleBytes(ntt), "B");
    report.Add("simd.elementwise_rows",
               static_cast<double>(after.elementwise - before.elementwise),
               "count");
    report.Note("simd.backend", simd::BackendName(simd::ActiveBackend()));

    const double attributed = to_wire + encode + decode + from_wire + b1 +
                              reply_to_wire + reply_encode + reply_decode +
                              reply_from_wire;
    report.Add("trace.attributed_ms", attributed, "ms");
    report.Add("trace.unattributed_ms",
               report.Value("lone_p50_ms") - attributed, "ms");
}

}  // namespace hentt::e2e
