/**
 * @file
 * End-to-end tests of the serving layer over real unix-domain sockets:
 * an in-process Daemon, real Client connections, real frames.
 *
 * What must hold (the acceptance criteria of the serving layer):
 *   - a full encrypted round trip (keygen → session → keys → graph →
 *     poll → decrypt) produces the same plaintext as local evaluation;
 *   - concurrent clients coalesce: the daemon's stats prove requests
 *     shared a wavefront batch;
 *   - the worker schedules one wavefront at a time: a one-op request
 *     overtakes a deep graph already running, and Stop mid-graph
 *     settles the graph's requests instead of hanging them;
 *   - every failure — protocol misuse, malformed bytes, missing keys,
 *     injected faults — reaches the client as a Status with the
 *     daemon's provenance, and the daemon keeps serving afterwards;
 *   - a dying connection takes its session with it (no orphans), and
 *     its queued and executing requests with it;
 *   - shutdown over the wire stops the daemon cleanly.
 *
 * The fault-injection cases arm the serve.request site and are skipped
 * (trivially green) when failpoints are not compiled in; the CI serve
 * job runs this suite in both configurations. These tests carry the
 * `serve` ctest label: socket-bound and timing-windowed, they get a
 * tighter timeout and one CI retry (CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace hentt::serve {
namespace {

he::HeParams
SmallParams()
{
    he::HeParams params;
    params.degree = 64;
    params.prime_count = 3;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

/** Unique socket path per test (the daemon unlinks it on stop). */
std::string
TestSocketPath(const char *tag)
{
    return "/tmp/hentt-serve-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

/** A keyless ten-deep chain over inputs {x, x}: slot 2 = x + x, then
 *  slot k + 1 = slot k + x, ending in slot kChainOutput = 11x. Each Add
 *  depends on the last, so the graph is ten wavefronts deep. */
constexpr u32 kChainOutput = 11;

std::vector<WireProgram::Op>
AddChain()
{
    std::vector<WireProgram::Op> ops = {{WireOp::kAdd, 0, 1}};
    for (u32 slot = 2; slot < kChainOutput; ++slot) {
        ops.push_back({WireOp::kAdd, slot, 0});
    }
    return ops;
}

/** Poll daemon stats until @p pred holds or ~2s elapse. */
template <typename Pred>
bool
EventuallyTrue(Pred pred)
{
    for (int i = 0; i < 200; ++i) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

class ServeE2E : public ::testing::Test
{
  protected:
    void
    StartDaemon(const char *tag, BatchConfig batch = {})
    {
        DaemonConfig config;
        config.socket_path = TestSocketPath(tag);
        config.batch = batch;
        daemon_ = std::make_unique<Daemon>(config);
        const Status started = daemon_->Start();
        ASSERT_TRUE(started.ok()) << started.ToString();
    }

    std::unique_ptr<Client>
    NewClient()
    {
        Result<std::unique_ptr<Client>> client =
            Client::Connect(daemon_->socket_path());
        EXPECT_TRUE(client.ok()) << client.status().ToString();
        return client.ok() ? std::move(*client) : nullptr;
    }

    void
    TearDown() override
    {
        if (daemon_ != nullptr) {
            daemon_->Stop();
        }
        fp::ResetAll();
    }

    std::unique_ptr<Daemon> daemon_;
};

TEST_F(ServeE2E, PingAndStats)
{
    StartDaemon("ping");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->protocol_version(), kProtocolVersion);
    const Status ping = client->Ping();
    EXPECT_TRUE(ping.ok()) << ping.ToString();
    Result<WireStats> stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->sessions_created, 0u);
    EXPECT_EQ(stats->requests_submitted, 0u);
}

TEST_F(ServeE2E, EncryptedRoundTripMatchesLocalEvaluation)
{
    StartDaemon("roundtrip");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);

    const he::HeParams params = SmallParams();
    Result<u64> session = client->CreateSession(params);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    he::BgvScheme scheme(client->context(), /*seed=*/42);
    he::SecretKey sk = scheme.KeyGen();
    he::RelinKey rk = scheme.MakeRelinKey(sk);
    const Status loaded = client->LoadKeys(rk);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    he::Plaintext a(params.degree), b(params.degree);
    for (std::size_t i = 0; i < params.degree; ++i) {
        a[i] = (3 * i + 1) % params.plain_modulus;
        b[i] = (5 * i + 2) % params.plain_modulus;
    }
    he::Ciphertext ct_a = scheme.Encrypt(sk, a);
    he::Ciphertext ct_b = scheme.Encrypt(sk, b);

    // Remote: slot 2 = a*b, slot 3 = relin, slot 4 = modswitch.
    Result<u64> request = client->SubmitGraph(
        {ct_a, ct_b},
        {{WireOp::kMul, 0, 1},
         {WireOp::kRelin, 2, 0},
         {WireOp::kModSwitch, 3, 0}},
        {4});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    ASSERT_EQ(outputs->size(), 1u);

    // Local reference evaluation over the same ciphertexts.
    const he::Ciphertext expected =
        scheme.ModSwitch(scheme.Relinearize(scheme.Mul(ct_a, ct_b), rk));
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              scheme.Decrypt(sk, expected));

    Result<WireStats> stats = client->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->requests_completed, 1u);
    EXPECT_EQ(stats->requests_failed, 0u);
}

TEST_F(ServeE2E, ConcurrentClientsCoalesceIntoSharedBatches)
{
    // Deterministic batching proof: the first request parks the worker
    // inside its batch (the test holds the arena its kernels lock),
    // five more clients submit meanwhile, and on release the five
    // queued requests must share the next batch.
    StartDaemon("batch");
    const he::HeParams params = SmallParams();
    constexpr int kClients = 6;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::unique_ptr<he::BgvScheme>> schemes;
    std::vector<he::SecretKey> keys;
    std::vector<he::Ciphertext> cts;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(NewClient());
        ASSERT_NE(clients.back(), nullptr);
        Result<u64> session = clients.back()->CreateSession(params);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        schemes.push_back(std::make_unique<he::BgvScheme>(
            clients.back()->context(), /*seed=*/100 + c));
        keys.push_back(schemes.back()->KeyGen());
        cts.push_back(schemes.back()->Encrypt(
            keys.back(),
            he::Plaintext(params.degree, static_cast<u64>(c + 1))));
    }
    std::vector<u64> requests;
    {
        MutexLock hold(daemon_->coalescer().arena()->mutex());
        for (int c = 0; c < kClients; ++c) {
            // Keyless program (Add): batches across every client
            // regardless of their (distinct, unloaded) keys.
            Result<u64> request = clients[c]->SubmitGraph(
                {cts[c], cts[c]}, {{WireOp::kAdd, 0, 1}}, {2});
            ASSERT_TRUE(request.ok()) << request.status().ToString();
            requests.push_back(*request);
            if (c == 0) {
                ASSERT_TRUE(EventuallyTrue([this] {
                    return daemon_->Stats().batches_executed == 1;
                }));
            }
        }
        EXPECT_EQ(daemon_->Stats().requests_completed, 0u)
            << "the first batch finished without the arena";
    }
    for (int c = 0; c < kClients; ++c) {
        Result<std::vector<he::Ciphertext>> outputs =
            clients[c]->AwaitDone(requests[c]);
        ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
        EXPECT_EQ(schemes[c]->Decrypt(keys[c], outputs->front()),
                  he::Plaintext(params.degree,
                                static_cast<u64>(2 * (c + 1))))
            << "client " << c;
    }
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.requests_completed, static_cast<u64>(kClients));
    EXPECT_EQ(stats.batches_executed, 2u);
    EXPECT_EQ(stats.max_batch_observed, 5u);
    EXPECT_EQ(stats.coalesced_requests, 5u);
}

TEST_F(ServeE2E, ErrorsArriveAsStatusWithDaemonProvenance)
{
    StartDaemon("errors");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);

    // Misuse before a session exists: precise precondition failures.
    {
        auto ctx = std::make_shared<const he::HeContext>(SmallParams());
        he::BgvScheme scheme(ctx, 5);
        he::SecretKey sk = scheme.KeyGen();
        const Status status = client->LoadKeys(scheme.MakeRelinKey(sk));
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
        EXPECT_FALSE(status.frames().empty())
            << "daemon-side provenance lost: " << status.ToString();
    }

    // Invalid parameters: rejected via serde validation as
    // kInvalidArgument, connection stays up.
    he::HeParams bad = SmallParams();
    bad.degree = 63;  // not a power of two
    Result<u64> bad_session = client->CreateSession(bad);
    ASSERT_FALSE(bad_session.ok());
    EXPECT_EQ(bad_session.status().code(),
              ErrorCode::kInvalidArgument);

    // The same connection still serves: create a real session.
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    // Key-switching without keys: fail-fast at submit.
    he::BgvScheme scheme(client->context(), 6);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 1));
    Result<u64> keyless = client->SubmitGraph(
        {ct, ct}, {{WireOp::kMul, 0, 1}, {WireOp::kRelin, 2, 0}}, {3});
    ASSERT_FALSE(keyless.ok());
    EXPECT_EQ(keyless.status().code(),
              ErrorCode::kFailedPrecondition);

    // Unknown request id: a polling error, not a hang.
    Result<Client::Outcome> unknown = client->Poll(991199);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(),
              ErrorCode::kFailedPrecondition);

    // After all that abuse the daemon still answers.
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, PollIsScopedToTheOwningSession)
{
    // Request ids are sequential, so a misbehaving client can guess
    // another session's id; polling it must neither reveal nor
    // consume the foreign result (the per-session isolation
    // guarantee of the multi-client server).
    StartDaemon("poll-scope");
    std::unique_ptr<Client> owner = NewClient();
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(owner->context(), /*seed=*/12);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 7));
    Result<u64> request =
        owner->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    // Let the request settle daemon-side, so the thief below targets
    // a done (undelivered) result — the worst case.
    EXPECT_TRUE(EventuallyTrue([this] {
        return daemon_->Stats().requests_completed == 1;
    }));

    // A connection with no session at all is rejected outright.
    std::unique_ptr<Client> thief = NewClient();
    ASSERT_NE(thief, nullptr);
    Result<Client::Outcome> no_session = thief->Poll(*request);
    ASSERT_FALSE(no_session.ok());
    EXPECT_EQ(no_session.status().code(),
              ErrorCode::kFailedPrecondition);

    // With its own session, the foreign id reads as unknown — same
    // answer a nonexistent id gets, so ids enumerate nothing.
    ASSERT_TRUE(thief->CreateSession(SmallParams()).ok());
    Result<Client::Outcome> stolen = thief->Poll(*request);
    ASSERT_FALSE(stolen.ok());
    EXPECT_EQ(stolen.status().code(),
              ErrorCode::kFailedPrecondition);

    // The theft attempts consumed nothing: the owner still collects
    // and decrypts its result.
    Result<std::vector<he::Ciphertext>> outputs =
        owner->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 14));
}

TEST_F(ServeE2E, MalformedFrameBytesGetErrorReplyAndDaemonSurvives)
{
    StartDaemon("badbytes");

    // Raw socket speaking garbage after a valid handshake.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon_->socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    Result<u32> version = ClientHandshake(fd);
    ASSERT_TRUE(version.ok()) << version.status().ToString();

    // A frame header claiming an unknown type: the daemon must answer
    // with a kError frame before closing this connection.
    const u8 garbage[6] = {0, 0, 0, 0, kProtocolVersion, 0xEE};
    ASSERT_TRUE(WriteAll(fd, garbage).ok());
    Result<Frame> reply = ReadFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kError);
    Result<WireStatus> ws = DecodeStatus(reply->payload);
    ASSERT_TRUE(ws.ok());
    EXPECT_EQ(static_cast<ErrorCode>(ws->code),
              ErrorCode::kInvalidArgument);
    ::close(fd);

    // The daemon survives for well-behaved clients.
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, DyingConnectionLeavesNoOrphanedSession)
{
    StartDaemon("orphans");
    {
        std::unique_ptr<Client> client = NewClient();
        ASSERT_NE(client, nullptr);
        Result<u64> session = client->CreateSession(SmallParams());
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        EXPECT_TRUE(EventuallyTrue(
            [this] { return daemon_->Stats().sessions_active == 1; }));
        // Client destructor closes the socket with no CloseSession —
        // the abrupt-death path.
    }
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 0; }))
        << "session survived its connection";
    EXPECT_EQ(daemon_->Stats().sessions_created, 1u);

    // Explicit CloseSession also releases, with the connection alive.
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 1; }));
    EXPECT_TRUE(client->CloseSession().ok());
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 0; }));
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, ClientDyingMidRequestDropsItsWork)
{
    // A client dies with one request executing (the worker is parked
    // inside its batch on the held arena) and one queued behind it.
    // Teardown drops both: the queued one never runs, the executing
    // one's result is discarded when it lands, and the daemon keeps
    // serving.
    StartDaemon("midrequest");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(client->context(), /*seed=*/13);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 3));
    {
        MutexLock hold(daemon_->coalescer().arena()->mutex());
        ASSERT_TRUE(client
                        ->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}},
                                      {2})
                        .ok());
        ASSERT_TRUE(EventuallyTrue([this] {
            return daemon_->Stats().batches_executed == 1;
        }));
        ASSERT_TRUE(client
                        ->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}},
                                      {2})
                        .ok());
        client.reset();  // abrupt death: no CloseSession
        EXPECT_TRUE(EventuallyTrue(
            [this] { return daemon_->Stats().sessions_active == 0; }))
            << "session survived its connection";
    }
    std::unique_ptr<Client> survivor = NewClient();
    ASSERT_NE(survivor, nullptr);
    EXPECT_TRUE(survivor->Ping().ok());
    survivor.reset();
    // Stop joins the worker, so the parked batch has landed (and been
    // discarded) before the counters are read.
    daemon_->Stop();
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.batches_executed, 1u);
    EXPECT_EQ(stats.requests_completed, 0u);
    EXPECT_EQ(stats.requests_failed, 0u);
}

TEST_F(ServeE2E, SmallRequestOvertakesDeepGraph)
{
    // The worker runs one wavefront at a time and between wavefronts
    // admits what is queued, then runs the batch with the fewest
    // pending wavefronts. A one-Add request admitted while a ten-deep
    // chain runs has 1 pending against the chain's 9, so it completes
    // before the chain does instead of queueing behind the whole graph.
    StartDaemon("overtake");
    std::unique_ptr<Client> deep = NewClient();
    std::unique_ptr<Client> small = NewClient();
    ASSERT_NE(deep, nullptr);
    ASSERT_NE(small, nullptr);
    Result<u64> deep_session = deep->CreateSession(SmallParams());
    Result<u64> small_session = small->CreateSession(SmallParams());
    ASSERT_TRUE(deep_session.ok()) << deep_session.status().ToString();
    ASSERT_TRUE(small_session.ok()) << small_session.status().ToString();
    he::BgvScheme scheme(deep->context(), /*seed=*/14);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 3));

    u64 chain = 0;
    u64 single = 0;
    {
        // Park the worker inside the chain's first wavefront.
        MutexLock hold(daemon_->coalescer().arena()->mutex());
        Result<u64> submitted =
            deep->SubmitGraph({ct, ct}, AddChain(), {kChainOutput});
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        chain = *submitted;
        ASSERT_TRUE(EventuallyTrue([this] {
            return daemon_->Stats().batches_executed == 1;
        }));
        submitted =
            small->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        single = *submitted;
        ASSERT_TRUE(EventuallyTrue([this] {
            return daemon_->Stats().requests_submitted == 2;
        }));
    }
    const PollResult chain_result =
        daemon_->coalescer().Wait(chain, *deep_session);
    const PollResult single_result =
        daemon_->coalescer().Poll(single, *small_session);
    ASSERT_TRUE(chain_result.status.ok()) << chain_result.status.ToString();
    EXPECT_TRUE(single_result.done)
        << "the one-Add request waited for the whole chain";
    EXPECT_EQ(daemon_->Stats().batches_executed, 2u);
    ASSERT_EQ(chain_result.outputs.size(), 1u);
    EXPECT_EQ(scheme.Decrypt(sk, chain_result.outputs.front()),
              he::Plaintext(SmallParams().degree, 33));
    if (single_result.done) {
        ASSERT_TRUE(single_result.status.ok())
            << single_result.status.ToString();
        ASSERT_EQ(single_result.outputs.size(), 1u);
        EXPECT_EQ(scheme.Decrypt(sk, single_result.outputs.front()),
                  he::Plaintext(SmallParams().degree, 6));
    }
}

TEST_F(ServeE2E, StopMidGraphSettlesAdmittedRequests)
{
    // Stop lands while the worker is inside the first wavefront of an
    // admitted ten-deep chain. It waits for that wavefront only; the
    // chain's request then settles kUnavailable, like a still-queued
    // one, without counting as failed, and the daemon keeps answering.
    StartDaemon("stopmid");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), /*seed=*/15);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 4));

    u64 chain = 0;
    std::thread stopper;
    bool refused = false;
    {
        MutexLock hold(daemon_->coalescer().arena()->mutex());
        Result<u64> submitted =
            client->SubmitGraph({ct, ct}, AddChain(), {kChainOutput});
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        chain = *submitted;
        ASSERT_TRUE(EventuallyTrue([this] {
            return daemon_->Stats().batches_executed == 1;
        }));
        stopper = std::thread([this] { daemon_->coalescer().Stop(); });
        // Stop is in effect once a fresh submit is refused; it then
        // blocks on the worker, parked on the held arena.
        refused = EventuallyTrue([&] {
            return !client
                        ->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}},
                                      {2})
                        .ok();
        });
    }
    stopper.join();
    EXPECT_TRUE(refused) << "Stop never refused new work";
    const PollResult result = daemon_->coalescer().Poll(chain, *session);
    EXPECT_TRUE(result.done);
    EXPECT_EQ(result.status.code(), ErrorCode::kUnavailable)
        << result.status.ToString();
    EXPECT_EQ(daemon_->Stats().requests_failed, 0u);
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, ShutdownOverTheWire)
{
    StartDaemon("shutdown");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Shutdown().ok());
    daemon_->Wait();
    // A fresh connect must fail — the socket is gone.
    Result<std::unique_ptr<Client>> late =
        Client::Connect(daemon_->socket_path());
    EXPECT_FALSE(late.ok());
    daemon_.reset();
}

TEST_F(ServeE2E, InjectedFaultsSurfaceAsWireStatus)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoints not compiled in "
                        "(-DHENTT_FAILPOINTS=ON)";
    }
    StartDaemon("chaos");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), 9);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 2));

    // Deterministic: the very next pass over serve.request fires. The
    // injected fault must come back as a kInjected Status with
    // provenance — over the wire, not as a dropped connection.
    fp::ArmNth(fp::kServeRequest, 1);
    Result<u64> injected =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_FALSE(injected.ok());
    EXPECT_EQ(injected.status().code(), ErrorCode::kInjected)
        << injected.status().ToString();
    EXPECT_FALSE(injected.status().frames().empty());
    fp::DisarmAll();

    // Connection and daemon both survive; the same request now runs.
    Result<u64> retry =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*retry);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 4));
    EXPECT_EQ(daemon_->Stats().sessions_active, 1u);
}

TEST_F(ServeE2E, ChaosSweepNeverKillsTheDaemon)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoints not compiled in "
                        "(-DHENTT_FAILPOINTS=ON)";
    }
    StartDaemon("chaos-sweep");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), 10);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 3));

    // Probabilistic sweep: every outcome must be either success or a
    // clean kInjected Status; the daemon must survive all of it. A
    // request crosses the armed site several times (submit handler,
    // coalescer admission, every poll round trip — the poll count is
    // timing-dependent), so a fixed iteration count can land all-
    // injected; sweep until both outcomes have occurred, capped.
    fp::SeedRng(0xC0FFEE);
    fp::Arm(fp::kServeRequest, 0.4);
    int injected = 0, succeeded = 0;
    for (int i = 0;
         i < 200 && (injected == 0 || succeeded == 0); ++i) {
        Result<u64> request =
            client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
        if (!request.ok()) {
            EXPECT_EQ(request.status().code(), ErrorCode::kInjected)
                << request.status().ToString();
            ++injected;
            continue;
        }
        Result<std::vector<he::Ciphertext>> outputs =
            client->AwaitDone(*request);
        if (!outputs.ok()) {
            EXPECT_EQ(outputs.status().code(), ErrorCode::kInjected)
                << outputs.status().ToString();
            ++injected;
            continue;
        }
        ++succeeded;
    }
    fp::DisarmAll();
    EXPECT_GT(injected, 0) << "p=0.4 over 200 sweeps never fired";
    EXPECT_GT(succeeded, 0)
        << "no request survived 200 sweeps at p=0.4";
    // No-fault epilogue: service is fully intact.
    Result<u64> final_request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(final_request.ok())
        << final_request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*final_request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 6));
    EXPECT_EQ(daemon_->Stats().sessions_active, 1u);
}

TEST_F(ServeE2E, UnbatchedAblationStillServes)
{
    // max_batch = 1 (the bench baseline) must be functionally
    // identical — only slower.
    BatchConfig batch;
    batch.max_batch = 1;
    StartDaemon("nobatch", batch);
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(client->context(), 11);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 5));
    Result<u64> request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 10));
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.coalesced_requests, 0u);
    EXPECT_EQ(stats.max_batch_observed, 1u);
}

}  // namespace
}  // namespace hentt::serve
