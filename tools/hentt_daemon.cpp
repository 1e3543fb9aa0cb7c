/**
 * @file
 * hentt-daemon CLI: bind a unix-domain socket and serve HE evaluation
 * requests until SIGINT/SIGTERM or a client's Shutdown frame.
 */

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "serve/daemon.h"

namespace {

void
Usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " --socket PATH [options]\n"
        << "  --socket PATH      unix-domain socket to listen on\n"
        << "  --max-batch N      requests coalesced per wavefront "
           "batch, N >= 1 (default 64;\n"
        << "                     1 runs every request alone, the "
           "unbatched ablation)\n";
}

/** Parse a decimal integer >= 1; false on anything else. */
bool
ParseMaxBatch(const char *text, std::size_t &out)
{
    // strtoull alone would take leading spaces, a sign, and "-1".
    if (std::isdigit(static_cast<unsigned char>(*text)) == 0) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value == 0) {
        return false;
    }
    out = static_cast<std::size_t>(value);
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    hentt::serve::DaemonConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            config.socket_path = argv[++i];
        } else if (arg == "--max-batch" && i + 1 < argc &&
                   ParseMaxBatch(argv[i + 1], config.batch.max_batch)) {
            ++i;
        } else {
            Usage(argv[0]);
            return arg == "--help" ? 0 : 1;
        }
    }
    if (config.socket_path.empty()) {
        Usage(argv[0]);
        return 1;
    }

    // Block the stop signals in every thread; a dedicated sigwait
    // thread turns them into a clean RequestStop instead of killing a
    // worker mid-kernel.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    hentt::serve::Daemon daemon(config);
    const hentt::Status started = daemon.Start();
    if (!started.ok()) {
        std::cerr << "hentt-daemon: " << started.ToString() << "\n";
        return 1;
    }
    std::cout << "hentt-daemon listening on " << config.socket_path
              << " (max_batch=" << config.batch.max_batch << ")"
              << std::endl;

    std::thread signal_thread([&stop_signals, &daemon] {
        int signo = 0;
        sigwait(&stop_signals, &signo);
        daemon.RequestStop();
    });
    daemon.Wait();
    // If the stop came over the wire (kShutdown) the sigwait thread is
    // still blocked; a process-directed SIGTERM (blocked, so it stays
    // pending) is consumed by its sigwait for a clean join. raise()
    // would NOT work here: in a multithreaded process it targets the
    // calling thread only, and main keeps SIGTERM blocked forever.
    kill(getpid(), SIGTERM);
    signal_thread.join();

    const hentt::serve::WireStats stats = daemon.Stats();
    std::cout << "hentt-daemon stopped: " << stats.requests_completed
              << " completed, " << stats.requests_failed
              << " failed, " << stats.batches_executed << " batches"
              << std::endl;
    return 0;
}
