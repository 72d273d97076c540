/**
 * @file
 * dvi-serve — resident campaign server CLI.
 *
 * Front end over serve::DviServer: parse sizing flags, install the
 * telemetry plumbing, start the server, and turn SIGINT/SIGTERM
 * into a graceful stop — in-flight jobs stop at their next cancel
 * poll, every TelemetrySink flushes whole NDJSON lines, and the
 * process exits 0.
 *
 * Usage:
 *   dvi-serve [--port P] [--max-concurrent N] [--max-queue N]
 *             [--jobs N] [--telemetry FILE]
 *
 * The HTTP API it serves is documented in src/serve/server.hh and
 * DESIGN.md §11; tools/serve_client.py is the reference client.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "base/cli.hh"
#include "base/failpoint.hh"
#include "base/logging.hh"
#include "obs/telemetry.hh"
#include "serve/server.hh"

using namespace dvi;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "options:\n"
        "  --port P          TCP port to listen on (default 8080;\n"
        "                    0 = kernel-assigned, printed at start)\n"
        "  --max-concurrent N\n"
        "                    campaigns running at once (default 2)\n"
        "  --max-queue N     campaigns held pending beyond the\n"
        "                    running set; submissions beyond that\n"
        "                    get HTTP 429 + Retry-After (default 8)\n"
        "  --jobs N          shared worker-pool threads for campaign\n"
        "                    jobs (default 0 = one per hardware\n"
        "                    thread)\n"
        "  --telemetry F     stream server-side NDJSON telemetry\n"
        "                    (log events outside any campaign) to\n"
        "                    file F ('-' = stderr); per-campaign\n"
        "                    events always stream per campaign via\n"
        "                    GET /campaigns/<id>/events\n"
        "  --io-timeout S    per-connection socket read/write\n"
        "                    timeout in seconds; 0 disables\n"
        "                    (default 30)\n"
        "  --retries N       per-job retry budget for transient\n"
        "                    failures in every campaign (default 2)\n"
        "  --chaos SPEC      arm deterministic failpoints, e.g.\n"
        "                    'serve.request=throw@1in10,seed=42'\n"
        "                    (also: DVI_CHAOS env var); see\n"
        "                    DESIGN.md §12\n"
        "  --help            this text\n"
        "\n"
        "endpoints: POST /campaigns, GET /campaigns[/<id>[/report|\n"
        "/events]], DELETE /campaigns/<id>, GET /healthz, GET\n"
        "/metrics. SIGINT/SIGTERM cancel running campaigns and exit 0.\n",
        argv0);
}

// Signal -> main-thread handoff: the handler only flips an atomic
// and pokes no locks (async-signal-safety); the main thread polls it
// every 100 ms.
std::atomic<bool> g_shutdown{false};

void
onSignal(int)
{
    g_shutdown.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeOptions opts;
    std::string telemetry_path;

    // Failpoints arm before the server exists; an explicit --chaos
    // below replaces the environment's spec.
    {
        const std::string err = fail::configureFromEnv();
        fatal_if(!err.empty(), "DVI_CHAOS: ", err);
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--port") {
            opts.port = cli::parseUint<std::uint16_t>("--port", value());
        } else if (arg == "--max-concurrent") {
            opts.maxConcurrent =
                cli::parseUint<unsigned>("--max-concurrent", value());
            fatal_if(opts.maxConcurrent == 0,
                     "--max-concurrent must be at least 1");
        } else if (arg == "--max-queue") {
            opts.maxQueue =
                cli::parseUint<std::size_t>("--max-queue", value());
        } else if (arg == "--jobs") {
            opts.workers = cli::parseUint<unsigned>("--jobs", value());
        } else if (arg == "--telemetry") {
            telemetry_path = value();
        } else if (arg == "--io-timeout") {
            opts.ioTimeoutSeconds =
                cli::parseUint<unsigned>("--io-timeout", value());
        } else if (arg == "--retries") {
            opts.retry.maxRetries =
                cli::parseUint<unsigned>("--retries", value());
        } else if (arg == "--chaos") {
            const std::string err = fail::configure(value());
            fatal_if(!err.empty(), "--chaos: ", err);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '", arg, "'");
        }
    }

    // The server sink is the fallback for events emitted outside
    // any campaign scope (startup/shutdown log lines); per-campaign
    // sinks take precedence on worker threads via obs::SinkScope.
    // Observer-only when no --telemetry file: the log mirror is
    // still installed, so campaign streams carry their own log
    // events.
    std::unique_ptr<obs::TelemetrySink> sink =
        telemetry_path.empty()
            ? std::make_unique<obs::TelemetrySink>()
            : obs::TelemetrySink::open(telemetry_path);
    obs::setGlobalSink(sink.get());
    obs::setCoreSampleInsts(10000);

    std::signal(SIGINT, &onSignal);
    std::signal(SIGTERM, &onSignal);

    {
        serve::DviServer server(opts);
        server.start();
        std::printf("dvi-serve: ready on port %u\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);

        while (!g_shutdown.load(std::memory_order_acquire))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));

        inform("dvi-serve: signal received; cancelling ",
               server.campaignsSubmitted(),
               " submitted campaign(s)");
        server.shutdown();
    }

    // Sink teardown after the server: every campaign reached a
    // terminal state and flushed, so the stream ends on a whole
    // line.
    obs::setGlobalSink(nullptr);
    obs::setCoreSampleInsts(0);
    sink.reset();
    std::fprintf(stderr, "dvi-serve: clean shutdown\n");
    return 0;
}
