/**
 * @file
 * dvi-serve — resident campaign server CLI.
 *
 * Front end over serve::DviServer: parse sizing flags, install the
 * telemetry plumbing, start the server, and turn SIGINT/SIGTERM
 * into a graceful stop — in-flight jobs stop at their next cancel
 * poll, every TelemetrySink flushes whole NDJSON lines, and the
 * process exits 0. Each flag is one row of the cli::Parser table in
 * main(), which also prints `dvi-serve --help`.
 *
 * The HTTP API it serves is documented in src/serve/server.hh and
 * DESIGN.md §11; tools/serve_client.py is the reference client.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "base/cli.hh"
#include "base/failpoint.hh"
#include "base/logging.hh"
#include "obs/cli_telemetry.hh"
#include "serve/server.hh"

using namespace dvi;

int
main(int argc, char **argv)
{
    serve::ServeOptions opts;
    obs::CliTelemetry telemetry;

    const cli::Parser cli{
        {"[options]"},
        {
            cli::heading("options:"),
            {"--port", "P",
             "TCP port to listen on (default 8080; 0 = "
             "kernel-assigned, printed at start)",
             cli::store(opts.port)},
            {"--max-concurrent", "N",
             "campaigns running at once (default 2)",
             [&](const cli::Arg &a) {
                 cli::store(opts.maxConcurrent)(a);
                 fatal_if(opts.maxConcurrent == 0,
                          "--max-concurrent must be at least 1");
             }},
            {"--max-queue", "N",
             "campaigns held pending beyond the running set; "
             "submissions beyond that get HTTP 429 + Retry-After "
             "(default 8)",
             cli::store(opts.maxQueue)},
            {"--jobs", "N",
             "shared worker-pool threads for campaign jobs (default "
             "0 = one per hardware thread)",
             cli::store(opts.workers)},
            telemetry.fileFlag(
                "stream server-side NDJSON telemetry (log events "
                "outside any campaign) to file F ('-' = stderr); "
                "per-campaign events always stream per campaign via "
                "GET /campaigns/<id>/events"),
            {"--io-timeout", "S",
             "per-connection socket read/write timeout in seconds; 0 "
             "disables (default 30)",
             cli::store(opts.ioTimeoutSeconds)},
            {"--retries", "N",
             "per-job retry budget for transient failures in every "
             "campaign (default 2)",
             cli::store(opts.retry.maxRetries)},
            fail::chaosFlag(
                "arm deterministic failpoints, e.g. "
                "'serve.request=throw@1in10,seed=42' (also: DVI_CHAOS "
                "env var); see DESIGN.md §12"),
        },
        "\nendpoints: POST /campaigns, GET /campaigns[/<id>[/report|\n"
        "/events]], DELETE /campaigns/<id>, GET /healthz, GET\n"
        "/metrics. SIGINT/SIGTERM cancel running campaigns and exit "
        "0.\n"};
    cli.parse(argc, argv);

    // The server sink is the fallback for events emitted outside
    // any campaign scope (startup/shutdown log lines); per-campaign
    // sinks take precedence on worker threads via obs::SinkScope.
    // Observer-only when no --telemetry file: the log mirror is
    // still installed, so campaign streams carry their own log
    // events.
    telemetry.open(true);
    telemetry.installGlobal();

    // The main thread polls the stop flag every 100 ms.
    const std::atomic<bool> &stop = cli::stopOnSignal();

    {
        serve::DviServer server(opts);
        server.start();
        std::printf("dvi-serve: ready on port %u\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);

        while (!stop.load(std::memory_order_acquire))
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
    telemetry.close();
    std::fprintf(stderr, "dvi-serve: clean shutdown\n");
    return 0;
}
