/**
 * @file
 * In-process tests for the dvi-serve subsystem: a DviServer on an
 * ephemeral port driven through a real TCP client. Covers the
 * acceptance criteria — reports fetched over HTTP byte-identical to
 * a direct driver run for concurrent campaigns, compile-cache reuse
 * across submissions, 429 under overload — plus the soft-error
 * manifest path, cancellation, and the NDJSON event stream.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/failpoint.hh"
#include "base/json.hh"
#include "driver/campaign.hh"
#include "serve/server.hh"
#include "sim/manifest.hh"
#include "sim/scenario.hh"

namespace dvi
{
namespace
{

// ------------------------------------------------- tiny HTTP client
//
// One request per connection (the server speaks Connection: close),
// blocking reads until EOF, chunked transfer decoding — just enough
// client to exercise the server the way curl would.

struct ClientResponse
{
    int status = 0;
    std::map<std::string, std::string> headers;  // lower-cased names
    std::string body;

    std::string
    header(const std::string &name) const
    {
        const auto it = headers.find(name);
        return it == headers.end() ? "" : it->second;
    }
};

std::string
lowerCopy(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    return s;
}

ClientResponse
httpRequest(std::uint16_t port, const std::string &method,
            const std::string &path, const std::string &body = "")
{
    ClientResponse res;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << "connect to port " << port;

    std::ostringstream req;
    req << method << " " << path << " HTTP/1.1\r\n"
        << "Host: 127.0.0.1\r\n"
        << "Connection: close\r\n";
    if (!body.empty())
        req << "Content-Length: " << body.size() << "\r\n";
    req << "\r\n" << body;
    const std::string text = req.str();
    std::size_t sent = 0;
    while (sent < text.size()) {
        const ssize_t n =
            ::send(fd, text.data() + sent, text.size() - sent, 0);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    // Status line.
    const std::size_t eol = raw.find("\r\n");
    if (eol == std::string::npos || raw.size() < 12)
        return res;
    res.status = std::atoi(raw.substr(9, 3).c_str());

    // Headers until the blank line.
    const std::size_t hdrEnd = raw.find("\r\n\r\n");
    if (hdrEnd == std::string::npos)
        return res;
    std::size_t pos = eol + 2;
    while (pos < hdrEnd) {
        const std::size_t lineEnd = raw.find("\r\n", pos);
        const std::string line = raw.substr(pos, lineEnd - pos);
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            std::string name = lowerCopy(line.substr(0, colon));
            std::size_t vs = colon + 1;
            while (vs < line.size() && line[vs] == ' ')
                ++vs;
            res.headers[name] = line.substr(vs);
        }
        pos = lineEnd + 2;
    }

    std::string payload = raw.substr(hdrEnd + 4);
    if (res.headers["transfer-encoding"] == "chunked") {
        // Decode: <hex-size>\r\n<data>\r\n ... 0\r\n\r\n
        std::size_t p = 0;
        while (p < payload.size()) {
            const std::size_t lineEnd = payload.find("\r\n", p);
            if (lineEnd == std::string::npos)
                break;
            const std::size_t size = std::strtoul(
                payload.substr(p, lineEnd - p).c_str(), nullptr, 16);
            if (size == 0)
                break;
            res.body.append(payload, lineEnd + 2, size);
            p = lineEnd + 2 + size + 2;
        }
    } else {
        res.body = std::move(payload);
    }
    return res;
}

// --------------------------------------------------- test manifests

sim::Scenario
tinyScenario(workload::BenchmarkId id, const sim::DviPreset &preset,
             std::uint64_t insts)
{
    sim::Scenario s;
    s.runner = "timing";
    s.workload = id;
    s.budget.maxInsts = insts;
    sim::applyPreset(s, preset);
    return s;
}

/** A small campaign manifest as JSON text — what a client POSTs. */
std::string
manifestText(const std::string &name, workload::BenchmarkId id,
             std::uint64_t insts)
{
    sim::CampaignManifest m;
    m.name = name;
    for (const sim::DviPreset &preset : sim::paperPresets())
        m.scenarios.push_back(tinyScenario(id, preset, insts));
    return sim::manifestToJson(m);
}

/** What `dvi-run --manifest` would write for the same text: parse,
 * run, serialize. The server must serve these exact bytes. */
std::string
directReportBytes(const std::string &text)
{
    sim::CampaignManifest m;
    const std::string err = sim::manifestFromJson(text, m);
    EXPECT_EQ(err, "");
    driver::Campaign campaign(m.name, std::move(m.scenarios));
    driver::CampaignOptions copts;
    copts.jobs = 2;
    copts.profile = m.profile;
    return campaign.run(copts).toJson();
}

/** Poll GET /campaigns/<id> until the state token appears. */
void
awaitState(std::uint16_t port, const std::string &id,
           const std::string &state, unsigned timeoutMs = 60000)
{
    const std::string needle = "\"state\": \"" + state + "\"";
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    for (;;) {
        const ClientResponse res =
            httpRequest(port, "GET", "/campaigns/" + id);
        ASSERT_EQ(res.status, 200) << res.body;
        if (res.body.find(needle) != std::string::npos)
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "campaign " << id << " never reached " << state
            << "; last status: " << res.body;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

// ------------------------------------------------------------ tests

TEST(Serve, HealthzAnswers)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();
    ASSERT_GT(server.port(), 0);

    const ClientResponse res =
        httpRequest(server.port(), "GET", "/healthz");
    EXPECT_EQ(res.status, 200);
    EXPECT_NE(res.body.find("\"status\": \"ok\""), std::string::npos);
    server.shutdown();
}

TEST(Serve, UnknownPathsAndIdsAre404)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    EXPECT_EQ(httpRequest(server.port(), "GET", "/nope").status, 404);
    EXPECT_EQ(
        httpRequest(server.port(), "GET", "/campaigns/c999").status,
        404);
    EXPECT_EQ(httpRequest(server.port(), "GET",
                          "/campaigns/c999/report")
                  .status,
              404);
    server.shutdown();
}

TEST(Serve, MalformedManifestIs400WithDiagnostic)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    // Not JSON at all.
    ClientResponse res = httpRequest(server.port(), "POST",
                                     "/campaigns", "not json {");
    EXPECT_EQ(res.status, 400);

    // Valid JSON, invalid manifest: the soft-error loader's
    // dotted-path diagnostic must come through to the client.
    res = httpRequest(
        server.port(), "POST", "/campaigns",
        "{\"campaign\": \"bad\", \"jobs\": [{\"workload\": "
        "\"no-such-benchmark\"}]}");
    EXPECT_EQ(res.status, 400);
    EXPECT_NE(res.body.find("workload"), std::string::npos)
        << res.body;
    server.shutdown();
}

TEST(Serve, OverCapManifestIs400AndServerStaysHealthy)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    // About 1 KB of axes that would expand to a million jobs.
    std::string values;
    for (unsigned v = 1; v <= 100; ++v)
        values += (v > 1 ? ", " : "") + std::to_string(v);
    const std::string body =
        "{\"axes\": [{\"path\": \"hardware.core.windowSize\", "
        "\"values\": [" + values + "]}, "
        "{\"path\": \"hardware.core.numPhysRegs\", \"values\": [" +
        values + "]}, {\"path\": \"budget.maxInsts\", \"values\": [" +
        values + "]}]}";
    const ClientResponse res =
        httpRequest(server.port(), "POST", "/campaigns", body);
    EXPECT_EQ(res.status, 400);
    EXPECT_NE(res.body.find("axes[2]: 1000000 jobs exceed the "
                            "manifest limit of 100000"),
              std::string::npos)
        << res.body;
    EXPECT_EQ(httpRequest(server.port(), "GET", "/healthz").status,
              200);
    server.shutdown();
}

TEST(Serve, ConcurrentCampaignReportsAreByteIdenticalToDirectRuns)
{
    serve::ServeOptions opts;
    opts.port = 0;
    opts.maxConcurrent = 2;
    serve::DviServer server(opts);
    server.start();

    // Two different manifests submitted back to back run
    // concurrently on the shared pool; each served report must
    // still be exactly what a standalone driver run produces.
    const std::string ma =
        manifestText("serve-a", workload::BenchmarkId::Li, 4000);
    const std::string mb =
        manifestText("serve-b", workload::BenchmarkId::Perl, 4000);

    const ClientResponse ra =
        httpRequest(server.port(), "POST", "/campaigns", ma);
    const ClientResponse rb =
        httpRequest(server.port(), "POST", "/campaigns", mb);
    ASSERT_EQ(ra.status, 202) << ra.body;
    ASSERT_EQ(rb.status, 202) << rb.body;
    ASSERT_NE(ra.body.find("\"id\": \"c1\""), std::string::npos);
    ASSERT_NE(rb.body.find("\"id\": \"c2\""), std::string::npos);

    awaitState(server.port(), "c1", "done");
    awaitState(server.port(), "c2", "done");

    const ClientResponse repA =
        httpRequest(server.port(), "GET", "/campaigns/c1/report");
    const ClientResponse repB =
        httpRequest(server.port(), "GET", "/campaigns/c2/report");
    ASSERT_EQ(repA.status, 200);
    ASSERT_EQ(repB.status, 200);
    EXPECT_EQ(repA.header("content-type"), "application/json");

    EXPECT_EQ(repA.body, directReportBytes(ma));
    EXPECT_EQ(repB.body, directReportBytes(mb));
    server.shutdown();
}

TEST(Serve, SecondIdenticalSubmissionReusesCompileCache)
{
    serve::ServeOptions opts;
    opts.port = 0;
    opts.maxConcurrent = 1;
    serve::DviServer server(opts);
    server.start();

    const std::string m =
        manifestText("cache-probe", workload::BenchmarkId::Go, 3000);

    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", m).status,
        202);
    awaitState(server.port(), "c1", "done");
    const std::uint64_t missesAfterFirst = server.cache().misses();
    EXPECT_GT(missesAfterFirst, 0u);  // first run compiled

    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", m).status,
        202);
    awaitState(server.port(), "c2", "done");

    // The repeat campaign compiled nothing: every get() hit the
    // process-wide cache, so misses stayed put while hits grew.
    EXPECT_EQ(server.cache().misses(), missesAfterFirst);
    EXPECT_GT(server.cache().hits(), 0u);

    // And the counters are visible to operators via GET /metrics.
    const ClientResponse metrics =
        httpRequest(server.port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("\"cache.hits\""), std::string::npos);
    EXPECT_NE(metrics.body.find("\"cache.misses\""),
              std::string::npos);
    server.shutdown();
}

TEST(Serve, OverloadIs429WithRetryAfter)
{
    serve::ServeOptions opts;
    opts.port = 0;
    opts.maxConcurrent = 1;
    opts.maxQueue = 0;
    serve::DviServer server(opts);
    server.start();

    // A budget big enough to still be running when the second
    // submission lands; cancelled before the test ends.
    const std::string slow = manifestText(
        "slow", workload::BenchmarkId::Compress, 50000000);
    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", slow)
            .status,
        202);
    awaitState(server.port(), "c1", "running");

    const ClientResponse refused =
        httpRequest(server.port(), "POST", "/campaigns", slow);
    EXPECT_EQ(refused.status, 429);
    EXPECT_FALSE(refused.header("retry-after").empty());
    EXPECT_NE(refused.body.find("capacity"), std::string::npos)
        << refused.body;

    // DELETE cancels cooperatively; the campaign must reach the
    // cancelled state, after which the report is a 409 (never Done).
    EXPECT_EQ(
        httpRequest(server.port(), "DELETE", "/campaigns/c1").status,
        202);
    awaitState(server.port(), "c1", "cancelled");
    EXPECT_EQ(httpRequest(server.port(), "GET",
                          "/campaigns/c1/report")
                  .status,
              409);
    server.shutdown();
}

TEST(Serve, EventStreamIsGaplessNdjsonMatchingTelemetryProtocol)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    const std::string m =
        manifestText("events", workload::BenchmarkId::Li, 3000);
    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", m).status,
        202);
    awaitState(server.port(), "c1", "done");

    const ClientResponse events = httpRequest(
        server.port(), "GET", "/campaigns/c1/events?follow=0");
    ASSERT_EQ(events.status, 200);
    EXPECT_EQ(events.header("content-type"),
              "application/x-ndjson");
    ASSERT_FALSE(events.body.empty());
    EXPECT_EQ(events.body.back(), '\n');

    // The stream is the PR-6 telemetry protocol: one JSON object
    // per line, seq gapless from 0, campaign-begin first and
    // campaign-end last.
    std::vector<std::string> lines;
    std::istringstream in(events.body);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_GE(lines.size(), 2u);
    EXPECT_NE(lines.front().find("\"kind\": \"campaign-begin\""),
              std::string::npos);
    EXPECT_NE(lines.back().find("\"kind\": \"campaign-end\""),
              std::string::npos);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string seq =
            "\"seq\": " + std::to_string(i) + ",";
        EXPECT_NE(lines[i].find(seq), std::string::npos)
            << "line " << i << ": " << lines[i];
    }

    // A ranged replay resumes mid-stream; from=0 is the whole stream
    // and from=<line count> an empty body.
    const auto replayFrom = [&](std::size_t from) {
        const ClientResponse r = httpRequest(
            server.port(), "GET",
            "/campaigns/c1/events?follow=0&from=" +
                std::to_string(from));
        EXPECT_EQ(r.status, 200);
        return r.body;
    };
    EXPECT_EQ(replayFrom(lines.size() - 1), lines.back() + "\n");
    EXPECT_EQ(replayFrom(0), events.body);
    EXPECT_EQ(replayFrom(lines.size()), "");

    // The finished session still reports its counts.
    const ClientResponse status =
        httpRequest(server.port(), "GET", "/campaigns/c1");
    ASSERT_EQ(status.status, 200);
    const json::ParseResult doc = json::parse(status.body);
    ASSERT_TRUE(doc.ok()) << status.body;
    const auto count = [&doc](const char *key) {
        const json::Value *v = doc.value.find(key);
        return v ? v->u64() : ~std::uint64_t{0};
    };
    const std::uint64_t jobs = sim::paperPresets().size();
    EXPECT_EQ(count("jobs"), jobs);
    EXPECT_EQ(count("jobsCompleted"), jobs);
    EXPECT_EQ(count("events"), lines.size());
    server.shutdown();
}

// ------------------------------------------------- fault tolerance
//
// Failpoint state is process-global: each test arms its spec, runs,
// and disarms via the fixture teardown before any later test or
// campaign can trip over it.

class ServeChaos : public ::testing::Test
{
  protected:
    void SetUp() override { fail::reset(); }
    void TearDown() override { fail::reset(); }
};

TEST_F(ServeChaos, FailedCampaignReports500AndServerStaysHealthy)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    // driver.aggregate throws after every job ran — a campaign-level
    // fault that per-job isolation cannot absorb, so the session
    // lands in the failed state instead of wedging in running.
    ASSERT_EQ(fail::configure("driver.aggregate=throw:permanent"),
              "");
    const std::string m =
        manifestText("doomed", workload::BenchmarkId::Li, 3000);
    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", m).status,
        202);
    awaitState(server.port(), "c1", "failed");
    fail::reset();

    const ClientResponse report =
        httpRequest(server.port(), "GET", "/campaigns/c1/report");
    EXPECT_EQ(report.status, 500);
    EXPECT_NE(report.body.find("campaign failed"), std::string::npos)
        << report.body;
    EXPECT_NE(report.body.find("driver.aggregate"),
              std::string::npos)
        << report.body;

    // The failure is one campaign's, not the server's: liveness and
    // a fresh fault-free submission both still work.
    EXPECT_EQ(httpRequest(server.port(), "GET", "/healthz").status,
              200);
    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", m).status,
        202);
    awaitState(server.port(), "c2", "done");
    server.shutdown();
}

TEST_F(ServeChaos, DegradedCampaignServesReportWithErrorRecords)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    ASSERT_EQ(fail::configure("driver.job=throw:permanent@once"), "");
    const std::string m =
        manifestText("degraded", workload::BenchmarkId::Li, 3000);
    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", m).status,
        202);
    awaitState(server.port(), "c1", "done");
    fail::reset();

    // Done, but flagged: the status document and the report both
    // carry the degradation, and the event stream carries the error
    // event for the quarantined job.
    const ClientResponse status =
        httpRequest(server.port(), "GET", "/campaigns/c1");
    ASSERT_EQ(status.status, 200);
    EXPECT_NE(status.body.find("\"degraded\": true"),
              std::string::npos)
        << status.body;

    const ClientResponse report =
        httpRequest(server.port(), "GET", "/campaigns/c1/report");
    ASSERT_EQ(report.status, 200);
    EXPECT_NE(report.body.find("\"degraded\": true"),
              std::string::npos);
    EXPECT_NE(report.body.find("\"kind\": \"permanent\""),
              std::string::npos);

    const ClientResponse events = httpRequest(
        server.port(), "GET", "/campaigns/c1/events?follow=0");
    ASSERT_EQ(events.status, 200);
    EXPECT_NE(events.body.find("\"kind\": \"error\""),
              std::string::npos);

    // /metrics rolls the quarantine up server-wide.
    const ClientResponse metrics =
        httpRequest(server.port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("\"serve.jobsQuarantined\": 1"),
              std::string::npos)
        << metrics.body;
    server.shutdown();
}

TEST_F(ServeChaos, InstructionCapIsQuarantinedButNoWatchdogFire)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    // hardMaxInsts faults the job as budget-exceeded with no
    // wall-clock deadline set: quarantined, yet no watchdog fired.
    sim::CampaignManifest m;
    m.name = "capped";
    sim::Scenario s;
    s.runner = "oracle";
    s.workload = workload::BenchmarkId::Li;
    s.budget.maxInsts = 0;
    s.budget.hardMaxInsts = 1000;
    m.scenarios.push_back(s);
    ASSERT_EQ(httpRequest(server.port(), "POST", "/campaigns",
                          sim::manifestToJson(m))
                  .status,
              202);
    awaitState(server.port(), "c1", "done");

    const ClientResponse metrics =
        httpRequest(server.port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("\"serve.jobsQuarantined\": 1"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("\"serve.watchdogFires\": 0"),
              std::string::npos)
        << metrics.body;
    server.shutdown();
}

TEST_F(ServeChaos, RequestFaultIs500ButHealthzIsExempt)
{
    serve::ServeOptions opts;
    opts.port = 0;
    serve::DviServer server(opts);
    server.start();

    // Every non-healthz request faults; the HTTP layer catches the
    // throw per request, so each one answers 500 and the next
    // connection is served normally.
    ASSERT_EQ(fail::configure("serve.request=throw:permanent"), "");
    EXPECT_EQ(httpRequest(server.port(), "GET", "/campaigns").status,
              500);
    EXPECT_EQ(httpRequest(server.port(), "GET", "/metrics").status,
              500);
    // Liveness is answered before the failpoint on purpose.
    EXPECT_EQ(httpRequest(server.port(), "GET", "/healthz").status,
              200);
    fail::reset();
    EXPECT_EQ(httpRequest(server.port(), "GET", "/campaigns").status,
              200);
    server.shutdown();
}

TEST_F(ServeChaos, StalledClientTimesOutWithoutBlockingOthers)
{
    serve::ServeOptions opts;
    opts.port = 0;
    opts.ioTimeoutSeconds = 1;
    serve::DviServer server(opts);
    server.start();

    // A client that connects and then goes silent mid-request: the
    // per-connection receive timeout must reclaim the handler
    // thread with a 408 instead of holding it forever.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char partial[] = "GET /healthz HTT";  // never finished
    ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, 0), 0);

    // Meanwhile the server keeps answering everyone else.
    EXPECT_EQ(httpRequest(server.port(), "GET", "/healthz").status,
              200);

    // The stalled connection is answered 408 (or closed) within the
    // timeout, never left half-open.
    std::string raw;
    char buf[1024];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (!raw.empty()) {
        EXPECT_NE(raw.find("408"), std::string::npos) << raw;
    }

    EXPECT_EQ(httpRequest(server.port(), "GET", "/healthz").status,
              200);
    server.shutdown();
}

TEST(Serve, KeepsOnlyTheMostRecentlyFinishedSessions)
{
    // One dispatcher, so campaigns finish in id order; batches of 10
    // fit the queue even while the previous batch's last campaign
    // still holds the running slot.
    serve::ServeOptions opts;
    opts.port = 0;
    opts.maxConcurrent = 1;
    opts.maxQueue = 10;
    serve::DviServer server(opts);
    server.start();

    sim::CampaignManifest one;
    one.name = "retain";
    one.scenarios.push_back(tinyScenario(
        workload::BenchmarkId::Li, sim::presetFull(), 500));
    const std::string m = sim::manifestToJson(one);
    const std::size_t total = serve::DviServer::maxFinishedSessions + 2;
    for (std::size_t i = 1; i <= total; ++i) {
        ASSERT_EQ(
            httpRequest(server.port(), "POST", "/campaigns", m).status,
            202);
        if (i % 10 == 0 || i == total)
            awaitState(server.port(), "c" + std::to_string(i), "done");
    }
    // The last campaign drops c2 just after it reads done.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (httpRequest(server.port(), "GET", "/campaigns/c2").status !=
           404) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // The two earliest finished sessions are gone, with a message
    // that names the limit; the rest are served as before.
    for (const char *id : {"c1", "c2"}) {
        const ClientResponse gone = httpRequest(
            server.port(), "GET", std::string("/campaigns/") + id);
        EXPECT_EQ(gone.status, 404) << id;
        EXPECT_NE(gone.body.find("keeps only the 64 most recently "
                                 "finished campaigns"),
                  std::string::npos)
            << gone.body;
        EXPECT_EQ(httpRequest(server.port(), "GET",
                              std::string("/campaigns/") + id +
                                  "/report")
                      .status,
                  404);
    }
    EXPECT_EQ(httpRequest(server.port(), "GET", "/campaigns/c3").status,
              200);
    const ClientResponse last = httpRequest(
        server.port(), "GET",
        "/campaigns/c" + std::to_string(total) + "/report");
    ASSERT_EQ(last.status, 200);
    EXPECT_EQ(last.body, directReportBytes(m));

    // The list holds only the kept sessions; /healthz still counts
    // every submission.
    const ClientResponse list =
        httpRequest(server.port(), "GET", "/campaigns");
    ASSERT_EQ(list.status, 200);
    std::size_t listed = 0;
    for (std::size_t at = list.body.find("\"id\": \"c");
         at != std::string::npos;
         at = list.body.find("\"id\": \"c", at + 1))
        ++listed;
    EXPECT_EQ(listed, serve::DviServer::maxFinishedSessions);
    EXPECT_NE(httpRequest(server.port(), "GET", "/healthz")
                  .body.find("\"campaigns\": " + std::to_string(total)),
              std::string::npos);
    server.shutdown();
}

TEST(Serve, ShutdownCancelsRunningCampaigns)
{
    serve::ServeOptions opts;
    opts.port = 0;
    opts.maxConcurrent = 1;
    serve::DviServer server(opts);
    server.start();

    const std::string slow = manifestText(
        "slow-shutdown", workload::BenchmarkId::Ijpeg, 50000000);
    ASSERT_EQ(
        httpRequest(server.port(), "POST", "/campaigns", slow)
            .status,
        202);
    awaitState(server.port(), "c1", "running");

    // Must return promptly (cooperative cancel, not a full run) and
    // leave the session terminal.
    server.shutdown();
    SUCCEED();
}

} // namespace
} // namespace dvi
