#!/usr/bin/env python3
"""End-to-end checks of the command-line tools (stdlib only).

Usage:
    tests/cli_checks.py CHECK BIN_DIR

Runs one check against the dvi-* binaries in BIN_DIR, writing its
files into the current directory. CMake registers every check as
ctest entry `cli_CHECK`, each in its own directory under the build
tree, so every build type and sanitizer leg runs all of them:

  determinism     fig05's report is byte-identical across --jobs 1
                  and 2
  determinism_ablation
                  so is ablation-lvm-stack-depth's
  telemetry       dvi-run captures validate; telemetry changes no
                  report byte
  telemetry_fuzz  a dvi-fuzz capture validates
  manifest        emit -> run, report replay and --set on both sources
  chaos           transient faults retry away; a permanent one degrades
  fuzz            clean fuzz campaigns on two seeds
  fuzz_fault      an injected fault is caught and its repro replays
                  byte for byte
  lint            lint telemetry validates; a --lint campaign runs
  serve           a live dvi-serve matches local runs, reuses its
                  compile cache, streams valid events, stops on SIGINT
  golden          dvi-golden regenerates tests/uarch_golden_values.inc
  flags           malformed flag values and combinations are rejected;
                  --help names every flag

Captures are validated and the server is driven in this process by
importing tools/check_telemetry.py and tools/serve_client.py. Exit
status: 0 pass, non-zero fail (the failing step is named on
stderr).
"""

import argparse
import contextlib
import filecmp
import glob
import io
import json
import os
import re
import signal
import subprocess
import sys

SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(SOURCE_DIR, "tools"))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import serve_client  # noqa: E402
from check_telemetry import check_capture  # noqa: E402

BIN_DIR = "."

CAMPAIGN_KINDS = ["campaign-begin", "job-begin", "job-end", "progress",
                  "campaign-end"]


class CheckFailed(Exception):
    """A failed step; str() says which and why."""


def run(tool, *args, expect=(0,)):
    """Run one tool to completion; return its CompletedProcess, or
    fail unless it exits with one of `expect`."""
    cmd = [os.path.join(BIN_DIR, tool), *args]
    print("$", tool, *args, flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    proc.stderr = proc.stderr.decode(errors="replace")
    if proc.returncode not in expect:
        raise CheckFailed(
            f"{tool} exited {proc.returncode}, want "
            f"{' or '.join(map(str, expect))}\n"
            f"stderr:\n{proc.stderr[-4000:]}")
    return proc


def same(a, b):
    if not filecmp.cmp(a, b, shallow=False):
        raise CheckFailed(f"{a} and {b} differ")
    print(f"  {a} == {b}")


def captures_valid(paths, kinds=()):
    codes = [check_capture(p, list(kinds)) for p in paths]
    if any(codes):
        raise CheckFailed(f"telemetry capture(s) failed: {paths}")


def same_across_jobs(scenario):
    """One scenario's report is byte-identical at --jobs 1 and 2."""
    run("dvi-run", "--scenario", scenario, "--jobs", "2",
        "--max-insts", "20000", "--out", f"{scenario}-j2.json")
    run("dvi-run", "--scenario", scenario, "--jobs", "1",
        "--max-insts", "20000", "--out", f"{scenario}-j1.json",
        "--quiet")
    same(f"{scenario}-j1.json", f"{scenario}-j2.json")


def determinism():
    """fig05's report is byte-identical across worker counts."""
    same_across_jobs("fig05")


def determinism_ablation():
    """So is ablation-lvm-stack-depth's (its own entry, so the two
    pairs run in parallel under ctest -j)."""
    same_across_jobs("ablation-lvm-stack-depth")


def telemetry():
    """Every event validates, the layers exercised emitted, and a
    report is the same bytes with telemetry on or off."""
    run("dvi-run", "--scenario", "fig05", "--jobs", "2",
        "--max-insts", "20000", "--telemetry", "out.ndjson",
        "--metrics-interval", "200", "--out", "with-telemetry.json",
        "--quiet")
    captures_valid(["out.ndjson"],
                   CAMPAIGN_KINDS + ["phase-begin", "phase-end",
                                     "core-sample", "metrics"])
    run("dvi-run", "--scenario", "fig05", "--jobs", "1",
        "--max-insts", "20000", "--out", "no-telemetry.json",
        "--quiet")
    same("with-telemetry.json", "no-telemetry.json")


def telemetry_fuzz():
    """A fuzz campaign's capture validates."""
    run("dvi-fuzz", "--seed", "1", "--programs", "50", "--max-insts",
        "40000", "--telemetry", "fuzz.ndjson")
    captures_valid(["fuzz.ndjson"],
                   ["fuzz-begin", "fuzz-verdict", "fuzz-end"])


def manifest():
    """A manifest, a report replayed as one and a registry scenario
    run the same campaign; --set applies to both sources."""
    run("dvi-run", "--scenario", "fig10", "--jobs", "2",
        "--max-insts", "20000", "--out", "direct.json", "--quiet")
    run("dvi-run", "--emit-manifest", "fig10", "--max-insts", "20000",
        "--out", "fig10.manifest.json")
    run("dvi-run", "--manifest", "fig10.manifest.json", "--jobs", "2",
        "--out", "via-manifest.json", "--quiet")
    same("direct.json", "via-manifest.json")

    run("dvi-run", "--manifest", "direct.json", "--jobs", "1",
        "--out", "replay.json", "--quiet")
    same("direct.json", "replay.json")

    run("dvi-run", "--scenario", "fig10", "--jobs", "2",
        "--max-insts", "20000", "--set", "hardware.core.windowSize=32",
        "--out", "direct-w32.json", "--quiet")
    run("dvi-run", "--manifest", "fig10.manifest.json", "--jobs", "1",
        "--set", "hardware.core.windowSize=32", "--out", "via-w32.json",
        "--quiet")
    same("direct-w32.json", "via-w32.json")
    if filecmp.cmp("direct-w32.json", "direct.json", shallow=False):
        raise CheckFailed("--set hardware.core.windowSize=32 left the "
                          "report unchanged")


def chaos():
    """Fixed-seed failpoints: transient faults are retried away,
    a permanent one quarantines its job and degrades the report."""
    run("dvi-run", "--scenario", "fig09", "--jobs", "2",
        "--max-insts", "20000", "--chaos",
        "driver.compile=throw@once,driver.job=throw@once,seed=42",
        "--out", "chaotic.json", "--quiet")
    run("dvi-run", "--scenario", "fig09", "--jobs", "2",
        "--max-insts", "20000", "--out", "calm.json", "--quiet")
    same("chaotic.json", "calm.json")

    run("dvi-run", "--scenario", "fig09", "--jobs", "2",
        "--max-insts", "20000", "--chaos",
        "driver.job=throw:permanent@once,seed=42",
        "--telemetry", "degraded.ndjson", "--out", "degraded.json",
        "--quiet", expect=(3,))
    captures_valid(["degraded.ndjson"], ["error"])
    with open("degraded.json") as f:
        report = json.load(f)
    errors = [r["error"] for r in report["results"] if "error" in r]
    if (report.get("degraded") is not True or len(errors) != 1
            or errors[0]["kind"] != "permanent"):
        raise CheckFailed(f"want a degraded report with one permanent "
                          f"error, got degraded="
                          f"{report.get('degraded')} errors={errors}")

    run("dvi-run", "--scenario", "fig09", "--jobs", "2",
        "--max-insts", "3000", "--retries", "0", "--quiet")
    run("dvi-run", "--scenario", "fig09", "--jobs", "4",
        "--max-insts", "10000", "--chaos",
        "driver.job=throw@once,seed=42", "--quiet")


def fuzz():
    """Fixed-seed campaigns find nothing."""
    run("dvi-fuzz", "--seed", "1", "--programs", "200",
        "--max-insts", "60000")
    run("dvi-fuzz", "--seed", "2", "--programs", "100",
        "--max-insts", "40000")


def fuzz_fault():
    """An injected kill-mask fault is found and its first repro
    reproduces byte for byte."""
    for stale in glob.glob("fault-*.json"):
        os.remove(stale)
    run("dvi-fuzz", "--seed", "1", "--programs", "10", "--max-insts",
        "40000", "--inject-kill-bit", "1:17", "--repro-prefix", "fault",
        expect=(1,))
    repros = sorted(glob.glob("fault-*.json"))
    if not repros:
        raise CheckFailed("the injected fault wrote no repro")
    run("dvi-fuzz", "--replay", repros[0], "--emit", "replayed.json")
    same(repros[0], "replayed.json")


def lint():
    """Lint telemetry validates, and a --lint campaign runs."""
    # Advisory findings never fail the lint, but a broken binary
    # would; either way the capture must be whole.
    run("dvi-lint", "--scenario", "fig05", "--advisory", "--telemetry",
        "lint.ndjson", "--quiet", expect=(0, 1))
    captures_valid(["lint.ndjson"], ["lint", "lint-summary"])
    run("dvi-run", "--scenario", "fig05", "--lint", "--jobs", "2",
        "--max-insts", "20000", "--out", "linted.json", "--quiet")


def serve_call(fn, **fields):
    """Call one serve_client subcommand; return what it printed."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        fn(argparse.Namespace(**fields))
    out.flush()
    return out.buffer.getvalue().decode()


def serve():
    """A live dvi-serve: served reports equal local runs, a repeat
    manifest only hits the compile cache, event streams and the
    server capture validate, and SIGINT exits 0."""
    run("dvi-run", "--emit-manifest", "fig05", "--max-insts", "20000",
        "--out", "fig05.manifest.json")
    print("$ dvi-serve --port 0 --max-concurrent 2 --telemetry "
          "server.ndjson", flush=True)
    with open("serve.err", "w") as err, subprocess.Popen(
            [os.path.join(BIN_DIR, "dvi-serve"), "--port", "0",
             "--max-concurrent", "2", "--telemetry", "server.ndjson"],
            stdout=subprocess.PIPE, stderr=err, text=True) as server:
        try:
            serve_session(server)
        finally:
            if server.poll() is None:
                server.kill()
    with open("serve.err") as f:
        if "clean shutdown" not in f.read():
            raise CheckFailed("dvi-serve did not report a clean "
                              "shutdown on stderr")
    captures_valid(["server.ndjson"])


def serve_session(server):
    """Drive a starting dvi-serve through the checks, then stop it
    with SIGINT."""
    # Scripts read the port from the first stdout line, so it must be
    # the ready line; status lines (info:, warn:) go to stderr. Nothing
    # follows it on stdout, so leaving the pipe unread cannot fill it.
    line = server.stdout.readline()
    if not line:
        raise CheckFailed("dvi-serve exited before it was ready")
    if not line.startswith("dvi-serve: ready on port "):
        raise CheckFailed(f"dvi-serve's first stdout line is not its "
                          f"ready line: {line!r}")
    conn = dict(host="127.0.0.1", port=int(line.split()[-1]),
                timeout=60.0)

    def submit():
        return serve_call(serve_client.cmd_submit, **conn,
                          manifest="fig05.manifest.json",
                          wait=True, poll_ms=20,
                          max_retries=3).strip()

    def metrics():
        status, headers, data = serve_client.request(
            argparse.Namespace(**conn), "GET", "/metrics")
        return json.loads(serve_client.expect(status, headers,
                                              data))["gauges"]

    def report(cid, path):
        serve_call(serve_client.cmd_report, **conn, id=cid,
                   out=path)

    print(serve_call(serve_client.cmd_health, **conn), end="")
    first = submit()
    report(first, "served.json")
    run("dvi-run", "--manifest", "fig05.manifest.json", "--jobs",
        "2", "--out", "local.json", "--quiet")
    same("served.json", "local.json")

    before = metrics()
    second = submit()
    report(second, "served2.json")
    same("served.json", "served2.json")
    after = metrics()
    if (after["cache.misses"] != before["cache.misses"]
            or after["cache.hits"] <= before["cache.hits"]):
        raise CheckFailed(f"repeat manifest did not reuse the "
                          f"compile cache: {before} -> {after}")
    print(f"  cache hits {before['cache.hits']} -> "
          f"{after['cache.hits']}, misses {after['cache.misses']}")

    for cid in (first, second):
        serve_call(serve_client.cmd_events, **conn, id=cid,
                   out=f"events-{cid}.ndjson", follow=False)
    captures_valid([f"events-{first}.ndjson",
                    f"events-{second}.ndjson"], CAMPAIGN_KINDS)

    server.send_signal(signal.SIGINT)
    code = server.wait(timeout=60)
    if code != 0:
        raise CheckFailed(f"dvi-serve exited {code} on SIGINT")


def golden():
    """The timing core still produces every golden record."""
    regen = run("dvi-golden").stdout
    path = os.path.join(SOURCE_DIR, "tests", "uarch_golden_values.inc")
    with open(path, "rb") as f:
        if f.read() != regen:
            with open("golden-regen.inc", "wb") as out:
                out.write(regen)
            raise CheckFailed(f"dvi-golden output (golden-regen.inc) "
                              f"differs from {path}")


#: Every flag each tool's parser accepts besides --help / -h; the
#: `flags` check wants each named in that tool's --help.
TOOL_FLAGS = {
    "dvi-run": ["--scenario", "--manifest", "--emit-manifest", "--set",
                "--jobs", "--max-insts", "--mode", "--profile", "--out",
                "--format", "--telemetry", "--metrics-interval",
                "--progress", "--retries", "--chaos", "--lint",
                "--quiet", "--list"],
    "dvi-fuzz": ["--seed", "--programs", "--max-insts", "--stack-depth",
                 "--structured-fraction", "--no-core", "--no-dense",
                 "--no-static", "--no-minimize", "--repro-prefix",
                 "--inject-kill-bit", "--telemetry",
                 "--metrics-interval", "--progress", "--replay",
                 "--emit"],
    "dvi-lint": ["--all", "--scenario", "--manifest", "--repro",
                 "--fuzz", "--list", "--seed", "--structured-fraction",
                 "--advisory", "--inject-kill-bit", "--json",
                 "--telemetry", "--quiet"],
    "dvi-serve": ["--port", "--max-concurrent", "--max-queue", "--jobs",
                  "--telemetry", "--io-timeout", "--retries", "--chaos"],
}


def flags():
    """Malformed values and flag combinations exit with a message
    naming the flag, before any thread starts; --help names every
    flag."""
    emit_only = "--emit-manifest only combines with"
    metrics_alone = "--metrics-interval requires --telemetry"
    cases = [
        (["dvi-run", "--jobs", "-1", "--list"], "bad value for --jobs"),
        (["dvi-run", "--jobs", "99999999999", "--list"],
         "bad value for --jobs"),
        (["dvi-serve", "--port", "70000", "--help"],
         "bad value for --port"),
        (["dvi-serve", "--port", "-1", "--help"],
         "bad value for --port"),
        (["dvi-fuzz", "--structured-fraction", "nan"],
         "bad value for --structured-fraction"),
        (["dvi-lint", "--structured-fraction", "nan"],
         "bad value for --structured-fraction"),
        (["dvi-run", "--emit-manifest", "fig09", "--lint"], emit_only),
        (["dvi-run", "--emit-manifest", "fig09", "--retries", "5"],
         emit_only),
        (["dvi-run", "--emit-manifest", "fig09", "--chaos",
          "driver.job=throw@once"], emit_only),
        (["dvi-run", "--scenario", "fig02", "--metrics-interval", "5"],
         metrics_alone),
        (["dvi-fuzz", "--programs", "1", "--metrics-interval", "5"],
         metrics_alone),
        (["dvi-fuzz", "--emit", "x.json"],
         "--emit only combines with --replay"),
        (["dvi-serve", "--max-concurrent", "0"],
         "--max-concurrent must be at least 1"),
        (["dvi-run", "--set", "nonsense"],
         "--set wants PATH=VALUE, got 'nonsense'"),
    ]
    for tool in TOOL_FLAGS:
        cases += [
            ([tool, "--bogus"], "unknown argument '--bogus'"),
            ([tool, "--telemetry"], "--telemetry needs a value"),
        ]
    for tool in ("dvi-fuzz", "dvi-lint"):
        cases += [
            ([tool, "--inject-kill-bit", "5"],
             "--inject-kill-bit wants ORDINAL:REG, got '5'"),
            ([tool, "--inject-kill-bit", "0:32"],
             "--inject-kill-bit register must be 1..31"),
        ]
    for (tool, *args), message in cases:
        proc = run(tool, *args, expect=(1,))
        if message not in proc.stderr:
            raise CheckFailed(f"stderr lacks {message!r}:\n"
                              f"{proc.stderr}")

    proc = run("dvi-run", "--scenario", "fig02", "--mode", "bogus",
               expect=(2,))
    modes = "invalid DVI mode 'bogus' for --mode; valid values: " \
            "none, idvi, full, dense"
    if modes not in proc.stderr:
        raise CheckFailed(f"stderr lacks {modes!r}:\n{proc.stderr}")

    for tool, accepted in TOOL_FLAGS.items():
        named = set(re.findall(r"--[a-z][a-z-]*",
                               run(tool, "--help").stdout.decode()))
        missing = [f for f in accepted if f not in named]
        if missing:
            raise CheckFailed(f"{tool} --help does not name "
                              f"{', '.join(missing)}")


CHECKS = {fn.__name__: fn for fn in (determinism,
                                     determinism_ablation, telemetry,
                                     telemetry_fuzz, manifest, chaos,
                                     fuzz, fuzz_fault, lint, serve,
                                     golden, flags)}


def main():
    global BIN_DIR
    p = argparse.ArgumentParser()
    p.add_argument("check", choices=sorted(CHECKS))
    p.add_argument("bin_dir")
    args = p.parse_args()
    BIN_DIR = args.bin_dir
    try:
        CHECKS[args.check]()
    except CheckFailed as e:
        print(f"cli_checks {args.check}: FAIL: {e}", file=sys.stderr)
        return 1
    print(f"cli_checks {args.check}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
