#!/usr/bin/env python3
"""The smilab benchmark: one workload run per invocation.

    python3 perfbench/run.py --workload paper_quick|rank_scale|serve_mixed \
        --seed N --seconds N --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the smilab library and CLI from this checkout's
sources, plus perfbench_runner) into .bench_build/; later runs rebuild
incrementally.

It prints a human-readable report (every metric with its unit and sample
count, operations attempted and failed, the seed) and, as the last stdout
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with --trace 1
they are its per_layer metrics, taken from a traced pass that also states
each layer's self time and the tracing overhead. Any failed output check
makes the exit code 1; a build or usage error exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
from statistics import median

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "bin", "perfbench_runner")
SMILAB = os.path.join(BUILD, "bin", "smilab")
WORKLOADS = ("paper_quick", "rank_scale", "serve_mixed")
# Set-ups per untraced run; setup_s is their median. A daemon's set-up
# costs a few seconds against a paper_quick set-up's eight, and its
# host-speed factor comes from two short sampling processes, so serve takes
# more of them.
PAPER_SETUPS = 3
SERVE_SETUPS = 5


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def configured_source():
    """The source directory an existing .bench_build was configured for."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("smilab sources (src/) not found next to perfbench/")
    if configured_source() != HERE:
        # No build yet, or one copied from another checkout.
        shutil.rmtree(BUILD, ignore_errors=True)
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "perfbench_runner", "smilab_cli"],
                   stdout=sys.stderr, check=True)


def runner(mode, **options):
    cmd = [RUNNER, mode] + ["--%s=%s" % kv for kv in options.items()]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(done.stdout)


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


class Report:
    """Collects metrics with unit and sample count, and the check results."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.rows = []
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def metric(self, name, value, unit, samples, note=""):
        self.rows.append((name, value, unit, samples, note))
        self.metrics[name] = {"value": value, "unit": unit}

    def ops(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)

    def print(self, title):
        print("%s  seed=%d  %s" % (self.workload, self.seed, title))
        for name, value, unit, samples, note in self.rows:
            print("  %-32s %14.6g %-9s n=%-6s %s" % (name, value, unit, samples,
                                                     note))
        print("  operations attempted %d, failed %d" % (self.attempted,
                                                          self.failed))
        for f in self.failures[:20]:
            print("  FAILED: %s" % f)


def spans_report(report, spans, overhead_s):
    """Self time per layer, plus the tracing overhead (traced minus untraced
    wall time of the same work; below the host's noise it can read < 0)."""
    for layer, seconds in sorted(benchlib.layer_self_seconds(spans).items()):
        report.metric("self_s." + layer, seconds, "s", len(spans),
                      "self time (span minus children)")
    report.metric("trace.overhead_s", overhead_s, "s", 1,
                  "traced minus untraced wall time")


def zero_fill(report, names):
    """Per-layer metrics of layers this workload does not exercise read 0."""
    for name, unit in names:
        if name not in report.metrics:
            report.metrics[name] = {"value": 0, "unit": unit}


# --- paper_quick -------------------------------------------------------------


def paper_quick(seed, seconds, trace, report):
    pins = load_pins()["paper_quick"]
    passes = 1 if trace else max(1, round(seconds / 5))
    setups = []
    if not trace:
        for _ in range(PAPER_SETUPS - 1):
            setup = runner("paper_setup", seed=seed)["setup"]
            setups.append(benchlib.normalized_total(setup["index"]))
    out = runner("paper_quick", seed=seed, passes=passes, trace=int(trace))
    setups.append(benchlib.normalized_total(out["setup"]["index"]))
    expected = pins.get(str(out["variant"]), {})
    for p in out["passes"] + out["untraced_passes"]:
        bad = benchlib.digest_failures(expected, p["digests"])
        report.ops(len(p["digests"]),
                   ["variant %d %s digest %s" % (out["variant"], n,
                                                 p["digests"].get(n))
                    for n in bad])
    timed = out["passes"]
    if not trace:
        report.metric("wall_s", median([benchlib.normalized_total(
            p["index"], "wall") for p in timed]), "s", len(timed),
                      "timed pass wall time, median of passes")
        report.metric("cpu_s", median([benchlib.normalized_total(
            p["index"]) for p in timed]), "s", len(timed),
                      "process CPU of the pass, median of passes")
        report.metric("cpu_raw_s", median([sum(p["index"]["cpu"]) for p in timed]),
                      "s", len(timed), "cpu_s before host-speed scaling")
        report.metric("setup_s", median(setups), "s", len(setups),
                      "memo-filling CPU, median of fresh processes")
        report.metric("peak_rss_mb", out["peak_rss_mb"], "MB", 1)
        report.metric("repro_err_pp", timed[0]["repro_err_pp"], "pp",
                      timed[0]["repro_cells"],
                      "mean |%2 - paper %2| over reported cells")
        return
    spans = out["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["n"], []).append((s["e"] - s["s"]) / 1e9)
    p = timed[0]
    cal = by_name.get("calibrate_nas_knob", [])
    tables_s = sum(by_name.get("build_nas_table", []) +
                   by_name.get("build_htt_table", []))
    replay_s = sum(by_name.get("cache_unfriendly_workload", []) +
                   by_name.get("cache_friendly_workload", []))
    report.metric("nas.calibrate_s", sum(cal), "s", len(cal))
    report.metric("nas.calibrate_cells", len(cal), "count", len(cal))
    report.metric("nas.tables_s", tables_s, "s", 8)
    report.metric("nas.sims", p["nas_sims"], "count", 1)
    report.metric("nas.ms_per_sim", tables_s * 1e3 / p["nas_sims"], "ms",
                  p["nas_sims"])
    report.metric("cache.replay_s", replay_s, "s", 2)
    report.metric("cache.refs_per_s", out["setup"]["refs"] / replay_s, "1/s", 2)
    conv = by_name.get("run_convolve_sim", [])
    ub = by_name.get("run_unixbench", [])
    report.metric("convolve.grid_s", sum(conv), "s", len(conv))
    report.metric("convolve.sims", len(conv), "count", len(conv))
    report.metric("unixbench.grid_s", sum(ub), "s", len(ub))
    report.metric("unixbench.sims", len(ub), "count", len(ub))
    spans_report(report, spans,
                 benchlib.normalized_total(p["index"], "wall") -
                 benchlib.normalized_total(out["untraced_passes"][0]["index"],
                                           "wall"))
    return spans


# --- rank_scale --------------------------------------------------------------


def leg_summary(phase):
    """Per leg: median block run, build and teardown CPU, each block scaled
    by the host-speed factor of the segment it ran in."""
    factors = benchlib.segment_factors(phase["index"])
    out = {}
    for leg in phase["legs"]:
        blocks = leg["blocks"]

        def scaled(key):
            return median([b[key] * factors[b["segment"]] for b in blocks])
        run_s = scaled("run_s")
        out[leg["name"]] = {
            "blocks": blocks,
            "run_s": run_s,
            "rate": blocks[0]["actions"] / run_s,
            "ctor_s": scaled("ctor_s"),
            "dtor_s": scaled("dtor_s"),
        }
    return out


def rank_scale(seed, seconds, trace, report):
    pins = load_pins()["rank_scale"]
    out = runner("rank_scale", seed=seed, seconds=seconds, trace=int(trace))
    for phase in ("untraced", "timed"):
        for leg in out.get(phase, {}).get("legs", []):
            fails = ["%s block %d: %s" % (leg["name"], i,
                                           b["error"] or "hash " + b["hash"])
                     for i, b in enumerate(leg["blocks"])
                     if b["error"] or b["hash"] != pins.get(leg["name"])]
            report.ops(len(leg["blocks"]), fails)
    timed = out["timed"]
    legs = leg_summary(timed)
    if not trace:
        report.metric("wall_s", benchlib.normalized_total(timed["index"], "wall"),
                      "s", 1, "timed phase: every block's run and teardown")
        report.metric("cpu_s", benchlib.normalized_total(timed["index"]), "s",
                      1, "process CPU of the timed phase")
        report.metric("cpu_raw_s", sum(timed["index"]["cpu"]), "s", 1,
                      "cpu_s before host-speed scaling")
        setup = out["setup"]
        factors = benchlib.segment_factors(setup["index"])
        builds = [median([t * factors[k] for t, k in zip(leg["build_s"],
                                                      leg["segment"])])
                  for leg in setup["legs"]]
        report.metric("setup_s", sum(builds), "s",
                      sum(len(leg["build_s"]) for leg in setup["legs"]),
                      "sum over legs of the median System build")
        report.metric("peak_rss_mb", out["peak_rss_mb"], "MB", 1)
        for name, key in (("actions_per_s_4k", "r4096"),
                          ("actions_per_s_64k", "r65536")):
            report.metric(name, legs[key]["rate"], "actions/s",
                          len(legs[key]["blocks"]),
                          "%s actions per CPU-second, median block" % key)
        return
    for name, leg in legs.items():
        b0 = leg["blocks"][0]
        report.metric("sim.events." + name, b0["events"], "count", 1)
        report.metric("sim.cancelled." + name, b0["cancelled"], "count", 1)
        report.metric("sim.slab_slots." + name, b0["slab_slots"], "count", 1)
        report.metric("sim.ns_per_event." + name,
                      leg["run_s"] * 1e9 / b0["events"], "ns",
                      len(leg["blocks"]))
        report.metric("transport.messages." + name, b0["messages"], "count", 1)
        report.metric("transport.pool_peak_live." + name, b0["pool_peak_live"],
                      "count", 1)
        report.metric("transport.ns_per_message." + name,
                      leg["run_s"] * 1e9 / b0["messages"], "ns",
                      len(leg["blocks"]))
        report.metric("system.ctor_ms." + name, leg["ctor_s"] * 1e3, "ms",
                      len(leg["blocks"]))
        report.metric("system.dtor_ms." + name, leg["dtor_s"] * 1e3, "ms",
                      len(leg["blocks"]))
        report.metric("mpi.actions_per_s." + name, leg["rate"], "actions/s",
                      len(leg["blocks"]))
        report.metric("mpi.peak_program_actions." + name,
                      b0["peak_program_actions"], "count", 1)
    for big in ("r4096", "r65536"):
        report.metric("flatness.%s_over_r16" % big,
                      legs[big]["rate"] / legs["r16"]["rate"], "ratio", 2)
    spans_report(report, out["spans"],
                 benchlib.normalized_total(timed["index"], "wall") -
                 benchlib.normalized_total(out["untraced"]["index"], "wall"))
    return out["spans"]


# --- serve_mixed -------------------------------------------------------------


class Daemon:
    """`smilab serve` as a child process on an abstract Unix socket."""

    def __init__(self, tag):
        self.socket = "@smilab-perfbench-%d-%s" % (os.getpid(), tag)
        self.proc = subprocess.Popen(
            [SMILAB, "serve", "--workers=%d" % benchlib.SERVE_WORKERS,
             "--cache-mb=%g" % benchlib.SERVE_CACHE_MB,
             "--socket=" + self.socket],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError("smilab serve did not start: %r" % line)

    def warm(self, lines):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect("\0" + self.socket[1:])
        reader = conn.makefile("r")
        try:
            for line in lines:
                conn.sendall((line + "\n").encode())
                reply = reader.readline()
                if not reply.startswith('{"ok":true'):
                    raise BenchError("warm-up request failed: " + reply)
        finally:
            reader.close()
            conn.close()

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_warm_daemon(tag, warmup):
    """Launch and warm a daemon. Set-up time is the daemon's CPU from launch
    to the end of warm-up, scaled by host-speed samples taken around it."""
    before = runner("host_index")["ref"]
    daemon = Daemon(tag)
    try:
        daemon.warm(warmup)
        setup_cpu = daemon.cpu_s()
        after = runner("host_index")["ref"]
    except BaseException:
        daemon.stop()
        raise
    return daemon, setup_cpu * benchlib.sample_factor(before + after)


def serve_stream(daemon, schedule_path, warmup_path, trace):
    cpu0 = daemon.cpu_s()
    out = runner("serve_client", socket=daemon.socket, schedule=schedule_path,
                 warmup=warmup_path, trace=int(trace))
    out["daemon_cpu_raw_s"] = daemon.cpu_s() - cpu0
    out["host_factor"] = benchlib.sample_factor(out["host_ref"])
    out["daemon_cpu_s"] = out["daemon_cpu_raw_s"] * out["host_factor"]
    out["daemon_rss_mb"] = daemon.peak_rss_mb()
    return out


def serve_checks(report, out):
    fails = []
    for i, r in enumerate(out["requests"]):
        if not benchlib.request_ok(r):
            fails.append("request %d (%s): ok=%s key_match=%s bytes_match=%s %s"
                         % (i, r["kind"], r["ok"], r["key_match"],
                            r["bytes_match"], r.get("error", "")))
    report.ops(len(out["requests"]), fails)


def serve_mixed(seed, seconds, trace, report):
    timed, warmup = benchlib.serve_schedule(seed, seconds)
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    schedule_path = os.path.join(BUILD, "runs", "serve-%d.schedule" % seed)
    warmup_path = os.path.join(BUILD, "runs", "serve-%d.warmup" % seed)
    with open(schedule_path, "w") as f:
        f.writelines("%d\t%s\n" % item for item in timed)
    with open(warmup_path, "w") as f:
        f.writelines("0\t%s\n" % line for line in warmup)

    setups = []
    runs = {}
    # Untraced: several set-ups; the last daemon serves the timed stream.
    # Traced: the same stream untraced, then traced, each on a fresh daemon.
    streams = [None] * (SERVE_SETUPS - 1) + ["untraced"]
    if trace:
        streams = ["untraced", "traced"]
    for k, stream in enumerate(streams):
        daemon, setup_s = start_warm_daemon(k, warmup)
        try:
            setups.append(setup_s)
            if stream is not None:
                runs[stream] = serve_stream(daemon, schedule_path, warmup_path,
                                            stream == "traced")
        finally:
            daemon.stop()
    for out in runs.values():
        serve_checks(report, out)

    out = runs["traced" if trace else "untraced"]
    reqs = out["requests"]
    lat = benchlib.latencies_ms(reqs)
    if not trace:
        benchlib.check_tail(len(lat), 99)
        busy_s = benchlib.busy_s(reqs)
        report.metric("wall_s", busy_s * out["host_factor"], "s", len(reqs),
                      "daemon busy time: some request outstanding")
        report.metric("wall_raw_s", busy_s, "s", len(reqs),
                      "wall_s before host-speed scaling")
        report.metric("cpu_s", out["daemon_cpu_s"], "s", 1,
                      "daemon user+sys CPU over the stream")
        report.metric("cpu_raw_s", out["daemon_cpu_raw_s"], "s", 1,
                      "cpu_s before host-speed scaling")
        report.metric("setup_s", median(setups), "s", len(setups),
                      "daemon CPU from launch through warm-up, median of "
                      "daemons")
        report.metric("peak_rss_mb", out["daemon_rss_mb"], "MB", 1, "daemon")
        stats = {k: out["stats_after"][k] - out["stats_before"][k]
                 for k in ("simulations", "coalesced", "cache_evictions")}
        report.metric("simulations", stats["simulations"], "count", 1,
                      "coalesced %d, evictions %d" % (stats["coalesced"],
                                                      stats["cache_evictions"]))
        report.metric("p50_ms", benchlib.percentile(lat, 50), "ms", len(lat))
        report.metric("p99_ms", benchlib.percentile(lat, 99), "ms", len(lat),
                      "%d samples beyond" % benchlib.samples_beyond(len(lat), 99))
        report.metric("goodput_rps",
                      benchlib.goodput_rps(reqs, benchlib.GOODPUT_LIMIT_MS,
                                           seconds),
                      "1/s", len(reqs),
                      "ok within %g ms per second of schedule"
                      % benchlib.GOODPUT_LIMIT_MS)
        return

    solo = {s["key"]: s for s in out["solo"]}
    bad_payload = sorted(s["key"] for s in out["solo"] if not s["match"])
    report.ops(len(out["solo"]), ["payload of key %s differs from "
                                  "run_experiment_payload" % k
                                  for k in bad_payload])
    before, after = out["stats_before"], out["stats_after"]
    delta = {k: after[k] - before[k] for k in after if isinstance(after[k], int)}
    classes = benchlib.response_classes(reqs)
    hits = [ms for c, ms in zip(classes, lat) if c == "hit"]
    idle_hits = [ms for r, c, ms in zip(reqs, classes, lat)
                 if c == "hit" and r["ahead"] == 0]
    waits = [ms for c, ms in zip(classes, lat) if c == "coalesced"]
    misses = [ms for c, ms in zip(classes, lat) if c == "miss"]
    miss_solo = [solo[r["key"]]["ms"] for r, c in zip(reqs, classes)
                 if c == "miss"]
    report.metric("serve.parse_us", out["parse_us"], "us", len(reqs))
    report.metric("serve.key_ns", out["key_ns"], "ns", len(reqs))
    report.metric("serve.hit_rate", delta["cache_hits"] / delta["requests"],
                  "ratio", delta["requests"])
    report.metric("serve.evictions", delta["cache_evictions"], "count", 1)
    report.metric("serve.coalesced", delta["coalesced"], "count", 1)
    report.metric("serve.simulations", delta["simulations"], "count", 1)
    report.metric("serve.inproc_hit_us", out["inproc_hit_us"], "us", 2000)
    report.metric("serve.hit_p50_us", benchlib.percentile(hits, 50) * 1e3,
                  "us", len(hits), "hits; single-flight waits left out")
    report.metric("serve.hit_p99_us", benchlib.percentile(hits, 99) * 1e3,
                  "us", len(hits), "%d hits sent behind another request"
                  % (len(hits) - len(idle_hits)))
    idle_p50 = benchlib.percentile(idle_hits, 50) * 1e3
    report.metric("serve.idle_hit_p99_us",
                  benchlib.percentile(idle_hits, 99) * 1e3, "us",
                  len(idle_hits), "hits sent on a connection with nothing "
                  "outstanding")
    report.metric("serve.socket_us", idle_p50 - out["inproc_hit_us"], "us",
                  len(idle_hits), "idle-connection hit p50 - in-process hit")
    report.metric("serve.coalesced_wait_ms",
                  median(waits) if waits else 0.0, "ms", len(waits),
                  "cached responses sent before their key had a response")
    report.metric("sweep.pool_util",
                  sum(miss_solo) / 1e3 / (benchlib.SERVE_WORKERS * seconds),
                  "ratio", len(miss_solo))
    report.metric("serve.queue_p99_ms",
                  benchlib.percentile([ms - s for ms, s in
                                       zip(misses, miss_solo)], 99),
                  "ms", len(misses))
    for kind in ("ring", "nas", "convolve", "unixbench"):
        costs = [s["ms"] for s in out["solo"] if s["kind"] == kind]
        report.metric("serve.sim_ms." + kind, median(costs), "ms", len(costs))
    report.metric("serve.miss_p50_ms",
                  benchlib.percentile(misses, 50), "ms",
                  len(misses))
    report.metric("loadgen.late_p99_ms",
                  benchlib.percentile(benchlib.lateness_ms(reqs), 99), "ms",
                  len(reqs))
    report.metric("loadgen.sent", sum(1 for r in reqs if r["sent_ns"] >= 0),
                  "count", len(reqs))
    spans_report(report, out["spans"],
                 benchlib.busy_s(reqs) -
                 benchlib.busy_s(runs["untraced"]["requests"]))
    return out["spans"]


# --- main --------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    report = Report(args.workload, args.seed)
    workload = {"paper_quick": paper_quick, "rank_scale": rank_scale,
                "serve_mixed": serve_mixed}[args.workload]
    try:
        spans = workload(args.seed, args.seconds, bool(args.trace), report)
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: %s failed: %s" % (args.workload, e))
        return 1
    runs_dir = os.path.join(BUILD, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    if args.trace:
        zero_fill(report, [(m["name"], m["unit"]) for m in wanted])
        trace_path = os.path.join(runs_dir, "trace-%s-%d.json"
                                  % (args.workload, args.seed))
        with open(trace_path, "w") as f:
            json.dump(spans, f)
    report.print("traced pass, spans in " + os.path.relpath(trace_path, ROOT)
                 if args.trace else "untraced")
    # Every metric of the report, for perfbench/selfcheck.py.
    with open(os.path.join(runs_dir, "result-%s-%d-%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "attempted": report.attempted, "failed": report.failed,
                   "metrics": {name: {"value": value, "unit": unit,
                                      "samples": samples}
                               for name, value, unit, samples, _ in report.rows}},
                  f)
    metrics = {m["name"]: report.metrics[m["name"]] for m in wanted}
    print(json.dumps({"correct": report.failed == 0,
                      "attempted": report.attempted,
                      "failed": report.failed,
                      "metrics": metrics}))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
