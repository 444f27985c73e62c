"""Arithmetic, inputs and checks of the smilab benchmark.

perfbench/run.py measures through perfbench_runner and the `smilab serve`
daemon; everything it computes from the raw figures lives here so that
perfbench/tests/test_benchlib.py can test it without a build.
"""

import math
import random
import statistics
from statistics import median

# --- percentiles -------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def check_tail(n, p=99, needed=10):
    """A percentile is reported only when at least `needed` samples lie
    beyond it; otherwise the run was too short to resolve it."""
    if samples_beyond(n, p) < needed:
        raise ValueError(f"p{p} of {n} samples has only {samples_beyond(n, p)} "
                         f"beyond it (need {needed})")


def spread(values):
    """Interquartile distance as a share of the median, as the acceptance
    check computes it (statistics.quantiles, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# --- host-speed normalization -------------------------------------------------

# CPU seconds of one warm run of the reference loop (perfbench/src/main.cpp,
# heap and hash-map churn over a few MB), typical of the 4-vCPU development
# VM. Scaled figures read as seconds at that host speed.
REF_NOMINAL_S = 0.010


def segment_factors(index, window=2):
    """Speed factor of each measured segment of a HostIndex record: nominal
    over the median of the `window` reference samples on each side of it.
    One sample is noisy; the host's speed moves over seconds."""
    samples = index["ref"]
    factors = []
    for k in range(len(index["cpu"])):
        around = samples[max(0, k + 1 - window):k + 1 + window]
        factors.append(REF_NOMINAL_S / median(around))
    return factors


def normalized_total(index, key="cpu"):
    """Segment CPU (or wall) seconds, each scaled by its speed factor."""
    return sum(t * f for t, f in zip(index[key], segment_factors(index)))


def sample_factor(samples):
    """Speed factor from reference samples taken alongside some work."""
    return REF_NOMINAL_S / median(samples)


# --- spans -------------------------------------------------------------------


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover (children may nest, overlap one another, or run past
    their parent; only the covered part of the parent counts)."""
    children = {}
    for i, s in enumerate(spans):
        if s["p"] >= 0:
            children.setdefault(s["p"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = []
        for c in children.get(i, []):
            start = max(spans[c]["s"], s["s"])
            end = min(spans[c]["e"], s["e"])
            if end > start:
                clipped.append((start, end))
        out.append((s["e"] - s["s"]) - union_length(clipped))
    return out


# Which layer each span name belongs to (the module the call enters).
# Grouping spans belong to the harness: their self time is the benchmark's
# own loop and its host-speed reference samples.
SPAN_LAYERS = {
    "paper_quick.setup": "harness",
    "paper_quick.pass": "harness",
    "rank_scale.pass": "harness",
    "leg.r16": "harness",
    "leg.r4096": "harness",
    "leg.a4096": "harness",
    "leg.r65536": "harness",
    "cache.replay": "harness",
    "cache_unfriendly_workload": "cache",
    "cache_friendly_workload": "cache",
    "nas.calibrate": "harness",
    "calibrate_nas_knob": "nas.calibration",
    "nas.tables": "harness",
    "build_nas_table": "nas.sims",
    "build_htt_table": "nas.sims",
    "convolve.grid": "harness",
    "run_convolve_sim": "convolve",
    "unixbench.grid": "harness",
    "run_unixbench": "unixbench",
    "System::System": "system",
    "System::~System": "system",
    "run_mpi_job_streaming": "sim_transport_mpi",
    "serve.stream": "loadgen.idle",
    "request": "serve.daemon",
    "warmup": "harness",
    "wire.request": "harness",
    "parse_request_line": "serve.wire",
    "canonical_key": "serve.wire",
    "serve.inproc": "harness",
    "serve_line": "serve.cache",
    "miss_path": "harness",
    "run_experiment_payload": "serve.miss_path",
}

LAYERS = sorted(set(SPAN_LAYERS.values()))


def layer_self_seconds(spans):
    """Self time per layer in seconds (unknown span names are an error)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        totals[SPAN_LAYERS[s["n"]]] += t / 1e9
    return totals


# --- serve_mixed inputs ------------------------------------------------------

# Seeds above this are reserved for warm-up requests, so no warm-up key can
# equal a key of the timed stream.
WARMUP_SEED = 4_000_000_000


def _ring(nodes, iters, seed):
    return ('{"experiment":"ring","nodes":%d,"iters":%d,"smi":"long",'
            '"gap_ms":250,"seed":%d}' % (nodes, iters, seed))


def _nas(workload, nodes, trials, seed):
    return ('{"experiment":"nas","workload":"%s","class":"A","nodes":%d,'
            '"trials":%d,"seed":%d}' % (workload, nodes, trials, seed))


def _convolve(case, cpus, gap, seed):
    return ('{"experiment":"convolve","case":"%s","cpus":%d,"gap_ms":%d,'
            '"seed":%d}' % (case, cpus, gap, seed))


def _unixbench(cpus, gap, seed):
    return ('{"experiment":"unixbench","cpus":%d,"gap_ms":%d,"seed":%d}'
            % (cpus, gap, seed))


# Parameter shapes, one cycle per kind. Every shape is a valid request whose
# solo cost stays under the goodput limit; NAS is class A on at most 4 nodes.
RING_SHAPES = [(n, it) for n in (2, 3, 4, 6, 8) for it in (100, 300)]
NAS_SHAPES = [("ep", 1, 1), ("ep", 2, 2), ("ep", 4, 1), ("bt", 1, 1),
              ("bt", 4, 1), ("ft", 1, 1), ("ft", 2, 1), ("ft", 4, 1)]
CONVOLVE_SHAPES = [(case, cpus, gap) for case in ("cf", "cu")
                   for cpus in (1, 2, 4, 8) for gap in (100, 600)]
UNIXBENCH_SHAPES = [(cpus, gap) for cpus in (2, 4, 8) for gap in (100, 600)]


def _shaped(kind, shape, seed):
    if kind == "ring":
        return _ring(shape[0], shape[1], seed)
    if kind == "nas":
        return _nas(shape[0], shape[1], shape[2], seed)
    if kind == "convolve":
        return _convolve(shape[0], shape[1], shape[2], seed)
    return _unixbench(shape[0], shape[1], seed)


SHAPES = {"ring": RING_SHAPES, "nas": NAS_SHAPES, "convolve": CONVOLVE_SHAPES,
          "unixbench": UNIXBENCH_SHAPES}

# The mix is bench/serve_loadgen's mixed phase, the repository's committed
# assumption about the daemon's steady state (BENCH_serve.json, hit rate
# 0.75): 75% of requests repeat a key of a hot set of 32, chosen uniformly,
# and 25% are fresh keys. Both spread evenly over the four kinds. One repeat
# a second is instead a double submit: a fresh key sent again 1 ms after
# its first send, so single flight coalesces it. The rate is the lowest that
# gives 1000 requests in 10 s; the daemon then spends about 7 CPU-seconds
# per 10-second stream, a third of its two workers. Half busy (about 140
# requests/s) puts p50 at the edge of the fast responses (see NOTES.md,
# finding (d)).
SERVE_HOT_KEYS = 32
SERVE_REPEAT_SHARE = 0.75
SERVE_DOUBLE_SUBMITS_PER_S = 1
SERVE_REQUESTS_PER_S = 100
SERVE_WORKERS = 2
SERVE_CACHE_MB = 0.05
GOODPUT_LIMIT_MS = 1000.0


def serve_schedule(seed, seconds):
    """The timed request stream and the warm-up requests for `seed`.

    Returns (timed, warmup): timed is a list of (offset_ns, line) sorted by
    offset, an open-loop Poisson stream conditioned on its request count
    (arrival times are sorted uniform draws over the window); warmup lists
    one request per NAS cell shape and Convolve case, with reserved seeds,
    to fill the daemon's calibration and cache-replay memos.

    The seed draws the keys' request seeds, which repeat goes to which hot
    key, which fresh keys are submitted twice, and the arrival times. The
    fresh share is exact and the shapes cycle in a fixed order, so every
    seed simulates the same amount of work.
    """
    rng = random.Random(seed)
    total = round(SERVE_REQUESTS_PER_S * seconds)
    fresh = round(total * (1 - SERVE_REPEAT_SHARE))
    doubles = round(SERVE_DOUBLE_SUBMITS_PER_S * seconds)
    kinds = list(SHAPES)

    def key(i):
        kind = kinds[i % len(kinds)]
        shapes = SHAPES[kind]
        return _shaped(kind, shapes[i // len(kinds) % len(shapes)],
                       rng.randrange(1, WARMUP_SEED))

    hot = [key(i) for i in range(SERVE_HOT_KEYS)]
    fresh_lines = [key(i) for i in range(fresh)]
    lines = fresh_lines + [rng.choice(hot)
                           for _ in range(total - fresh - doubles)]
    rng.shuffle(lines)
    window_ns = int(seconds * 1e9)
    times = sorted(rng.randrange(window_ns) for _ in lines)
    timed = list(zip(times, lines))
    first = {line: t for t, line in reversed(timed)}
    timed += [(first[line] + 1_000_000, line)
              for line in rng.sample(fresh_lines, doubles)]
    timed.sort(key=lambda item: item[0])

    warmup = [_nas(w, n, 1, WARMUP_SEED) for (w, n, _) in NAS_SHAPES]
    warmup += [_convolve(case, 8, 1000, WARMUP_SEED) for case in ("cf", "cu")]
    return timed, warmup


# --- serve_mixed metrics -----------------------------------------------------


def latencies_ms(requests):
    """Latency from the scheduled send to the full response line."""
    return [(r["recv_ns"] - r["sched_ns"]) / 1e6 for r in requests]


def busy_s(requests):
    """Wall time during which at least one request was outstanding (from its
    scheduled send to its response): the daemon's busy time over the
    stream. Unlike the stream's length, the daemon's speed sets it."""
    return union_length([(r["sched_ns"], r["recv_ns"]) for r in requests]) / 1e9


def lateness_ms(requests):
    """How late the generator sent each request against its schedule."""
    return [(r["sent_ns"] - r["sched_ns"]) / 1e6 for r in requests]


def response_classes(requests):
    """Each response's path through the daemon: "miss" (it simulated),
    "hit" (a cached response to a request sent after an earlier response
    for its key had arrived), or "coalesced" (cached, but sent while its key
    had no response yet: it waited on single flight for another request's
    simulation, which the daemon also reports as cached)."""
    first_recv = {}
    for r in requests:
        first_recv[r["key"]] = min(first_recv.get(r["key"], r["recv_ns"]),
                                   r["recv_ns"])
    return ["miss" if not r["cached"] else
            "hit" if first_recv[r["key"]] <= r["sent_ns"] else "coalesced"
            for r in requests]


def request_ok(r):
    return r["ok"] and r["key_match"] and r["bytes_match"]


def goodput_rps(requests, limit_ms, window_s):
    """Correct responses within the latency limit per second of schedule. A
    failed or refused request counts as over the limit."""
    good = sum(1 for r, ms in zip(requests, latencies_ms(requests))
               if request_ok(r) and ms <= limit_ms)
    return good / window_s


# --- output checks -----------------------------------------------------------


def digest_failures(pinned, measured):
    """Artifacts whose digest differs from the pin (a missing pin or a
    missing artifact is a mismatch too). Returns the failing names."""
    names = set(pinned) | set(measured)
    return sorted(n for n in names if pinned.get(n) != measured.get(n))
