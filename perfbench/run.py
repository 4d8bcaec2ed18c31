#!/usr/bin/env python3
"""End-to-end benchmark of rcons.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds rcons_cli (and, for traced runs,
perfbench_layers) in .bench_build/, runs one workload for S seconds and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402

BUILD = os.path.join(".bench_build", "perfbench")
CLI = os.path.join(BUILD, "rcons", "tools", "rcons_cli")
TRACED_CLI = os.path.join(BUILD, "layers", "rcons_cli_traced")
SPAWN = os.path.join(BUILD, "layers", "perfbench_spawn")
CHILD_TIMEOUT = 150  # seconds any one rcons process may run
SCRATCH = os.path.join(".bench_build", "perfbench-tmp")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))

# The three pinned settings; every other flag keeps its default.
PINNED = ["--threads=1", "--cache=off"]

HUNT_ARGS = ["--max-values=3", "--max-ops=2", "--max-responses=2",
             "--max-n=3"]
VERIFY_SPECS = ["recording cas3 3", "recording x4 2", "tnn 6 3 3",
                "tnn 6 3 4", "tnn 6 3 5", "tnnwf 6 3", "tnnwf 7 3", "tas",
                "cas 4"]
COLD_STARTS_PER_REP = 5
TRACE_PAIRS = 5  # traced/untraced pairs in a traced run

SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_SEGMENTS = 16  # a round is timed in this many runs of answers
SERVE_PROFILE_TARGETS = sorted(oracles.CATALOG_LEVELS)
SERVE_VERIFY_SPECS = ["cas 3", "tas"]


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build(trace):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of an rcons checkout "
                         "(no CMakeLists.txt or src/ here)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    rcons_dir = os.path.join(BUILD, "rcons")
    layers_dir = os.path.join(BUILD, "layers")
    # The traced program is built only for traced runs, so that the timed
    # runs do not depend on the layer wrappers.
    targets = ["perfbench_spawn"] + (["rcons_cli_traced"] if trace else [])
    steps = [
        ["cmake", "-S", ".", "-B", rcons_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", rcons_dir, "-j", JOBS, "--target", "rcons_cli"],
        ["cmake", "-S", "perfbench", "-B", layers_dir,
         "-DCMAKE_BUILD_TYPE=Release",
         "-DRCONS_BUILD_DIR=" + os.path.abspath(rcons_dir)],
        ["cmake", "--build", layers_dir, "-j", JOBS, "--target"] + targets,
    ]
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out) != 0:
                raise BenchError(f"build step failed: {' '.join(step)} "
                                 f"(see {log_path})")


# ---------------------------------------------------------- processes

class Finished:
    def __init__(self, seconds, code, wchar, maxrss_kb):
        self.seconds = seconds
        self.code = code
        self.wchar = wchar
        self.maxrss_kb = maxrss_kb
        self.stdout = ""
        self.layers = None


def spawn(args, workdir, stdout, stderr, env):
    """Starts args through perfbench_spawn, which reports the program's
    own wall time, exit code, wchar and peak RSS; see spawn.cpp for why
    the benchmark does not start it directly."""
    return subprocess.Popen(
        [SPAWN, os.path.join(workdir, "spawn.report"), str(CHILD_TIMEOUT)]
        + args, stdout=stdout, stderr=stderr, env=env)


def finish(proc, workdir):
    """Waits for a spawn()ed program; returns a Finished without stdout."""
    try:
        proc.wait(CHILD_TIMEOUT + 10)
    except subprocess.TimeoutExpired:
        proc.kill()  # its child gets SIGKILL with it
        proc.wait()
        raise BenchError(f"{' '.join(proc.args[3:])} did not end")
    with open(os.path.join(workdir, "spawn.report")) as f:
        seconds, code, wchar, maxrss_kb = f.read().split()
    if float(seconds) >= CHILD_TIMEOUT:
        raise BenchError(f"{' '.join(proc.args[3:])} ran past "
                         f"{CHILD_TIMEOUT} s")
    return Finished(float(seconds), int(code), int(wchar), int(maxrss_kb))


def run_cli(args, workdir, traced=False):
    """Runs rcons_cli (or, traced, rcons_cli_traced) with stdout to a file;
    returns a Finished. A traced run's layer totals land in .layers."""
    out_path = os.path.join(workdir, "stdout")
    layers_path = os.path.join(workdir, "layers.json")
    env = child_env(workdir)
    if traced:
        env["PERFBENCH_LAYERS_OUT"] = layers_path
    with open(out_path, "wb") as out, \
            open(os.path.join(workdir, "stderr"), "wb") as err:
        done = finish(spawn([TRACED_CLI if traced else CLI] + args,
                            workdir, out, err, env), workdir)
    with open(out_path, "rb") as f:
        done.stdout = f.read().decode()
    if traced:
        with open(layers_path) as f:
            done.layers = json.loads(f.read())
    return done


def child_env(workdir):
    env = dict(os.environ)
    # Belt and braces next to --cache=off: nothing may land in $HOME.
    env["HOME"] = workdir
    env["XDG_CACHE_HOME"] = workdir
    return env


class Workdir:
    """A fresh temporary directory inside the checkout."""

    def __enter__(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=SCRATCH)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def cold_start(run):
    """One sample of the program's cold set-up: a fresh process's start to
    its first answer."""
    with Workdir() as wd:
        done = run_cli(["list"], wd)
    if done.code != 0 or "tas" not in done.stdout:
        raise BenchError("rcons_cli list failed")
    run.setup_s.append(done.seconds)


# ------------------------------------------------------------ results

class Run:
    """What a timed run measured.

    Times are reported as the fastest sample of each unit of work over
    the run: one rcons invocation, or on serve one request and one
    sixteenth of a round's answers. A repetition's time is the sum over
    its units. Host contention only ever adds time, and on the shared
    reference host it nearly doubled some single samples: a run's median
    repetition moved by 10-26% (IQR/median) between runs of the same
    code, the sum of its units' fastest samples by 4-7%. See README.md."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.unit_seconds = {}  # unit of work -> its timed samples
        self.requests_per_rep = 1
        self.round_latencies = []  # serve: per round, id -> latency
        self.rss_kb = []
        self.wchar = []
        self.setup_s = []
        self.layers = {}

    def check(self, problems):
        self.problems += problems

    def time_unit(self, unit, seconds):
        self.unit_seconds.setdefault(unit, []).append(seconds)

    def record(self, rss_kb, wchar):
        """One timed repetition's peak RSS and bytes written."""
        self.rss_kb.append(rss_kb)
        self.wchar.append(wchar)

    def fail(self, why):
        """An operation that produced no output to check: counted in
        `failed`; `correct` speaks only of the operations that did not
        fail."""
        self.failed += 1
        log(f"operation failed: {why}")

    def end_to_end(self):
        if not self.unit_seconds or not self.rss_kb:
            raise BenchError("no timed repetition finished")
        for unit, samples in self.unit_seconds.items():
            log(f"{unit}: {len(samples)} samples, fastest {min(samples):.4f} "
                f"s, median {statistics.median(samples):.4f} s")
        rep_s = sum(min(s) for s in self.unit_seconds.values())
        if self.round_latencies:
            # Each request's fastest answer over the rounds; pooled
            # instead, one slow phase of the host filled the whole 1% tail.
            rounds = self.round_latencies
            fastest = sorted(min(r[i] for r in rounds) for i in rounds[0])
            p50 = statistics.median(fastest)
            p99 = fastest[int(0.99 * len(fastest))]
        else:
            # One latency sample per repetition: p99 would be the slowest
            # of a handful, so both read the repetition's time.
            p50 = p99 = rep_s
        return {
            "wall_s": rep_s,
            "peak_rss_mb": statistics.median(self.rss_kb) / 1024.0,
            "written_mb": statistics.median(self.wchar) / 1e6,
            "setup_s": min(self.setup_s),
            "requests_per_s": self.requests_per_rep / rep_s,
            "latency_p50_ms": p50 * 1000.0,
            "latency_p99_ms": p99 * 1000.0,
        }


def repeat_for(seconds, step, minimum=1):
    """Calls step() at least `minimum` times and stops at the boundary
    between calls nearest to `seconds`: a long last call would otherwise
    stretch the run by up to a whole call."""
    start = time.perf_counter()
    count = 0
    while True:
        if count >= minimum:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / count / 2 >= seconds:
                return
        step()
        count += 1


def timed_reps(run, seconds, rep):
    """Runs rep() once untimed, then for about `seconds` (see repeat_for).
    Before each timed repetition it takes a few cold-start samples, so
    that they are spread over the run like serve's daemon starts: taken
    back to back, they all fell in one few-second phase of the host's
    speed, which swung their median by 40% from run to run."""
    rep(warmup=True)

    def step():
        for _ in range(COLD_STARTS_PER_REP):
            cold_start(run)
        rep(warmup=False)

    repeat_for(seconds, step, minimum=3)


# ------------------------------------------------------------- hunt

def hunt_once(run, classes, dbs, traced=False):
    """One `rcons_cli hunt` of the whole box in a fresh directory; checks
    its output. Returns (Finished, summary, counters) or None when it gave
    nothing to check. Traced, it also reads the program's counters."""
    with Workdir() as wd:
        metrics_path = os.path.join(wd, "m.json")
        extra = ["--metrics-out=" + metrics_path] if traced else []
        done = run_cli(["hunt", "--checkpoint-dir=" + wd, "--format=json"]
                       + HUNT_ARGS + PINNED + extra, wd, traced=traced)
        run.attempted += 1
        try:
            summary = json.loads(done.stdout)
            with open(os.path.join(wd, "shard-0-of-1.hunt")) as f:
                db = f.read()
            counters = read_counters(metrics_path) if traced else None
        except (ValueError, OSError) as e:
            run.fail(f"hunt produced no readable output: {e}")
            return None
    if done.code != 0:
        run.check([f"hunt exited {done.code}"])
    if not dbs:
        run.check(oracles.check_hunt(summary, db, classes))
    dbs.append(db)
    return done, summary, counters


def hunt_rep(run, classes, dbs, warmup):
    result = hunt_once(run, classes, dbs)
    if result and not warmup:
        done = result[0]
        run.time_unit("hunt", done.seconds)
        run.record(done.maxrss_kb, done.wchar)


HUNT_LAYERS = ("walk", "canon", "bounds", "discerning", "recording",
               "checkpoint")


def workload_hunt(run, seed, seconds, trace):
    classes = oracles.count_classes(oracles.HUNT_BOX)
    dbs = []
    if not trace:
        timed_reps(run, seconds,
                   lambda warmup: hunt_rep(run, classes, dbs, warmup))
        run.check(oracles.check_identical(dbs, "hunt database"))
        return
    # Traced and untraced hunts alternate, so that a phase of the host's
    # speed falls on both; the layer sum is compared with the untraced wall
    # time of the same pair, and the median pair decides.
    hunt_once(run, classes, dbs)
    pairs = []
    for _ in range(TRACE_PAIRS):
        traced = hunt_once(run, classes, dbs, traced=True)
        untraced = hunt_once(run, classes, dbs)
        if traced and untraced:
            done, summary, counters = traced
            run.check(oracles.check_hunt_layers(summary, done.layers,
                                                counters))
            pairs.append((done, untraced[0].seconds, counters, summary))
    run.check(oracles.check_identical(dbs, "traced and untraced hunt "
                                           "database"))
    if not pairs:
        raise BenchError("no traced hunt finished")
    layers = median_layers([done.layers for done, *_ in pairs])
    layer_sum = [sum(done.layers[f"{p}_s"] for p in HUNT_LAYERS)
                 for done, *_ in pairs]
    untraced_s = [u for _, u, *_ in pairs]
    ratios = [t / u for t, u in zip(layer_sum, untraced_s)]
    run.check(oracles.check_layer_sum(ratios, "hunt"))
    counters, summary = pairs[0][2], pairs[0][3]
    run.layers.update({
        "campaign.walk_s": layers["walk_s"],
        "campaign.genomes": layers["genomes"],
        "reduction.canon_s": layers["canon_s"],
        "reduction.canon_calls": layers["canon_calls"],
        "reduction.distinct_per_canon":
            summary["profiled"] / layers["canon_calls"],
        "campaign.checkpoint_s": layers["checkpoint_s"],
        "campaign.checkpoint_writes": layers["checkpoint_calls"],
        "campaign.checkpoint_mb": layers["checkpoint_bytes"] / 1e6,
        "analysis.bounds_s": layers["bounds_s"],
        "analysis.bounds_analyses": counters.get("bounds.analyses", 0),
        "analysis.decider_runs": counters.get("bounds.decider_runs", 0),
        "hierarchy.discerning_s": layers["discerning_s"],
        "hierarchy.recording_s": layers["recording_s"],
        "hierarchy.decider_calls":
            layers["discerning_calls"] + layers["recording_calls"],
    })
    set_trace_overhead(run, statistics.median(layer_sum),
                       [done.seconds for done, *_ in pairs], untraced_s)


# ----------------------------------------------------------- verify

def verify_rep(run, documents, warmup, backend_flags=(), traced=False):
    """One repetition verifies every protocol, one process each. It is the
    operation a user waits for, so it gives one latency sample: the median
    over nine unlike protocols would only be whichever is fifth-fastest.
    Each protocol is a unit of work with its own timed samples. Returns
    the repetition's wall time and, traced, its summed layers."""
    total, rss_kb, wchar = 0.0, 0, 0
    layers = {}
    for spec in VERIFY_SPECS:
        with Workdir() as wd:
            done = run_cli(["verify"] + spec.split() + ["--format=json"]
                           + PINNED + list(backend_flags), wd, traced=traced)
        run.attempted += 1
        try:
            document = json.loads(done.stdout)
        except ValueError:
            run.fail(f"verify {spec} printed no JSON (exit {done.code})")
            continue
        run.check(oracles.check_verify(spec, document, done.code))
        if traced:
            run.check(oracles.check_verify_layers(done.layers, [document]))
            for key, value in done.layers.items():
                layers[key] = layers.get(key, 0) + value
        documents.setdefault(spec, document)
        if not warmup:
            run.time_unit(spec, done.seconds)
        total += done.seconds
        rss_kb = max(rss_kb, done.maxrss_kb)
        wchar += done.wchar
    if not warmup:
        run.record(rss_kb, wchar)
    return total, layers


def workload_verify(run, seed, seconds, trace):
    if trace:
        verify_rep(run, {}, warmup=True)
        pairs = []
        for _ in range(TRACE_PAIRS):
            traced_s, layers = verify_rep(run, {}, warmup=True, traced=True)
            untraced_s, _ = verify_rep(run, {}, warmup=True)
            pairs.append((traced_s, layers, untraced_s))
        layers = median_layers([layers for _, layers, _ in pairs])
        run.layers.update({
            "valency.safety_s": layers["safety_s"],
            "valency.liveness_s": layers["liveness_s"],
            "valency.states": layers["states"],
            "valency.states_per_s": layers["states"] / layers["safety_s"],
        })
        set_trace_overhead(
            run, statistics.median(l["safety_s"] + l["liveness_s"]
                                   for _, l, _ in pairs),
            [t for t, _, _ in pairs], [u for _, _, u in pairs])
        return
    timed_reps(run, seconds, lambda warmup: verify_rep(run, {}, warmup))
    # Outside the timed region: the compiled stepper must explore exactly
    # the states the interpreter does, whichever of them is the default.
    interp, aot = {}, {}
    verify_rep(run, interp, warmup=True, backend_flags=["--backend=interp"])
    verify_rep(run, aot, warmup=True, backend_flags=["--backend=aot"])
    for spec in VERIFY_SPECS:
        if spec in interp and spec in aot:
            run.check(oracles.check_backends_agree(spec, interp[spec],
                                                   aot[spec]))


# ------------------------------------------------------------ serve

def serve_mix(seed):
    """The request list of one serve round: (id, request, class key).

    A round is one hunt campaign farmed out to the daemon: every genome of
    box (3,2,2), in the campaign's walk order, as a `hunt` request (47,928
    requests, 2,113 canonical forms, so about 96% repeat a form that came
    earlier). Alongside it the daemon answers one catalog sweep: a
    `profile` of every catalog type at max_n 4 and a `verify` of each
    small protocol. The seed picks where in the walk these nine requests
    fall; the make-up of a round is the same for every seed."""
    rng = random.Random(seed)
    mix = []
    for i, (v, o, r, index, key) in enumerate(walk_genomes()):
        mix.append((f"h{i}", {"id": f"h{i}", "command": "hunt",
                              "max_n": oracles.HUNT_MAX_N,
                              "spec": f"{v} {o} {r} {index}"}, key))
    sweep = [{"command": "profile", "target": target,
              "max_n": oracles.SERVE_PROFILE_MAX_N}
             for target in SERVE_PROFILE_TARGETS]
    sweep += [{"command": "verify", "spec": spec}
              for spec in SERVE_VERIFY_SPECS]
    rng.shuffle(sweep)
    positions = sorted(rng.sample(range(len(mix) + 1), len(sweep)),
                       reverse=True)
    for i, (at, request) in enumerate(zip(positions, sweep)):
        request["id"] = f"c{i}"
        mix.insert(at, (request["id"], request, None))
    return mix


_WALK = []


def walk_genomes():
    """box (3,2,2) in walk order with brute-force classes, computed once."""
    if not _WALK:
        _WALK.extend(oracles.walk(oracles.HUNT_BOX))
    return _WALK


class Daemon:
    """rcons_cli serve on a fresh socket; stopped on every exit path."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.socket_path = os.path.join(workdir, "s.sock")
        self.start = time.perf_counter()
        with open(os.path.join(workdir, "serve.log"), "wb") as log_file:
            self.proc = spawn(
                [CLI, "serve", "--socket=" + self.socket_path,
                 f"--workers={SERVE_WORKERS}"] + PINNED,
                workdir, subprocess.DEVNULL, log_file, child_env(workdir))
        self.finished = None

    def connect(self, deadline_s=30):
        deadline = time.perf_counter() + deadline_s
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.socket_path)
                return s
            except OSError:
                s.close()
                if self.proc.poll() is not None or \
                        time.perf_counter() > deadline:
                    raise BenchError("rcons_cli serve did not come up")
                time.sleep(0.0005)

    def stop(self):
        if self.finished is None:
            self.proc.send_signal(signal.SIGTERM)  # passed on to the daemon
            self.finished = finish(self.proc, self.workdir)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def request_line(request):
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def ask(sock_file, request):
    sock_file.write(request_line(request))
    sock_file.flush()
    return json.loads(sock_file.readline())


def closed_loop(daemon, mix):
    """Sends the mix over SERVE_CLIENTS connections, one request in flight
    per connection. Returns (responses, latencies, marks): latencies maps
    each request's id to its latency, and marks holds the start and the
    time of every SERVE_SEGMENTS-th of the answers, the last one included."""
    sel = selectors.DefaultSelector()
    pending = list(reversed([request for _, request, _ in mix]))
    per_segment = -(-len(mix) // SERVE_SEGMENTS)
    conns = []
    for _ in range(SERVE_CLIENTS):
        s = daemon.connect()
        s.setblocking(False)
        conns.append(s)
        sel.register(s, selectors.EVENT_READ,
                     {"buf": b"", "sent": None, "id": None})
    responses, latencies = [], {}
    marks = [time.perf_counter()]

    def send(s, state):
        if pending:
            request = pending.pop()
            state["id"] = request["id"]
            state["sent"] = time.perf_counter()
            s.setblocking(True)
            s.sendall(request_line(request))
            s.setblocking(False)
            return True
        state["sent"] = None
        return False

    in_flight = 0
    for key in list(sel.get_map().values()):
        in_flight += send(key.fileobj, key.data)
    while in_flight:
        events = sel.select(timeout=60)
        if not events:
            raise BenchError("rcons_cli serve stopped answering")
        for key, _ in events:
            s, state = key.fileobj, key.data
            chunk = s.recv(1 << 16)
            if not chunk:
                raise BenchError("rcons_cli serve closed a connection")
            state["buf"] += chunk
            while b"\n" in state["buf"]:
                line, state["buf"] = state["buf"].split(b"\n", 1)
                if not line.strip():
                    continue
                now = time.perf_counter()
                latencies[state["id"]] = now - state["sent"]
                responses.append(json.loads(line))
                if len(responses) % per_segment == 0 or \
                        len(responses) == len(mix):
                    marks.append(now)
                in_flight -= 1
                in_flight += send(s, state)
    for s in conns:
        sel.unregister(s)
        s.close()
    return responses, latencies, marks


def serve_round(run, mix, trace=False):
    with Workdir() as wd, Daemon(wd) as daemon:
        with daemon.connect() as s, s.makefile("rwb") as f:
            pong = ask(f, {"id": "ping", "command": "ping"})
            ready_s = time.perf_counter() - daemon.start
            if pong.get("result", {}).get("pong") is not True:
                raise BenchError("serve did not answer ping")
        responses, latencies, marks = closed_loop(daemon, mix)
        run.attempted += len(mix)
        run.check(oracles.check_serve(mix, responses))
        extra = None
        if trace:
            with daemon.connect() as s, s.makefile("rwb") as f:
                metrics = ask(f, {"id": "m", "command": "metrics"})["result"]
                spans = ask(f, {"id": "s", "command": "spans"})["result"]
            extra = (metrics, spans, list(latencies.values()))
        daemon.stop()
        done = daemon.finished
        if done.code != 0:
            run.check([f"serve exited {done.code} on SIGTERM"])
    run.setup_s.append(ready_s)
    # Every round sends the same requests in the same order, so the k-th
    # segment of answers, and each request, is one unit of work.
    for k in range(len(marks) - 1):
        run.time_unit(("segment", k), marks[k + 1] - marks[k])
    run.requests_per_rep = len(mix)
    run.round_latencies.append(latencies)
    run.record(done.maxrss_kb, done.wchar)
    return extra


def workload_serve(run, seed, seconds, trace):
    mix = serve_mix(seed)
    if trace:
        metrics, spans, latencies = serve_round(run, mix, trace=True)
        service = sorted(s["dur"] / 1000.0 for s in spans
                         if s["name"] in ("serve.hunt", "serve.profile",
                                          "serve.verify"))
        counters = metrics.get("counters", {})
        hits = counters.get("cache.mem_hits", 0)
        misses = counters.get("cache.mem_misses", 0)
        p50 = statistics.median(service)
        run.layers.update({
            "serve.service_ms_p50": p50,
            "serve.wait_ms_p50": statistics.median(latencies) * 1000.0 - p50,
            "reduction.mem_hit_ratio": hits / max(1, hits + misses),
            "serve.singleflight_joined":
                counters.get("serve.singleflight.joined", 0),
        })
        return
    repeat_for(seconds, lambda: serve_round(run, mix))


# ----------------------------------------------------------- traced

def read_counters(path):
    with open(path) as f:
        return json.load(f).get("counters", {})


def median_layers(totals):
    """Per key, the median over several traced processes' layer totals."""
    return {key: statistics.median(t[key] for t in totals)
            for key in totals[0]}


def set_trace_overhead(run, layer_sum_s, traced_s, untraced_s):
    """traced_s and untraced_s: the wall times of alternating traced and
    untraced runs of the same work, pair by pair."""
    run.layers["trace.layer_sum_s"] = layer_sum_s
    run.layers["trace.untraced_s"] = statistics.median(untraced_s)
    run.layers["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_s, untraced_s)) - 1.0


WORKLOADS = {
    "hunt-box322": workload_hunt,
    "verify-paper": workload_verify,
    "serve-mixed": workload_serve,
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed wants >= 0 and --seconds > 0")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        build(args.trace == 1)
        run = Run()
        WORKLOADS[args.workload](run, args.seed, args.seconds,
                                 args.trace == 1)
        # Every metric BENCHMARK.json declares, with its unit; a layer the
        # traced workload does not reach reads 0.
        if args.trace:
            declared, values = spec["per_layer"], run.layers
        else:
            declared, values = spec["end_to_end"], run.end_to_end()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    for problem in run.problems:
        log(f"check failed: {problem}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
