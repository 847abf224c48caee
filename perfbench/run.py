#!/usr/bin/env python3
"""The repository's benchmark: cold, served and routed allocation, measured
end to end (--trace 0) and by layer (--trace 1).

    python3 perfbench/run.py --workload cold_lj --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It builds perfbench/ (the library,
tirm_server, tirm_data and perfbench_tool) with CMake into
$CARGO_TARGET_DIR (default .bench_build), makes every input from the seed,
measures, checks the outputs, and prints one JSON object as the last line
of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Everything else goes to stderr. Workloads, metrics and the layer map are
documented in perfbench/README.md.
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_lib as lib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = 4  # load budget: sampling threads, server workers and connections

# Allocator baseline shared by every workload (server flags, tool flags).
CONFIG = ["--eps=0.2", "--theta_cap=65536", "--eval_sims=2000", "--seed=2015"]
DATA_SEED = 2015

# The served/routed TIRM grid (lambda x kappa x budget_scale) and the
# baseline minority mixed into serve_dblp.
GRID = [{"allocator": "tirm", "query": {"kappa": k, "lambda": lam,
                                        "budget_scale": b}}
        for lam in (0.0, 0.05, 0.1) for k in (1, 2) for b in (0.8, 1.0)]
BASELINES = [{"allocator": "greedy-irie", "query": {"kappa": 1, "lambda": 0.0,
                                                    "budget_scale": 1.0}},
             {"allocator": "myopic+", "query": {"kappa": 1, "lambda": 0.0,
                                                "budget_scale": 1.0}}]

# serve_dblp load: two fixed rates, then a goodput search above them that
# climbs by CLIMB per STEP_S step until one fails and then bisects three
# times, so goodput is known to within 1.5 ** (1 / 8), about 5%.
RATE_LO = 5.0
RATE_HI = 8.0
CLIMB = 1.5
BISECTIONS = 3
TOP_RATE = 64.0
STEP_S = 3.0
LATENCY_LIMIT_MS = 2000.0
# Gaps between sends are uniform within +-JITTER of the mean: open loop and
# seeded, without the bursts of a Poisson process that make a short phase's
# tail depend more on the draw than on the server.
JITTER = 0.2
VERIFY_SAMPLE = 6          # served responses re-run in-process
LATE_LIMIT_MS = 25.0       # generator p99 lateness above this: run invalid

# Timings come from operations (cold_lj) or request cycles (router_k4) that
# ran under at most this share of CPU steal, and never from fewer than the
# quietest half of them.
STEAL_LIMIT = 0.02


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures and builds perfbench/ into $CARGO_TARGET_DIR."""
    for needed in ("CMakeLists.txt", "src", "cli"):
        if not (ROOT / needed).exists():
            raise SystemExit(f"perfbench: {ROOT / needed} is missing; run "
                             "from the root of a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    out = target / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(NPROC),
                    "--target", "perfbench_tool", "tirm_server", "tirm_data"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return {"tool": out / "perfbench_tool",
            "server": out / "tirm" / "cli" / "tirm_server",
            "data": out / "tirm" / "cli" / "tirm_data"}


# ------------------------------------------------------------ processes

def vm_hwm_mb(pid="self"):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_times():
    """(steal, total) jiffies of the machine, from /proc/stat. Steal is
    CPU time the hypervisor gave to other guests."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Procs:
    """Every process the benchmark starts; stop_all() ends and reaps them."""

    def __init__(self, logdir):
        self.logdir = logdir
        self.live = []

    def start(self, argv, name):
        err = open(self.logdir / f"{name}.log", "w")
        p = subprocess.Popen([str(a) for a in argv], stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=err)
        p._log = err
        self.live.append(p)
        return p

    def stop(self, p):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        p._log.close()
        if p in self.live:
            self.live.remove(p)

    def stop_all(self):
        for p in list(self.live):
            self.stop(p)


def wait_port(port, proc, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}")
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                return
        except OSError:
            time.sleep(0.01)
    raise RuntimeError(f"port {port} never opened")


def run_tool(bins, args):
    out = subprocess.run([str(bins["tool"])] + [str(a) for a in args],
                         check=True, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- the wire

class Conn:
    """One TCP connection to tirm_server: sends never wait for responses
    (open loop); a reader thread matches the in-order responses."""

    def __init__(self, port, on_response):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending = deque()
        self.lock = threading.Lock()
        self.on_response = on_response
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def outstanding(self):
        with self.lock:
            return len(self.pending)

    def send(self, line, meta):
        with self.lock:
            self.pending.append(meta)
        self.sock.sendall(line.encode() + b"\n")

    def _read(self):
        f = self.sock.makefile("rb")
        for raw in f:
            now = time.monotonic()
            with self.lock:
                meta = self.pending.popleft()
            self.on_response(meta, raw, now)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.reader.join(timeout=5)


class Client:
    """Up to NPROC connections; records every response."""

    def __init__(self, port, nconn):
        self.records = []
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.conns = [Conn(port, self._record) for _ in range(nconn)]
        self.seq = 0

    def _record(self, meta, raw, now):
        # Parsing waits for parsed(): the reader threads must not hold the
        # interpreter while the generator is due to send.
        rec = dict(meta, recv=now, raw=raw)
        with self.cond:
            self.records.append(rec)
            self.cond.notify_all()

    def parsed(self):
        """Every record so far, with its response decoded into "resp"."""
        with self.cond:
            records = list(self.records)
        for rec in records:
            if "resp" not in rec:
                try:
                    rec["resp"] = json.loads(rec["raw"])
                except ValueError:
                    rec["resp"] = {"ok": False,
                                   "error": {"code": "BadResponse"}}
        return records

    def outstanding(self):
        return sum(c.outstanding() for c in self.conns)

    def send(self, request, due, phase):
        self.seq += 1
        rid = f"{phase}-{self.seq}"
        line = json.dumps(dict(request, id=rid), separators=(",", ":"))
        conn = min(self.conns, key=lambda c: c.outstanding())
        sent = time.monotonic()
        conn.send(line, {"id": rid, "line": line, "due": due, "sent": sent,
                         "phase": phase, "req": request})
        return sent

    def wait_all(self, timeout):
        deadline = time.monotonic() + timeout
        with self.cond:
            while self.seq > len(self.records):
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True

    def close(self):
        for c in self.conns:
            c.close()


def run_phase(client, phase, due_offsets, requests):
    """Sends `requests` at `due_offsets` (seconds from now), open loop.
    Returns (lateness in ms, backlog samples, send times)."""
    t0 = time.monotonic() + 0.005
    lateness, backlog, sent_at = [], [], []
    for offset, request in zip(due_offsets, requests):
        due = t0 + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        backlog.append((offset, client.outstanding()))
        sent = client.send(request, due, phase)
        sent_at.append(sent)
        lateness.append((sent - due) * 1e3)
    return lateness, backlog, sent_at


def phase_stats(records, phase, allocator=None):
    """(records, ok records, latencies from due time in ms) of one phase,
    optionally of one allocator only."""
    recs = [r for r in records if r["phase"] == phase and
            (allocator is None or r["req"]["allocator"] == allocator)]
    ok = [r for r in recs if r["resp"].get("ok")]
    lat = [(r["recv"] - r["due"]) * 1e3 for r in ok]
    return recs, ok, lat


def same_result(resp, ref):
    """Served/routed response vs an in-process reference result."""
    if not resp.get("ok") or not ref.get("ok"):
        return False
    if resp["allocation"]["seeds"] != ref["seeds"]:
        return False
    report = resp.get("report")
    return report is not None and report["total_regret"] == ref["total_regret"]


def grid_key(request):
    return json.dumps(request, sort_keys=True)


def write_requests(path, requests):
    with open(path, "w") as f:
        for i, r in enumerate(requests):
            f.write(json.dumps(dict(r, id=f"q{i}"), separators=(",", ":")))
            f.write("\n")


def regret_pct(records):
    """Mean total regret (% of total budget) over the distinct TIRM grid
    points answered. Each point's allocation is deterministic, so this is
    the same on every run of the same code."""
    by_point = {}
    for r in records:
        resp = r["resp"]
        if r["req"]["allocator"] == "tirm" and resp.get("ok"):
            rep = resp["report"]
            by_point[grid_key(r["req"])] = (100.0 * rep["total_regret"] /
                                            rep["total_budget"])
    return sum(by_point[k] for k in sorted(by_point)) / len(by_point)


def check_consistent(records):
    """Every answer to the same request must be identical; returns the
    number of records that disagree with the first answer of their point."""
    first, bad = {}, 0
    for r in records:
        resp = r["resp"]
        if not resp.get("ok"):
            continue
        key = grid_key(r["req"])
        value = (resp["allocation"]["seeds"],
                 resp.get("report", {}).get("total_regret"))
        if first.setdefault(key, value) != value:
            bad += 1
    return bad


# ------------------------------------------------------------- workloads

class Run:
    """One benchmark run: its binaries, scratch directory, processes, and
    the attempted/failed tally every correctness gate feeds."""

    def __init__(self, bins, outdir):
        self.bins = bins
        self.out = outdir
        self.procs = Procs(outdir)
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, n, why):
        if n:
            self.failed += n
            self.notes.append(why)
            log("FAIL:", why)

    def make_bundle(self, dataset, scale):
        path = self.out / f"{dataset}.tirm"
        subprocess.run([str(self.bins["data"]), "build", f"--dataset={dataset}",
                        f"--scale={scale}", f"--seed={DATA_SEED}",
                        f"--out={path}"], check=True,
                       stdout=subprocess.DEVNULL, stderr=sys.stderr)
        return path

    def start_server(self, bundle, workers, threads, name):
        port = free_port()
        p = self.procs.start([self.bins["server"], f"--bundle={bundle}",
                              f"--workers={workers}", f"--threads={threads}",
                              f"--port={port}", "--queue_capacity=4096"]
                             + CONFIG, name)
        wait_port(port, p)
        return p, port

    def start_shard_workers(self, bundle, k):
        """k `--mode=shard_worker` processes; returns (procs, ports)."""
        workers, ports = [], []
        for i in range(k):
            port = free_port()
            p = self.procs.start([self.bins["server"], "--mode=shard_worker",
                                  f"--bundle={bundle}", f"--shard_index={i}",
                                  f"--num_shards={k}", f"--port={port}",
                                  "--threads=1"] + CONFIG, f"shard{i}")
            wait_port(port, p)
            workers.append(p)
            ports.append(port)
        return workers, ports

    def start_router(self, bundle, k):
        """k shard workers plus a router; returns (procs, router port)."""
        workers, ports = self.start_shard_workers(bundle, k)
        port = free_port()
        shards = ",".join(f"127.0.0.1:{p}" for p in ports)
        router = self.procs.start([self.bins["server"], "--mode=router",
                                   f"--bundle={bundle}", f"--shards={shards}",
                                   f"--port={port}", "--threads=1"] + CONFIG,
                                  "router")
        wait_port(port, router)
        return workers + [router], port

    def verify(self, bundle, threads, pairs):
        """Re-runs (request, response) pairs in-process; one flag per pair,
        True where the response differs from the direct run."""
        if not pairs:
            return []
        path = self.out / "verify.ndjson"
        write_requests(path, [req for req, _ in pairs])
        ref = run_tool(self.bins, ["reference", f"--bundle={bundle}",
                                   f"--requests={path}",
                                   f"--threads={threads}"] + CONFIG)
        return [not same_result(resp, r)
                for (_, resp), r in zip(pairs, ref["results"])]


def metric(value, unit):
    return {"value": value, "unit": unit}


def e2e(setup_s, ops_ms, lo_ms, goodput_rps, cold_ms, rss_mb, regret,
        attempted, failed):
    p50, n = lib.hd_quantile(ops_ms, 50)
    p90, _ = lib.hd_quantile(ops_ms, 90)
    lo50, n_lo = lib.hd_quantile(lo_ms, 50)
    lo90, _ = lib.hd_quantile(lo_ms, 90)
    log(f"latency samples: {n} ({lib.samples_beyond(n, 90)} beyond p90), "
        f"lo {n_lo} ({lib.samples_beyond(n_lo, 90)} beyond p90)")
    return {
        "setup_s": metric(setup_s, "s"),
        "op_ms_p50": metric(p50, "ms"),
        "op_ms_p90": metric(p90, "ms"),
        "op_ms_p50.lo": metric(lo50, "ms"),
        "op_ms_p90.lo": metric(lo90, "ms"),
        "goodput_rps": metric(goodput_rps, "1/s"),
        "cold_op_ms": metric(cold_ms, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "regret_pct": metric(regret, "%"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }


def cold_lj(run, seconds, seed):
    """Closed loop, one caller: repeated cold TIRM allocations, each on a
    fresh engine over one prebuilt LiveJournal-like instance. The instance
    and query are fixed, so the seed changes nothing here."""
    del seed
    res = run_tool(run.bins, ["cold", "--dataset=livejournal", "--scale=0.002",
                              f"--data_seed={DATA_SEED}",
                              f"--bundle={run.out / 'livejournal.tirm'}",
                              f"--seconds={seconds}", f"--threads={NPROC}"]
                   + CONFIG)
    run.attempted += res["attempted"]
    run.fail(res["mismatched"], "repeated cold allocations differ")
    run.fail(res["failed"] - res["mismatched"], "cold allocation failed")
    log("cold ops (ms @ steal):", " ".join(
        f"{x:.0f}@{100 * st:.1f}%" for x, st in zip(res["op_ms"],
                                                     res["op_steal"])))
    log("exact counters:", json.dumps(res.get("counters"), sort_keys=True))
    ops = lib.quietest(res["op_ms"], res["op_steal"], STEAL_LIMIT)
    log(f"timing {len(ops)} of {len(res['op_ms'])} cold ops (steal <= "
        f"{100 * STEAL_LIMIT:g}% or the quietest half)")
    # Every operation here is cold, so cold_op_ms is their median too.
    return e2e(setup_s=lib.median(res["setup_s"]), ops_ms=ops, lo_ms=ops,
               goodput_rps=len(ops) / (sum(ops) / 1e3),
               cold_ms=lib.hd_quantile(ops, 50)[0],
               rss_mb=vm_hwm_mb() + res["peak_rss_bytes"] / 2**20,
               regret=sum(res["regret_pct"]) / len(res["regret_pct"]),
               attempted=res["attempted"], failed=res["failed"])


def warm_serve(run, bundle, name):
    """Set-up of serve_dblp: server start plus one cold request per worker.
    Returns (proc, client, setup seconds, the warm-up records)."""
    t0 = time.monotonic()
    proc, port = run.start_server(bundle, NPROC, 1, name)
    client = Client(port, NPROC)
    seen = set()
    for _ in range(4):
        before = len(client.records)
        for _ in range(NPROC):
            client.send(GRID[0], time.monotonic(), "warm")
        if not client.wait_all(120):
            raise RuntimeError("warm-up timed out")
        for r in client.parsed()[before:]:
            if r["resp"].get("ok") and r["resp"]["worker"] not in seen:
                r["cold"] = True  # the worker's first request
                seen.add(r["resp"]["worker"])
        if len(seen) == NPROC:
            break
    if len(seen) != NPROC:
        raise RuntimeError(f"warm-up reached workers {sorted(seen)} only")
    setup = time.monotonic() - t0
    return proc, client, setup, client.parsed()


def load_step(client, rng, stream, name, rate, count):
    """One open-loop step: the next `count` requests of `stream` at
    `rate`, then a wait until all are answered. Returns the step's summary
    and the generator's lateness samples."""
    sched = lib.jittered_schedule(rng, rate, count, JITTER)
    reqs = [next(stream) for _ in sched]
    steal0, total0 = cpu_times()
    late, backlog, sent = run_phase(client, name, sched, reqs)
    drained = client.wait_all(60)
    steal1, total1 = cpu_times()
    recs, ok, lat = phase_stats(client.parsed(), name)
    misses = len(recs) - len(ok) + sum(1 for x in lat if x > LATENCY_LIMIT_MS)
    grew = lib.backlog_grows(backlog, NPROC) or not drained
    step = {"name": name, "rate": rate, "sent": len(sched),
            "passed": lib.step_passes(lat, len(recs) - len(ok),
                                      LATENCY_LIMIT_MS, grew),
            "good_rps": lib.good_rate(sent, misses), "misses": misses,
            "drained": drained,
            "steal": (steal1 - steal0) / max(1, total1 - total0)}
    log("phase", json.dumps(step))
    return step, late


def serve_dblp(run, seconds, seed):
    bundle = run.make_bundle("dblp", 0.02)
    rng = random.Random(seed)
    setups, warmups = [], []
    for i in range(4):  # set up four times, report the medians
        proc, client, setup, warm = warm_serve(run, bundle, f"server{i}")
        setups.append(setup)
        warmups.extend(warm)
        if i < 3:
            client.close()
            run.procs.stop(proc)

    # Load: lo and hi, each a whole number of request cycles (every grid
    # point equally often, whatever the seed), then the goodput search.
    cycle = len(GRID) + len(BASELINES)
    stream = iter(lib.request_stream(seed, GRID, BASELINES, 100000))
    lateness = []
    search = lib.RateSearch(CLIMB, BISECTIONS, TOP_RATE)
    drained = True
    for name, rate, share in (("lo", RATE_LO, 0.3), ("hi", RATE_HI, 0.42)):
        count = cycle * max(1, round(share * seconds * rate / cycle))
        step, late = load_step(client, rng, stream, name, rate, count)
        lateness.extend(late)
        search.record(step)
        drained = drained and step["drained"]
    while drained and (rate := search.next_rate()) is not None:
        step, late = load_step(client, rng, stream, f"step{rate:.3g}", rate,
                               round(rate * STEP_S))
        lateness.extend(late)
        search.record(step)
        drained = step["drained"]
    client.wait_all(60)
    records = [r for r in client.parsed() if r["phase"] != "warm"]
    rss = vm_hwm_mb() + vm_hwm_mb(proc.pid)
    client.close()
    run.procs.stop(proc)

    # Hygiene: generator lateness.
    late_p99, n_late = lib.percentile(lateness, 99)
    if late_p99 > LATE_LIMIT_MS:
        run.fail(1, f"generator fell behind: p99 lateness {late_p99:.1f} ms")
    log(f"generator lateness p99 {late_p99:.2f} ms over {n_late} sends")

    # Correctness gates; warm-up requests count too.
    timed = [r for r in records if r["phase"] in ("lo", "hi")]
    run.attempted += len(records) + len(warmups)
    run.fail(sum(1 for r in records + warmups if not r["resp"].get("ok")),
             "served request failed")
    run.fail(sum(1 for r in records if r["resp"].get("id") != r["id"]),
             "response id mismatch")
    run.fail(check_consistent(records + warmups),
             "same request, different answers")
    sample = random.Random(seed + 1).sample(timed, min(VERIFY_SAMPLE,
                                                       len(timed)))
    run.fail(sum(run.verify(bundle, 1, [(r["req"], r["resp"])
                                        for r in sample])),
             "served response differs from direct AdAllocEngine::Run")
    sampled = sum(1 for r in timed if r["resp"].get("ok")
                  and r["resp"]["cache"]["sampled_sets"] > 0)
    if sampled:
        log(f"note: {sampled} timed requests sampled (pools not warm)")

    # Latency figures are of the TIRM grid, the workload's operation; the
    # baseline minority adds load and counts toward misses and failures.
    _, _, hi_lat = phase_stats(records, "hi", "tirm")
    _, _, lo_lat = phase_stats(records, "lo", "tirm")
    gp = search.goodput()
    if gp is None:
        run.fail(1, "no load step met the latency limit")
        gp = 0.0
    run.records = records
    return e2e(setup_s=lib.median(setups), ops_ms=hi_lat, lo_ms=lo_lat,
               goodput_rps=gp,
               cold_ms=lib.hd_quantile([(r["recv"] - r["due"]) * 1e3
                                        for r in warmups if r.get("cold")],
                                       50)[0],
               rss_mb=rss,
               regret=regret_pct(records), attempted=run.attempted,
               failed=run.failed)


def routed_cycle(run, bundle):
    """Set-up of router_k4 (fresh shard workers + router) and its first,
    cold query. Returns (procs, client, setup seconds, cold record, CPU
    steal during the cold query)."""
    t0 = time.monotonic()
    procs, port = run.start_router(bundle, NPROC)
    setup = time.monotonic() - t0
    client = Client(port, 1)
    steal0, total0 = cpu_times()
    client.send(GRID[0], time.monotonic(), "cold")
    if not client.wait_all(120):
        raise RuntimeError("cold routed query timed out")
    steal1, total1 = cpu_times()
    return (procs, client, setup, client.parsed()[-1],
            (steal1 - steal0) / max(1, total1 - total0))


def router_k4(run, seconds, seed):
    bundle = run.make_bundle("dblp", 0.02)
    setups, cold_recs, cold_steals = [], [], []
    for i in range(7):  # set up seven times, report the medians
        procs, client, setup, cold, steal = routed_cycle(run, bundle)
        setups.append(setup)
        cold_recs.append(cold)
        cold_steals.append(steal)
        if i < 6:
            client.close()
            for p in procs:
                run.procs.stop(p)
    # Warm queries in whole cycles of the grid (every point equally often,
    # whatever the seed); each cycle's CPU steal decides whether its
    # latencies are timed.
    stream = lib.request_stream(seed, GRID, [], 100000)
    deadline = time.monotonic() + seconds
    cycles, steals, pos = [], [], 0
    while time.monotonic() < deadline:
        steal0, total0 = cpu_times()
        for _ in GRID:
            client.send(stream[pos], time.monotonic(), "warm")
            pos += 1
            if not client.wait_all(120):
                raise RuntimeError("routed query timed out")
        steal1, total1 = cpu_times()
        cycles.append(client.parsed()[-len(GRID):])
        steals.append((steal1 - steal0) / max(1, total1 - total0))
    records = [r for c in cycles for r in c]
    rss = vm_hwm_mb() + sum(vm_hwm_mb(p.pid) for p in procs)
    client.close()
    for p in procs:
        run.procs.stop(p)

    # Gates: every query, cold ones included, answered ok; the same request
    # always gets the same answer; every routed allocation equals the
    # in-process single-store allocation.
    run.attempted += len(records) + len(cold_recs)
    run.fail(sum(1 for r in records + cold_recs if not r["resp"].get("ok")),
             "routed request failed")
    run.fail(check_consistent(records + cold_recs),
             "same request, different answers")
    distinct = {}
    for r in records:
        distinct.setdefault(grid_key(r["req"]), r)
    checked = list(distinct.values()) + cold_recs
    wrong = run.verify(bundle, 1, [(r["req"], r["resp"]) for r in checked])
    bad = {grid_key(r["req"]) for r, w in zip(checked[:len(distinct)], wrong)
           if w}
    run.fail(sum(1 for r in records if grid_key(r["req"]) in bad)
             + sum(wrong[len(distinct):]),
             "routed allocation differs from single-store")

    colds = [(r["recv"] - r["due"]) * 1e3 for r in
             lib.quietest(cold_recs, cold_steals, STEAL_LIMIT)
             if r["resp"].get("ok")]
    log("cold routed queries (ms @ steal):", " ".join(
        f"{(r['recv'] - r['due']) * 1e3:.0f}@{100 * st:.1f}%"
        for r, st in zip(cold_recs, cold_steals)))
    quiet = lib.quietest(cycles, steals, STEAL_LIMIT)
    log(f"timing {len(quiet)} of {len(cycles)} warm cycles (steal per "
        "cycle: " + " ".join(f"{100 * s:.1f}%" for s in steals) + ")")
    warm = [(r["recv"] - r["due"]) * 1e3 for c in quiet for r in c
            if r["resp"].get("ok")]
    run.records = cold_recs + records
    return e2e(setup_s=lib.median(setups), ops_ms=warm, lo_ms=warm,
               goodput_rps=len(warm) / (sum(warm) / 1e3),
               cold_ms=lib.hd_quantile(colds, 50)[0], rss_mb=rss,
               regret=regret_pct(records), attempted=run.attempted,
               failed=run.failed)


WORKLOADS = {"cold_lj": cold_lj, "serve_dblp": serve_dblp,
             "router_k4": router_k4}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Short interpreter switch interval: the open-loop generator must get
    # the GIL back promptly when a send falls due.
    sys.setswitchinterval(0.0005)
    bins = build()
    outdir = ROOT / ".bench_out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    run = Run(bins, outdir)
    steal0, total0 = cpu_times()
    try:
        if args.trace:
            import trace_layers
            metrics = trace_layers.traced(run, args.workload, args.seconds,
                                          args.seed)
        else:
            metrics = WORKLOADS[args.workload](run, args.seconds, args.seed)
    finally:
        run.procs.stop_all()
    steal1, total1 = cpu_times()
    if total1 > total0:
        # CPU time the hypervisor gave to other guests: the measurement's
        # noise floor on a shared host.
        log(f"cpu steal during the run: "
            f"{100.0 * (steal1 - steal0) / (total1 - total0):.1f}%")
    result = {"correct": run.failed == 0, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": metrics}
    if run.notes:
        log("notes:", "; ".join(sorted(set(run.notes))))
    if getattr(run, "records", None):
        with open(outdir / "records.json", "w") as f:
            json.dump([{k: r[k] for k in ("id", "phase", "req", "due",
                                          "sent", "recv")}
                       | {"queue_ms": r["resp"].get("queue_ms"),
                          "serve_ms": r["resp"].get("serve_ms"),
                          "worker": r["resp"].get("worker")}
                       for r in run.records], f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
