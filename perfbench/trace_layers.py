"""The traced run (--trace 1): one workload's operations split into the
public calls of each module, timed from the benchmark's own code.

Every traced run measures every layer on the workload's own instance and
configuration: perfbench_tool `layers` (datasets, io, rrset, alloc,
diffusion, api, serve.protocol), a short served probe through the
workload's front-end (serve), and the benchmark acting as coordinator over
four shard workers (serve.shard). Spans from all three are written to
.bench_out/<workload>/trace.json."""

import json
import random
import time

import bench_lib as lib
import run as bench

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("rrset.sample.sets_per_s.t1", "1/s", "higher"),
    ("rrset.sample.sets_per_s.tN", "1/s", "higher"),
    ("rrset.sample.efficiency", "ratio", "higher"),
    ("rrset.index.build_s", "s", "lower"),
    ("rrset.store.ensure_s", "s", "lower"),
    ("rrset.kpt.ensure_s", "s", "lower"),
    ("rrset.transpose.build_s", "s", "lower"),
    ("rrset.pool_bytes", "bytes", "lower"),
    ("rrset.transpose_bytes", "bytes", "lower"),
    ("alloc.select_s", "s", "lower"),
    ("alloc.baseline_s", "s", "lower"),
    ("alloc.view_bytes", "bytes", "lower"),
    ("alloc.regret_eval_s", "s", "lower"),
    ("diffusion.mc.sims_per_s", "1/s", "higher"),
    ("api.cold_run_s", "s", "lower"),
    ("api.unattributed_s", "s", "lower"),
    ("datasets.build_s", "s", "lower"),
    ("io.bundle.load_ms", "ms", "lower"),
    ("serve.queue_ms_p50", "ms", "lower"),
    ("serve.queue_ms_p90", "ms", "lower"),
    ("serve.serve_ms_p50", "ms", "lower"),
    ("serve.serve_ms_p90", "ms", "lower"),
    ("serve.busy_frac", "ratio", "lower"),
    ("serve.wire_ms_p50", "ms", "lower"),
    ("serve.protocol.parse_us", "us", "lower"),
    ("serve.protocol.format_us", "us", "lower"),
    ("serve.shard.round_trips_per_op", "count", "lower"),
    ("serve.shard.bytes_per_op", "bytes", "lower"),
    ("serve.shard.rtt_us_p50", "us", "lower"),
    ("serve.shard.wait_frac", "ratio", "lower"),
    ("serve.shard.ensure_skew", "ratio", "lower"),
    ("rrset.sets", "count", "lower"),
    ("rrset.nodes_per_set", "count", "lower"),
    ("rrset.max_traversal", "count", "lower"),
    ("alloc.rounds", "count", "lower"),
    ("alloc.seeds", "count", "lower"),
    ("alloc.expansions", "count", "lower"),
    ("trace.layer_sum_frac", "ratio", "higher"),
    ("mem.tool_rss_mb", "MB", "lower"),
    ("mem.frontend_rss_mb", "MB", "lower"),
    ("mem.shard_rss_mb", "MB", "lower"),
]

# Per workload: instance, request thread count, the traced TIRM query (the
# workload's own operation), and the served front-end.
COLD_QUERY = {"allocator": "tirm", "query": {"kappa": 1, "lambda": 0.0,
                                             "budget_scale": 1.0}}
SETUPS = {
    "cold_lj": {"dataset": "livejournal", "scale": 0.002, "threads": 4,
                "query": COLD_QUERY,
                "sample_sets": 1 << 16,
                "frontend": "server", "workers": 1},
    "serve_dblp": {"dataset": "dblp", "scale": 0.02, "threads": 1,
                   "query": bench.GRID[0],
                   "sample_sets": 1 << 18,
                   "frontend": "server", "workers": bench.NPROC},
    "router_k4": {"dataset": "dblp", "scale": 0.02, "threads": 1,
                  "query": bench.GRID[0],
                  "sample_sets": 1 << 18,
                  "frontend": "router", "workers": 1},
}

# Layers whose self times make up one cold allocation (the layer-sum check).
COLD_LAYERS = ["rrset.kpt.ensure", "rrset.store.ensure",
               "rrset.transpose.build", "alloc.select", "alloc.regret_eval"]


class PySpans:
    """The Python side's spans, in the same shape as perfbench_tool's."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.spans = []
        self.open = []

    def __call__(self, name):
        spans = self

        class Scope:
            def __enter__(self):
                spans.spans.append({"name": name,
                                    "start": time.monotonic() - spans.t0,
                                    "end": None,
                                    "parent": spans.open[-1] if spans.open
                                    else -1})
                spans.open.append(len(spans.spans) - 1)

            def __exit__(self, *exc):
                spans.spans[spans.open.pop()]["end"] = (time.monotonic() -
                                                        spans.t0)
        return Scope()


def serve_probe(run, cfg, bundle, seconds, seed):
    """Served requests through the workload's front-end; the serve layer
    is read from each response's queue_ms and serve_ms."""
    if cfg["frontend"] == "router":
        procs, port = run.start_router(bundle, bench.NPROC)
        client = bench.Client(port, 1)
    else:
        proc, port = run.start_server(bundle, cfg["workers"], cfg["threads"],
                                      "probe")
        procs = [proc]
        client = bench.Client(port, min(bench.NPROC, cfg["workers"]))
    # Warm every worker first, then measure.
    for _ in range(cfg["workers"]):
        client.send(bench.GRID[0], time.monotonic(), "warm")
    if not client.wait_all(180):
        raise RuntimeError("probe warm-up timed out")
    stream = lib.request_stream(seed, bench.GRID, [], 10000)
    start = time.monotonic()
    if cfg["workers"] > 1:  # open loop at the workload's hi rate
        sched = lib.jittered_schedule(random.Random(seed), bench.RATE_HI,
                                      round(bench.RATE_HI * seconds),
                                      bench.JITTER)
        bench.run_phase(client, "probe", sched, stream[:len(sched)])
        if not client.wait_all(120):
            raise RuntimeError("probe timed out")
    else:  # closed loop, one caller
        pos = 0
        while time.monotonic() < start + seconds or pos == 0:
            client.send(stream[pos], time.monotonic(), "probe")
            pos += 1
            if not client.wait_all(120):
                raise RuntimeError("probe timed out")
    records = [r for r in client.parsed() if r["phase"] == "probe"]
    rss = sum(bench.vm_hwm_mb(p.pid) for p in procs)
    client.close()
    for p in procs:
        run.procs.stop(p)
    run.attempted += len(records)
    run.fail(sum(1 for r in records if not r["resp"].get("ok")),
             "probe request failed")
    ok = [r for r in records if r["resp"].get("ok")]
    queue = [r["resp"]["queue_ms"] for r in ok]
    serve = [r["resp"]["serve_ms"] for r in ok]
    wire = [(r["recv"] - r["sent"]) * 1e3 - r["resp"]["queue_ms"]
            - r["resp"]["serve_ms"] for r in ok]
    wall = max(r["recv"] for r in ok) - min(r["sent"] for r in ok)
    return {
        "serve.queue_ms_p50": lib.hd_quantile(queue, 50)[0],
        "serve.queue_ms_p90": lib.hd_quantile(queue, 90)[0],
        "serve.serve_ms_p50": lib.hd_quantile(serve, 50)[0],
        "serve.serve_ms_p90": lib.hd_quantile(serve, 90)[0],
        "serve.busy_frac": sum(serve) / 1e3 / (wall * cfg["workers"]),
        "serve.wire_ms_p50": lib.hd_quantile(wire, 50)[0],
        "mem.frontend_rss_mb": rss,
    }


def shard_probe(run, bundle, spans):
    """The benchmark as coordinator over fresh shard workers: one cold and
    three warm TIRM queries, every wire counted and timed."""
    procs, ports = run.start_shard_workers(bundle, bench.NPROC)
    path = run.out / "shard.ndjson"
    bench.write_requests(path, bench.GRID[:4])
    with spans("serve.shard.coordinator"):
        res = bench.run_tool(run.bins, [
            "shard", f"--bundle={bundle}",
            "--ports=" + ",".join(map(str, ports)), f"--requests={path}",
            "--threads=1"] + bench.CONFIG)
    rss = sum(bench.vm_hwm_mb(p.pid) for p in procs)
    for p in procs:
        run.procs.stop(p)
    ops = res["ops"]
    run.attempted += len(ops)
    run.fail(sum(1 for o in ops if not o["ok"]), "sharded run failed")
    ensure = ops[0]["ensure_s"]
    n = len(ops)
    return {
        "serve.shard.round_trips_per_op": sum(o["round_trips"]
                                              for o in ops) / n,
        "serve.shard.bytes_per_op": sum(o["bytes"] for o in ops) / n,
        "serve.shard.rtt_us_p50": lib.median([o["rtt_us_p50"]
                                              for o in ops[1:]]),
        "serve.shard.wait_frac": sum(o["wait_frac"] for o in ops) / n,
        "serve.shard.ensure_skew": max(ensure) / min(ensure),
        "mem.shard_rss_mb": rss,
    }


def traced(run, workload, seconds, seed):
    cfg = SETUPS[workload]
    spans = PySpans()
    with spans("trace.inputs"):
        bundle = run.make_bundle(cfg["dataset"], cfg["scale"])
        lines = run.out / "layers.ndjson"
        mix = [cfg["query"]] + bench.BASELINES + bench.GRID
        bench.write_requests(lines, mix)
    with spans("trace.layers"):
        layers = bench.run_tool(run.bins, [
            "layers", f"--dataset={cfg['dataset']}",
            f"--data_seed={bench.DATA_SEED}",
            f"--scale={cfg['scale']}", f"--bundle={bundle}",
            f"--requests={lines}", f"--threads={cfg['threads']}",
            f"--sample_threads={bench.NPROC}",
            f"--sample_sets={cfg['sample_sets']}",
            f"--spans={run.out / 'tool_spans.json'}"] + bench.CONFIG)
    run.attempted += 1
    run.fail(layers["gate_failures"], "traced layers disagree with the "
             "cold engine run")
    with spans("trace.serve"):
        served = serve_probe(run, cfg, bundle, min(8.0, seconds / 2), seed)
    with spans("trace.shard"):
        sharded = shard_probe(run, bundle, spans)

    values = dict(layers)
    values.update(layers["counters"])
    values.update(served)
    values.update(sharded)
    values["mem.tool_rss_mb"] = layers["peak_rss_bytes"] / 2**20
    frac, ok = lib.layer_sum_check(layers["self_s"], COLD_LAYERS,
                                   layers["api.cold_run_s"])
    values["trace.layer_sum_frac"] = frac
    bench.log(f"layer self times sum to {frac:.3f} of the untraced cold "
              f"run ({'accounted' if ok else 'NOT accounted'}); self times:",
              json.dumps(layers["self_s"], sort_keys=True))

    with open(run.out / "tool_spans.json") as f:
        tool_spans = json.load(f)
    with open(run.out / "trace.json", "w") as f:
        json.dump({"tool": tool_spans, "run": spans.spans,
                   "self_s": layers["self_s"]}, f)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
