#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload emu-1core --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 \
        --seconds 12 --trace 1

``--trace 0`` measures the program as users get it and prints every
end-to-end metric; ``--trace 1`` runs the same ops untraced and then
traced, and prints the per-layer split with the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("emu-1core", "emu-4core-zoo", "emu-technique", "serve-mixed")

#: Set-up is repeated in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3
#: Emu ops re-run on the reference cycle engine, per run.
ENGINE_CHECKS = {"emu-1core": 1, "emu-4core-zoo": 1, "emu-technique": 2}
#: An op slower than this counts as failed (timed out).
OP_TIMEOUT_S = 60.0
#: Workloads run pinned to one CPU.  serve-mixed's latency is thread
#: hand-offs between the clients and the server's per-request threads;
#: on a VM a hand-off to the other vCPU goes through the hypervisor, and
#: unpinned its cached-request latency swung 2x between runs.
PINNED = ("serve-mixed",)
#: Fewest passes over an emu round, and fewest serve windows, per run.
MIN_PASSES = 2
MIN_WINDOWS = 4

#: End-to-end metrics (``--trace 0``) and their units.
#: Op times are in reference loops (``ref``): an op's wall over the wall
#: of pbench.calibrate's loop timed right before it.  The same figures in
#: ms are printed beside them, ungated.
END_TO_END = {"setup_s": "s", "op_ref": "ref", "read_ref": "ref",
              "write_ref": "ref", "ops_per_ref": "1/ref",
              "peak_rss_mb": "MiB"}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "system.build_s": "s", "system.finish_s": "s", "trace.gen_s": "s",
    "engine.self_s": "s", "cache.self_s": "s", "cache.calls": "count",
    "smc.self_s": "s", "smc.calls": "count", "smc.episode_s": "s",
    "smc.episodes": "count", "kernel.self_s": "s", "kernel.calls": "count",
    "kernel.engaged_frac": "frac", "kernel.accesses_per_call": "count",
    "kernel.fallback.stateful_scheduler": "count",
    "kernel.fallback.multi_rank_channel": "count",
    "kernel.fallback.bank_group_timing": "count",
    "kernel.fallback.technique_episode": "count",
    "kernel.fallback.staged_tile_state": "count",
    "kernel.fallback.other": "count",
    "device.self_s": "s", "device.calls": "count",
    "technique.self_s": "s", "bender.self_s": "s", "bender.calls": "count",
    "sim.dram_requests": "count", "sim.row_hit_frac": "frac",
    "server.self_s": "s", "jobs.submit_s": "s", "jobs.fingerprint_s": "s",
    "jobs.queue_wait_p50_ms": "ms", "jobs.run_p50_ms": "ms",
    "jobs.cached_frac": "frac", "jobs.coalesced_frac": "frac",
    "store.get_s": "s", "store.get.calls": "count",
    "store.put_s": "s", "store.put.calls": "count",
    "store.query_s": "s", "store.query.calls": "count",
    "store.payload_s": "s", "store.payload.calls": "count",
    "store.record_s": "s", "store.record.calls": "count",
    "runner.sweep_s": "s", "runner.points_run": "count",
    "runner.cache_hit_frac": "frac",
    "trace.overhead_s": "s", "trace.overhead_frac": "frac",
    "trace.spans": "count", "trace.absent_entry_points": "count",
}

#: Kernel fallback reason prefix -> per-layer metric suffix.
FALLBACK_BUCKETS = (("stateful scheduler", "stateful_scheduler"),
                    ("multi-rank channel", "multi_rank_channel"),
                    ("non-uniform bank-group timing", "bank_group_timing"),
                    ("technique episode", "technique_episode"),
                    ("staged tile state", "staged_tile_state"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- set-up ----------------------------------------------------------------


def setup(workload: str, seed: int) -> dict:
    """Imports, kernel-backend resolution and the workload's own set-up."""
    import repro.core.system  # noqa: F401  (the emulator's import cost)
    from repro.dram.kernel import resolve_backend

    resolve_backend()
    state: dict = {}
    if workload == "serve-mixed":
        from pbench import service

        state["plan"] = service.make_plan(seed)
        state["service"] = service.start(state["plan"], WORK)
    else:
        from pbench import emu

        if workload == "emu-4core-zoo":
            import repro.core.workload_mix  # noqa: F401
        if workload == "emu-technique":
            emu.characterize()
    return state


def setup_probe(workload: str, seed: int) -> int:
    """One set-up in this fresh process; prints its seconds."""
    start = time.perf_counter()
    state = setup(workload, seed)
    seconds = time.perf_counter() - start
    if "service" in state:
        state["service"].close()
    print(json.dumps({"setup_s": seconds}))
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def environment(service_backend: str | None = None) -> dict:
    from repro.dram.kernel import backend_info

    info = dict(backend_info())
    info.pop("cache_path", None)
    return {"kernel": info, "store_backend": service_backend,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Aggregates are None (printed as n/a, and null in the result line) when
# every op they cover failed; the run still reports its tally.


def _median(values: list) -> float | None:
    return statistics.median(values) if values else None


def _gmean(values: list) -> float | None:
    return statistics.geometric_mean(values) if values else None


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000


def _per(count: float, seconds: float) -> float | None:
    return count / seconds if seconds else None


# -- emu workloads ---------------------------------------------------------


class EmuRun:
    """Passes over one seeded round of ops; every op keeps the wall time
    of each pass it ran in, and the reference loop's wall timed right
    before it."""

    def __init__(self, workload: str, seed: int, tally=None):
        from pbench import emu
        from pbench.stats import Tally

        self.emu = emu
        self.workload = workload
        self.seed = seed
        self.ops = emu.ROUNDS[workload](seed)
        #: Per op: its wall time, and the reference loop's, in each pass.
        self.walls: list[list[float]] = [[] for _ in self.ops]
        self.refs: list[list[float]] = [[] for _ in self.ops]
        #: (op index, tally id, outcome or None) for every execution.
        self.runs: list[tuple[int, int, object]] = []
        self.tally = tally if tally is not None else Tally()

    def run_pass(self, tracer=None) -> None:
        from pbench.calibrate import reference_s

        for i, op in enumerate(self.ops):
            # Each op starts from a collected heap, so neither its time nor
            # the peak RSS depends on which ops the seed ran before it.
            gc.collect()
            ref = reference_s()
            n = self.tally.attempt()
            if tracer is not None:
                tracer.set_op(n)
            t0 = time.perf_counter()
            try:
                outcome = self.emu.run_op(op)
            except Exception as exc:
                outcome = None
                self.tally.fail(n, f"raised {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - t0
            if wall > OP_TIMEOUT_S:
                self.tally.fail(n, f"timed out ({wall:.1f}s)")
            if outcome is not None:
                outcome.systems.clear()   # keep results, not whole systems
                self.walls[i].append(wall)
                self.refs[i].append(ref)
            self.runs.append((i, n, outcome))

    def check(self, engines: bool = True) -> None:
        """Output checks, outside every timed region."""
        emu = self.emu
        first: dict[int, tuple[int, object]] = {}
        for i, n, outcome in self.runs:
            if outcome is None:
                continue
            first.setdefault(i, (n, outcome))
            for problem in outcome.problems:
                self.tally.fail(n, problem)
            problem = emu.check_accesses(self.ops[i], outcome)
            if problem:
                self.tally.fail(n, problem)
        if not engines:
            return
        rng = random.Random(f"engine-check/{self.workload}/{self.seed}")
        picked = rng.sample(sorted(first), min(len(first),
                                               ENGINE_CHECKS[self.workload]))
        for i in picked:
            n, outcome = first[i]
            try:
                problem = emu.check_engines(self.ops[i], outcome)
            except Exception as exc:
                problem = f"engine check raised {type(exc).__name__}: {exc}"
            if problem:
                self.tally.fail(n, problem)

    def typical(self) -> list[tuple[int, float]]:
        """(op index, median wall over the passes) per op that ran."""
        return [(i, statistics.median(w)) for i, w in enumerate(self.walls)
                if w]

    def typical_ref(self) -> list[tuple[int, float]]:
        """(op index, median over the passes of its wall in reference
        loops) per op that ran."""
        return [(i, statistics.median(w / r for w, r in zip(ws, rs)))
                for i, (ws, rs) in enumerate(zip(self.walls, self.refs))
                if ws]


def emu_untraced(workload: str, seed: int, seconds: float) -> tuple:
    run = EmuRun(workload, seed)
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run.run_pass()
        passes += 1
    measured = time.perf_counter() - start
    rss = peak_rss_mb()
    run.check()
    typical = run.typical()
    busy = sum(t for _, t in typical)
    outcome = {i: o for i, _, o in run.runs if o is not None}

    def by_cls(pairs):
        return {cls: [t for i, t in pairs if run.ops[i]["cls"] == cls]
                for cls in ("read", "write")}

    ms, ref = by_cls(typical), by_cls(run.typical_ref())
    walls = [t for _, t in typical]
    rel = ref["read"] + ref["write"]
    metrics = {
        "op_ref": (_gmean(rel), "ref"),
        "read_ref": (_gmean(ref["read"]), "ref"),
        "write_ref": (_gmean(ref["write"]), "ref"),
        "ops_per_ref": (_per(len(rel), sum(rel)), "1/ref"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra = {
        "op_ms": (_ms(_gmean(walls)), "ms"),
        "read_ms": (_ms(_gmean(ms["read"])), "ms"),
        "write_ms": (_ms(_gmean(ms["write"])), "ms"),
        "ops_per_s": (_per(len(walls), busy), "1/s"),
        "ref_ms": (_ms(_median([r for rs in run.refs for r in rs])), "ms"),
        "accesses_per_s": (_per(sum(outcome[i].accesses for i, _ in typical),
                                busy), "1/s"),
        "sim_cycles_per_s": (_per(sum(outcome[i].cycles for i, _ in typical),
                                  busy), "1/s"),
        "failed_frac": (run.tally.failed_frac, "frac"),
        "op_p50_ms": (_ms(_median(walls)), "ms"),
        "measured_s": (measured, "s"),
    }
    counts = {"ops": len(walls), "read": len(ms["read"]),
              "write": len(ms["write"]), "passes": passes}
    return run.tally, metrics, extra, counts


def emu_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced and traced passes over the same ops, alternating.  The
    per-layer split is per traced pass; the overhead compares the ops'
    typical traced and untraced times."""
    plain = EmuRun(workload, seed)
    traced = EmuRun(workload, seed, tally=plain.tally)
    tracer, observed = make_tracer()
    pairs = 0
    start = time.perf_counter()
    while pairs < 1 or time.perf_counter() - start < seconds:
        plain.run_pass()
        tracer.install()
        try:
            traced.run_pass(tracer)
        finally:
            tracer.restore()
        pairs += 1
    plain.check(engines=False)
    traced.check()
    metrics = layer_metrics(
        tracer, observed, sum(t for _, t in plain.typical()),
        sum(t for _, t in traced.typical()), pairs)
    outcomes = [o for _, _, o in traced.runs if o is not None]
    results = [r for o in outcomes for r in o.results]
    engaged = observed["kernel_engaged"]
    metrics["kernel.accesses_per_call"] = (
        observed["kernel_accesses"] / engaged if engaged else 0.0)
    metrics["sim.dram_requests"] = sum(sum(r.requests_per_channel)
                                       for r in results) / pairs
    total_rows = sum(r.row_hits + r.row_misses + r.row_conflicts
                     for r in results)
    metrics["sim.row_hit_frac"] = (sum(r.row_hits for r in results)
                                   / total_rows if total_rows else 0.0)
    return plain.tally, metrics, tracer, observed


# -- serve-mixed -----------------------------------------------------------


def _window(svc, plan, index: int, on_request=None) -> dict:
    """One window of the closed loop, with its statistics: latencies in
    ms, and in reference loops timed right before the window."""
    from pbench import service
    from pbench.calibrate import reference_s

    ref = reference_s()
    replies, wall = service.run_window(svc, plan, index, on_request)
    ok = [r for r in replies if r.error is None]

    def p50(kind=None):
        return _median([r.seconds for r in ok if kind in (None, r.kind)])

    def rel(seconds):
        return None if seconds is None else seconds / ref

    return {"replies": replies, "wall": wall, "ref": ref,
            "all": _ms(p50()), "cached": _ms(p50("cached")),
            "query": _ms(p50("query")), "req_per_s": len(replies) / wall,
            "all_ref": rel(p50()), "cached_ref": rel(p50("cached")),
            "cold_refs": [r.seconds / ref for r in ok if r.kind == "cold"],
            "req_per_ref": len(replies) * ref / wall}


def _check_serve(svc, replies, tally) -> None:
    from pbench import service

    for reply, verdict in zip(replies, service.check_replies(svc, replies,
                                                             WORK)):
        n = tally.attempt()
        if verdict is not None:
            tally.fail(n, verdict)


def serve_untraced(state: dict, seconds: float) -> tuple:
    from pbench import service
    from pbench.stats import Tally, latency_summary

    svc, plan = state["service"], state["plan"]
    windows = []
    start = time.perf_counter()
    while len(windows) < service.MAX_WINDOWS and (
            len(windows) < MIN_WINDOWS
            or time.perf_counter() - start < seconds):
        windows.append(_window(svc, plan, len(windows)))
    measured = time.perf_counter() - start
    rss = peak_rss_mb()
    svc.close()
    flat = [r for w in windows for r in w["replies"]]
    tally = Tally()
    _check_serve(svc, flat, tally)
    ok = [r for r in flat if r.error is None]
    summary = {k: latency_summary([r.seconds for r in ok if r.kind == k])
               for k in ("cached", "query", "cold")}

    def over_windows(key):
        return _median([w[key] for w in windows if w[key] is not None])

    metrics = {
        "op_ref": (over_windows("all_ref"), "ref"),
        "read_ref": (over_windows("cached_ref"), "ref"),
        # Cold submits are few per window: pool them over the run.
        "write_ref": (_median([c for w in windows for c in w["cold_refs"]]),
                      "ref"),
        "ops_per_ref": (over_windows("req_per_ref"), "1/ref"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra = {
        "op_ms": (over_windows("all"), "ms"),
        "read_ms": (over_windows("cached"), "ms"),
        "write_ms": (summary["cold"]["p50_ms"], "ms"),
        "ops_per_s": (over_windows("req_per_s"), "1/s"),
        "ref_ms": (_ms(over_windows("ref")), "ms"),
        "query_ms": (over_windows("query"), "ms"),
        "req_per_s": (len(flat) / sum(w["wall"] for w in windows), "1/s"),
        "cached_p50_ms": (summary["cached"]["p50_ms"], "ms"),
        "cached_p90_ms": (summary["cached"]["p90_ms"], "ms"),
        "query_p50_ms": (summary["query"]["p50_ms"], "ms"),
        "cold_p50_ms": (summary["cold"]["p50_ms"], "ms"),
        "failed_frac": (tally.failed_frac, "frac"),
        "measured_s": (measured, "s"),
    }
    counts = {"windows": len(windows), "requests": len(flat),
              **{k: v["n"] for k, v in summary.items()},
              "cached_beyond_p90": summary["cached"]["beyond_p90"]}
    return tally, metrics, extra, counts


def serve_traced(state: dict, seconds: float) -> tuple:
    """Untraced and traced windows alternate on one server; the
    per-layer split is per traced window."""
    from pbench import service
    from pbench.stats import Tally

    svc, plan = state["service"], state["plan"]
    tracer, observed = make_tracer()
    windows: dict[bool, list[dict]] = {False: [], True: []}
    pairs = 0
    start = time.perf_counter()
    try:
        while 2 * pairs + 2 <= service.MAX_WINDOWS and (
                pairs < 1 or time.perf_counter() - start < seconds):
            windows[False].append(_window(svc, plan, 2 * pairs))
            before = dict(svc.server.queue.stats)
            tracer.install()
            try:
                windows[True].append(_window(
                    svc, plan, 2 * pairs + 1,
                    on_request=lambda c, i: tracer.set_op(
                        c * 1_000_000 + i)))
            finally:
                tracer.restore()
            after = svc.server.queue.stats
            for key in after:
                observed["queue"][key] = (observed["queue"].get(key, 0)
                                          + after[key] - before[key])
            pairs += 1
    finally:
        svc.close()
    tally = Tally()
    replies = [r for side in windows.values() for w in side
               for r in w["replies"]]
    _check_serve(svc, replies, tally)
    metrics = layer_metrics(
        tracer, observed,
        statistics.median(w["wall"] for w in windows[False]),
        statistics.median(w["wall"] for w in windows[True]), pairs)
    executed = [j for j in observed["jobs"] if j.started_at is not None
                and j.finished_at is not None]
    if executed:
        metrics["jobs.queue_wait_p50_ms"] = statistics.median(
            (j.started_at - j.created_at) * 1000 for j in executed)
        metrics["jobs.run_p50_ms"] = statistics.median(
            (j.finished_at - j.started_at) * 1000 for j in executed)
    queue = observed["queue"]
    if queue.get("submitted"):
        metrics["jobs.cached_frac"] = queue["cached"] / queue["submitted"]
        metrics["jobs.coalesced_frac"] = (queue["coalesced"]
                                          / queue["submitted"])
    return tally, metrics, tracer, observed


# -- tracing ---------------------------------------------------------------


def make_tracer():
    """A tracer plus the observers that count kernel engagement and the
    work of engaged kernel calls, fallback reasons, submitted jobs and
    sweep outcomes."""
    from pbench.tracer import Tracer

    tracer = Tracer()
    observed = {"kernel_engaged": 0, "kernel_accesses": 0, "fallbacks": {},
                "jobs": [], "points": 0, "cache_hits": 0, "queue": {}}

    def kernel_enter(args):
        # run_gated_kernel(engine, session, proc, smc) replays the rest of
        # proc's fed trace; service_pending_kernel(smc, requests, ...)
        # serves one drained batch of requests.
        if len(args) == 4:
            return args[2], args[2].stats.accesses
        return None, len(args[1])

    def kernel(result, args, entered):
        if result:
            proc, count = entered
            observed["kernel_engaged"] += 1
            observed["kernel_accesses"] += (
                count if proc is None else proc.stats.accesses - count)
            return
        smc = next((a for a in args if hasattr(a, "kernel_fallback_reason")),
                   None)
        reason = getattr(smc, "kernel_fallback_reason", None) or "unknown"
        fallbacks = observed["fallbacks"]
        fallbacks[reason] = fallbacks.get(reason, 0) + 1

    def job(result, args, entered):
        observed["jobs"].append(result)

    def sweep(result, args, entered):
        observed["points"] += result.points
        observed["cache_hits"] += result.cache_hits

    tracer.on_enter["kernel"] = kernel_enter
    tracer.observers.update({"kernel": kernel, "jobs.submit": job,
                             "runner.sweep": sweep})
    return tracer, observed


def layer_metrics(tracer, observed, plain_s: float, traced_s: float,
                  passes: int) -> dict:
    """Per-layer metrics, per traced pass (or window); ratios as is.

    ``plain_s`` and ``traced_s`` are the wall of one untraced and one
    traced pass over the same work; their difference is the overhead.
    """
    totals = tracer.totals()

    def own(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0)
                   for n in names) / passes

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names) / passes

    def incl(name):
        return totals.get(name, {}).get("incl_s", 0.0) / passes

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "system.build_s": own("system.build"),
        "system.finish_s": own("system.finish"),
        "trace.gen_s": own("trace.gen"),
        "engine.self_s": own("engine"),
        "cache.self_s": own("cache"), "cache.calls": calls("cache"),
        "smc.self_s": own("smc.serve", "smc.episode"),
        "smc.calls": calls("smc.serve"),
        "smc.episode_s": incl("smc.episode"),
        "smc.episodes": calls("smc.episode"),
        "kernel.self_s": own("kernel"), "kernel.calls": calls("kernel"),
        "kernel.engaged_frac": share(observed["kernel_engaged"] / passes,
                                     calls("kernel")),
        "device.self_s": own("device"), "device.calls": calls("device"),
        "technique.self_s": own("technique"),
        "bender.self_s": own("bender"), "bender.calls": calls("bender"),
        "server.self_s": own("server"),
        "jobs.submit_s": own("jobs.submit"),
        "jobs.fingerprint_s": own("jobs.fingerprint"),
        "runner.sweep_s": incl("runner.sweep"),
        "runner.points_run": (observed["points"]
                              - observed["cache_hits"]) / passes,
        "runner.cache_hit_frac": share(observed["cache_hits"],
                                       observed["points"]),
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": share(traced_s - plain_s, plain_s),
        "trace.spans": tracer.span_count() / passes,
        "trace.absent_entry_points": len(tracer.absent),
    })
    for part in ("get", "put", "query", "payload", "record"):
        metrics[f"store.{part}_s"] = own(f"store.{part}")
        metrics[f"store.{part}.calls"] = calls(f"store.{part}")
    for reason, count in observed["fallbacks"].items():
        bucket = next((b for prefix, b in FALLBACK_BUCKETS
                       if reason.startswith(prefix)), "other")
        metrics[f"kernel.fallback.{bucket}"] += count / passes
    return metrics


# -- main ------------------------------------------------------------------


def emit(tally, metrics: dict, declared: dict) -> None:
    """The result line: exactly the ``declared`` metrics, in their units."""
    if {n: u for n, (_, u) in metrics.items()} != declared:
        raise RuntimeError("metrics do not match BENCHMARK.json's list")
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))


def main(argv=None) -> int:
    args = parse_args(argv)
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        return refuse("refusing to run with REPRO_* knobs set"
                      f" ({', '.join(knobs)}); the benchmark measures the"
                      " default configuration")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return refuse(f"no program to measure: {ROOT}/src/repro is missing;"
                      " run from the root of a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    # The reference loop's data is built before the program allocates.
    import pbench.calibrate  # noqa: F401
    # Keep every scratch file, the kernel compiler's included, in the
    # checkout.
    scratch = os.path.join(WORK, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    if args.workload in PINNED:   # inherited by threads and set-up probes
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    # One-time costs first, so set-up samples see a warm kernel cache.
    from repro.dram.kernel import backend_info

    kernel = backend_info()
    setup_samples = measure_setup(args.workload, args.seed)
    state = setup(args.workload, args.seed)
    env = environment(state["service"].backend if "service" in state
                      else None)
    print("env " + json.dumps(env))
    if kernel.get("compiled_this_process"):
        print(f"kernel_build_s {kernel.get('build_seconds', 0.0):.3f}"
              " (one-time compile, outside setup_s)")
    print("setup_samples_s " + json.dumps(setup_samples))

    serve = args.workload == "serve-mixed"
    if args.trace:
        if serve:
            tally, layers, tracer, observed = serve_traced(state,
                                                           args.seconds)
        else:
            tally, layers, tracer, observed = emu_traced(
                args.workload, args.seed, args.seconds)
        for reason, count in sorted(observed["fallbacks"].items()):
            print(f"fallback {count:8d}  {reason} (all traced passes)")
        for name in tracer.absent:
            print(f"absent   {name}")
        for name, unit in PER_LAYER.items():
            print(f"{name:34s} {layers[name]:>16.6g} {unit}")
        spans = os.path.join(WORK, f"spans-{args.workload}.tsv")
        os.makedirs(WORK, exist_ok=True)
        tracer.write(spans)
        print(f"spans    {os.path.relpath(spans, ROOT)}")
        for reason in tally.failures.values():
            print(f"FAILED: {reason}")
        emit(tally, {name: (layers[name], unit)
                     for name, unit in PER_LAYER.items()}, PER_LAYER)
        return 0

    if serve:
        tally, metrics, extra, counts = serve_untraced(state, args.seconds)
    else:
        tally, metrics, extra, counts = emu_untraced(args.workload, args.seed,
                                                     args.seconds)
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    print("samples " + json.dumps(counts))
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:18s} {shown:>14s} {unit}")
    for reason in tally.failures.values():
        print(f"FAILED: {reason}")
    emit(tally, metrics, END_TO_END)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
