"""Figure 16 (extension) — multi-core contention and scheduler fairness.

The paper's evaluated system drives the memory controller from a single
in-order core, so the request table never holds competing streams.  This
experiment extends the reproduction beyond the paper: the mixed workload
``stream+init+pointer_chase`` (a bandwidth-hungry copy stream, a store
stream whose writebacks fight the reads, and a latency-critical
dependent-load chase) runs on 1, 2, and 4 cores sharing one DDR4
channel, under both schedulers the EasyAPI software library ships, and
we report

* **per-core slowdown** — each core's completion cycles under contention
  over its solo run on an identical system.  Average slowdown must grow
  *monotonically* with core count (more cores, more contention) and is
  exactly 1.0 at one core (the solo run is the run);
* **max/min fairness** — the classic unfairness metric (most-slowed over
  least-slowed core).  The pointer chaser, which cannot overlap misses,
  is always the victim;
* **row-hit rate per scheduler** — FR-FCFS (with the anti-starvation
  age cap) recovers row-buffer locality that FCFS's strict arrival
  order destroys when streams from different cores interleave, so its
  row-hit rate must be at least FCFS's at every core count.

Every point is a deterministic emulation (no wall-time axis), so the
sweep is parallel-safe and the assertions above are exact, not
statistical.
"""

from __future__ import annotations

from repro.analysis import bar_chart, format_table
from repro.core.config import ControllerConfig, jetson_nano_time_scaling
from repro.core.workload_mix import WorkloadMix, run_mix
from repro.experiments.common import full_runs_enabled, scaled_cache_overrides
from repro.runner import SweepPoint, SweepSpec, register

#: Core counts swept at fixed (single-channel DDR4) topology.
CORE_COUNTS = (1, 2, 4)

#: Both schedulers of the EasyAPI software library (Table 2).
SCHEDULERS = ("fcfs", "fr-fcfs")

#: The mixed workload, cycled over the cores of each point.
MIX_SPEC = "stream+init+pointer_chase"

#: FR-FCFS anti-starvation guard: the oldest table entry is served once
#: this many newer arrivals have bypassed it.
AGE_CAP = 64


def sweep_point(cores: int, scheduler: str, scale: int = 1) -> dict:
    """Run the mix on ``cores`` cores under ``scheduler``."""
    config = jetson_nano_time_scaling(
        **scaled_cache_overrides()).with_overrides(
        controller=ControllerConfig(
            scheduler=scheduler,
            scheduler_age_cap=AGE_CAP if scheduler == "fr-fcfs" else None))
    mix = WorkloadMix.parse(MIX_SPEC, cores=cores)
    run = run_mix(config, mix, scale=scale)
    result = run.result
    row_total = result.row_hits + result.row_misses + result.row_conflicts
    return {
        "cores": cores,
        "scheduler": scheduler,
        "mix": list(mix.names),
        "emulated_ms": result.emulated_ps / 1e9,
        "avg_slowdown": run.avg_slowdown,
        "max_slowdown": run.max_slowdown,
        "min_slowdown": run.min_slowdown,
        "unfairness": run.unfairness,
        "row_hit_rate": result.row_hits / row_total if row_total else 0.0,
        "core_cycles": run.core_cycles,
        "solo_cycles": run.solo_cycles,
        "slowdowns": run.slowdowns,
        # per_core slices only exist on multi-core sessions; the 1-core
        # point's lone entry is the channel total.
        "requests_per_core": (
            [c.serviced_reads + c.serviced_writes for c in result.per_core]
            or [sum(result.requests_per_channel)]),
    }


def _build_points(core_counts: tuple[int, ...] = CORE_COUNTS,
                  schedulers: tuple[str, ...] = SCHEDULERS,
                  scale: int | None = None) -> tuple[SweepPoint, ...]:
    if scale is None:
        scale = 2 if full_runs_enabled() else 1
    return tuple(
        SweepPoint(artifact="fig16", point_id=f"{cores}core-{scheduler}",
                   fn=f"{__name__}:sweep_point",
                   params={"cores": cores, "scheduler": scheduler,
                           "scale": scale})
        for scheduler in schedulers for cores in core_counts)


def _combine(results: dict) -> dict:
    points = sorted(results.values(),
                    key=lambda v: (v["scheduler"], v["cores"]))
    rows = [(v["scheduler"], v["cores"],
             round(v["avg_slowdown"], 3), round(v["max_slowdown"], 3),
             round(v["unfairness"], 3), round(v["row_hit_rate"], 4),
             round(v["emulated_ms"], 4))
            for v in points]
    by_sched = {s: [v for v in points if v["scheduler"] == s]
                for s in {v["scheduler"] for v in points}}
    monotonic = {
        s: all(b["avg_slowdown"] >= a["avg_slowdown"] - 1e-9
               for a, b in zip(vals, vals[1:]))
        for s, vals in by_sched.items()}
    # FR-FCFS vs FCFS row-hit rate at each shared core count.
    frfcfs_wins = True
    core_counts = sorted({v["cores"] for v in points})
    if "fcfs" in by_sched and "fr-fcfs" in by_sched:
        fcfs = {v["cores"]: v["row_hit_rate"] for v in by_sched["fcfs"]}
        fr = {v["cores"]: v["row_hit_rate"] for v in by_sched["fr-fcfs"]}
        frfcfs_wins = all(fr[c] >= fcfs[c] - 1e-9 for c in core_counts
                          if c in fr and c in fcfs)
    return {
        "rows": rows,
        "core_counts": core_counts,
        "schedulers": sorted(by_sched),
        "avg_slowdowns": {s: [v["avg_slowdown"] for v in vals]
                          for s, vals in by_sched.items()},
        "row_hit_rates": {s: [v["row_hit_rate"] for v in vals]
                          for s, vals in by_sched.items()},
        "unfairness": {s: [v["unfairness"] for v in vals]
                       for s, vals in by_sched.items()},
        "slowdown_monotonic": monotonic,
        "frfcfs_hit_rate_wins": frfcfs_wins,
        "details": {f"{v['cores']}core-{v['scheduler']}": v for v in points},
    }


def run(core_counts: tuple[int, ...] = CORE_COUNTS,
        schedulers: tuple[str, ...] = SCHEDULERS,
        scale: int | None = None) -> dict:
    points = _build_points(core_counts=tuple(core_counts),
                           schedulers=tuple(schedulers), scale=scale)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="fig16", title="Figure 16 (core contention)", module=__name__,
    build_points=_build_points, combine=_combine,
    csv_headers=("scheduler", "cores", "avg slowdown", "max slowdown",
                 "unfairness", "row-hit rate", "emulated ms"),
    description="multi-core contention: slowdown, max/min fairness, and"
                " row-hit rate for FCFS vs FR-FCFS on a shared channel",
    runtime="~1 s"))


def report(result: dict) -> str:
    table = format_table(
        ["scheduler", "cores", "avg slowdown", "max slowdown", "unfairness",
         "row-hit rate", "emulated ms"],
        result["rows"],
        title=f"Figure 16 — contention on the {MIX_SPEC} mix")
    labels = [f"{c}core" for c in result["core_counts"]]
    chart = bar_chart(
        labels,
        {s: vals for s, vals in result["avg_slowdowns"].items()},
        title="\nFigure 16 (chart): average slowdown vs core count")
    notes = []
    for sched, ok in sorted(result["slowdown_monotonic"].items()):
        notes.append(f"{sched}: slowdown monotone in cores"
                     if ok else f"WARNING: {sched} slowdown not monotone")
    notes.append("FR-FCFS row-hit rate >= FCFS at every core count"
                 if result["frfcfs_hit_rate_wins"] else
                 "WARNING: FCFS beat FR-FCFS on row-hit rate")
    return table + "\n" + chart + "\n" + "\n".join(notes)


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
