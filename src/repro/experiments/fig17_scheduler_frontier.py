"""Figure 17 (extension) — scheduler fairness/throughput frontier.

PR 7's scheduler zoo makes policy a swept axis: every registered
scheduler (:data:`repro.core.schedulers.SCHEDULERS`) runs the same
multi-programmed mixes on the same topologies, and each
(mix, topology) group reports the classic two-objective frontier of the
memory-scheduling literature:

* **weighted speedup** (throughput, higher is better) —
  ``sum_i 1/slowdown_i``, each core's solo-normalized progress;
* **max slowdown** (fairness, lower is better) — the most-victimized
  core's slowdown.

A scheduler is *on the frontier* of its group when no other scheduler
in that group beats it on one objective without losing the other
(non-dominated, with an epsilon so bit-equal points tie rather than
knock each other off).  The paper's FR-FCFS default (no age cap — the
exact single-core artifact configuration) is the reference point: it
lands on the frontier in at least one group, while the fairness-aware
policies (ATLAS-style ranking, batch scheduling) trade around it when
a latency-critical pointer chase shares the channel with bandwidth
hogs.

Every point is a deterministic emulation, so frontier membership is a
reproducible fact of the model, not a statistical claim.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.config import ControllerConfig, jetson_nano_time_scaling
from repro.core.schedulers import scheduler_names
from repro.core.workload_mix import WorkloadMix, run_mix
from repro.experiments.common import scaled_cache_overrides
from repro.runner import SweepPoint, SweepSpec, register

#: Every scheduler in the registry, in sorted-name order.
SCHEDULERS = scheduler_names()

#: Workload mixes (label -> spec), cycled over the cores of each point:
#: ``copy-init-chase`` adds a writeback-heavy store stream to the
#: bandwidth-vs-latency fight, ``copy-chase`` is the pure two-class mix.
MIXES = {
    "copy-init-chase": "stream+init+pointer_chase",
    "copy-chase": "stream+pointer_chase",
}

#: Memory-system topology presets swept (see ``config.TOPOLOGIES``).
TOPOLOGIES = ("ddr4-1ch", "ddr4-2ch")

#: Cores sharing the memory system at every point.
CORES = 4

#: Dominance epsilon: differences below this tie (bit-equal points all
#: stay on the frontier instead of knocking each other off).
EPS = 1e-9


def sweep_point(scheduler: str, mix_label: str, topology: str,
                scale: int = 1) -> dict:
    """Run one (scheduler, mix, topology) cell of the grid."""
    config = jetson_nano_time_scaling(
        **scaled_cache_overrides()).with_topology(topology).with_overrides(
        controller=ControllerConfig(scheduler=scheduler,
                                    scheduler_age_cap=None))
    mix = WorkloadMix.parse(MIXES[mix_label], cores=CORES)
    run = run_mix(config, mix, scale=scale)
    result = run.result
    slowdowns = run.slowdowns
    row_total = result.row_hits + result.row_misses + result.row_conflicts
    return {
        "scheduler": scheduler,
        "mix": mix_label,
        "topology": topology,
        "cores": CORES,
        "weighted_speedup": sum(1.0 / s for s in slowdowns if s > 0.0),
        "max_slowdown": run.max_slowdown,
        "min_slowdown": run.min_slowdown,
        "avg_slowdown": run.avg_slowdown,
        "unfairness": run.unfairness,
        "slowdowns": slowdowns,
        "row_hit_rate": result.row_hits / row_total if row_total else 0.0,
        "emulated_ms": result.emulated_ps / 1e9,
    }


def pareto_frontier(points: list[tuple[float, float]],
                    eps: float = EPS) -> list[int]:
    """Indices of non-dominated (throughput up, slowdown down) points.

    ``points`` are ``(weighted_speedup, max_slowdown)`` pairs.  Point j
    dominates point i when it is at least as good on both objectives
    and strictly better (beyond ``eps``) on one; equal points therefore
    never dominate each other, and both stay on the frontier.
    """
    frontier = []
    for i, (ws_i, sd_i) in enumerate(points):
        dominated = False
        for j, (ws_j, sd_j) in enumerate(points):
            if j == i:
                continue
            if (ws_j >= ws_i - eps and sd_j <= sd_i + eps
                    and (ws_j > ws_i + eps or sd_j < sd_i - eps)):
                dominated = True
                break
        if not dominated:
            frontier.append(i)
    return frontier


def _build_points(schedulers: tuple[str, ...] = SCHEDULERS,
                  mixes: tuple[str, ...] = tuple(MIXES),
                  topologies: tuple[str, ...] = TOPOLOGIES,
                  scale: int = 1) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(artifact="fig17",
                   point_id=f"{topology}-{mix_label}-{scheduler}",
                   fn=f"{__name__}:sweep_point",
                   params={"scheduler": scheduler, "mix_label": mix_label,
                           "topology": topology, "scale": scale})
        for topology in topologies
        for mix_label in mixes
        for scheduler in schedulers)


def _combine(results: dict) -> dict:
    points = sorted(results.values(),
                    key=lambda v: (v["topology"], v["mix"], v["scheduler"]))
    groups: dict[str, dict] = {}
    for value in points:
        key = f"{value['topology']}/{value['mix']}"
        groups.setdefault(key, []).append(value)
    frontiers = {}
    on_frontier: set[tuple[str, str, str]] = set()
    for key, members in groups.items():
        coords = [(v["weighted_speedup"], v["max_slowdown"]) for v in members]
        winners = pareto_frontier(coords)
        frontiers[key] = sorted(members[i]["scheduler"] for i in winners)
        for i in winners:
            v = members[i]
            on_frontier.add((v["topology"], v["mix"], v["scheduler"]))
    rows = [(v["topology"], v["mix"], v["scheduler"],
             round(v["weighted_speedup"], 4), round(v["max_slowdown"], 4),
             round(v["unfairness"], 4),
             "yes" if (v["topology"], v["mix"], v["scheduler"]) in on_frontier
             else "")
            for v in points]
    frfcfs_groups = sorted(k for k, scheds in frontiers.items()
                           if "fr-fcfs" in scheds)
    return {
        "rows": rows,
        "schedulers": sorted({v["scheduler"] for v in points}),
        "groups": sorted(groups),
        "frontiers": frontiers,
        "frfcfs_frontier_groups": frfcfs_groups,
        "frfcfs_on_frontier": bool(frfcfs_groups),
        "weighted_speedup": {
            f"{v['topology']}/{v['mix']}/{v['scheduler']}":
                v["weighted_speedup"] for v in points},
        "max_slowdown": {
            f"{v['topology']}/{v['mix']}/{v['scheduler']}":
                v["max_slowdown"] for v in points},
        "details": {f"{v['topology']}-{v['mix']}-{v['scheduler']}": v
                    for v in points},
    }


def run(schedulers: tuple[str, ...] = SCHEDULERS,
        mixes: tuple[str, ...] = tuple(MIXES),
        topologies: tuple[str, ...] = TOPOLOGIES,
        scale: int = 1) -> dict:
    points = _build_points(schedulers=tuple(schedulers), mixes=tuple(mixes),
                           topologies=tuple(topologies), scale=scale)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="fig17", title="Figure 17 (scheduler frontier)",
    module=__name__,
    build_points=_build_points, combine=_combine,
    paper_overrides={"scale": 2},
    csv_headers=("topology", "mix", "scheduler", "weighted speedup",
                 "max slowdown", "unfairness", "frontier"),
    description="scheduler x mix x topology sweep: weighted-speedup vs"
                " max-slowdown fairness/throughput frontier per group",
    runtime="~15 s"))


def report(result: dict) -> str:
    table = format_table(
        ["topology", "mix", "scheduler", "weighted speedup", "max slowdown",
         "unfairness", "frontier"],
        result["rows"],
        title=f"Figure 17 — scheduler frontier ({CORES}-core mixes)")
    notes = []
    for key in result["groups"]:
        notes.append(f"{key}: frontier = "
                     + ", ".join(result["frontiers"][key]))
    if result["frfcfs_on_frontier"]:
        notes.append("paper default fr-fcfs is on the frontier in: "
                     + ", ".join(result["frfcfs_frontier_groups"]))
    else:
        notes.append("WARNING: fr-fcfs fell off every group's frontier")
    return table + "\n" + "\n".join(notes)


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
