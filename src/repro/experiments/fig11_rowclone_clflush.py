"""Figure 11 — RowClone speedup, CLFLUSH setting.

Same sweep as Figure 10 but in the worst-case coherence setting: the
operands have dirty cached copies, so the RowClone variant must flush
(write back / invalidate) cache lines before each in-DRAM operation
while the CPU variant enjoys the warm cache.

Paper shapes: Copy speedups compress to ~3-4x; Init *degrades* system
performance at small sizes (<= 256 KiB with time scaling) and only wins
above; benefits grow with array size as flush work amortizes.
"""

from __future__ import annotations

from repro.experiments import fig10_rowclone_noflush as fig10
from repro.experiments.rowclone_common import CI_SIZES, PAPER_SIZES
from repro.runner import SweepPoint, SweepSpec, register


def run(sizes: tuple[int, ...] = CI_SIZES) -> dict:
    return fig10.run(sizes=sizes, clflush=True)


def report(result: dict) -> str:
    return fig10.report(result, figure="Figure 11", setting="CLFLUSH")


def _build_points(sizes: tuple[int, ...] = CI_SIZES
                  ) -> tuple[SweepPoint, ...]:
    return fig10._build_points(sizes=sizes, clflush=True, artifact="fig11")


def _combine(results: dict) -> dict:
    return fig10._combine(results, clflush=True)


SWEEP = register(SweepSpec(
    artifact="fig11", title="Figure 11", module=__name__,
    build_points=_build_points, combine=_combine,
    paper_overrides={"sizes": PAPER_SIZES},
    description="RowClone speedup in the CLFLUSH (dirty-cache) setting",
    runtime="~12 s"))


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
