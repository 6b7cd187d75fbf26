"""Figure 12 — minimum reliable tRCD of rows across two banks.

DRAM characterization heatmap: the minimum tRCD at which each row of the
first two banks serves correct data, with 4K rows per bank arranged in
64-row groups.  Paper findings: every row works below the nominal
13.5 ns; 84.5 % of rows are strong (<= 9.0 ns); weak rows cluster within
specific banks and areas.

The sweep uses the emulated profiling path (Section 8.1's profiling
requests through DRAM Bender) on a row sample and the fast oracle for
the full heatmap — the two are asserted identical on the sample.
"""

from __future__ import annotations

from repro.analysis import format_table, heatmap
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.dram.timing import ns
from repro.profiling.characterize import (
    characterize,
    oracle_characterize,
)
from repro.runner import SweepPoint, SweepSpec, register


#: Rows profiled per bank: a 1,024-row sample at CI scale, every row of
#: the Jetson geometry at paper scale.
CI_ROWS = 1024
PAPER_ROWS = jetson_nano_time_scaling().geometry.rows_per_bank


def _profile(banks: int, rows: int, emulated_sample_rows: int):
    """Characterize ``banks`` x ``rows``; returns (JSON dict, oracle)."""
    system = EasyDRAMSystem(jetson_nano_time_scaling())
    oracle = oracle_characterize(
        system.tile.cells, system.config.geometry, range(banks), range(rows))
    # Cross-check a sample through the real profiling-request path.
    session = system.session("characterize")
    sample_rows = range(0, rows, max(1, rows // emulated_sample_rows))
    emulated = characterize(session, range(1), sample_rows,
                            cols_per_row_sampled=1)
    mismatches = sum(
        1 for key, profile in emulated.profiles.items()
        if oracle.profiles[key].min_trcd_ps != profile.min_trcd_ps)
    strong = oracle.strong_fraction(threshold_ps=ns(9.0))
    maps = [oracle.heatmap(bank, rows, group=64) for bank in range(banks)]
    summary_rows = []
    for bank in range(banks):
        values = [oracle.min_trcd(bank, row) / 1000.0 for row in range(rows)]
        summary_rows.append((
            f"bank {bank + 1}", round(min(values), 2),
            round(sum(values) / len(values), 2), round(max(values), 2)))
    return {
        "rows": rows,
        "banks": banks,
        "strong_fraction": strong,
        "weak_fraction": 1.0 - strong,
        "emulated_sample_mismatches": mismatches,
        "emulated_sample_size": len(emulated.profiles),
        "heatmaps": maps,
        "summary_rows": summary_rows,
    }, oracle


def sweep_point(banks: int, rows: int, emulated_sample_rows: int) -> dict:
    return _profile(banks, rows, emulated_sample_rows)[0]


def run(banks: int = 2, rows: int = CI_ROWS,
        emulated_sample_rows: int = 8) -> dict:
    """Profile ``banks`` x ``rows`` and build Figure 12's heatmap."""
    result, oracle = _profile(banks, rows, emulated_sample_rows)
    return result | {"characterization": oracle}


def _build_points(banks: int = 2, rows: int = CI_ROWS,
                  emulated_sample_rows: int = 8) -> tuple[SweepPoint, ...]:
    return (SweepPoint(
        artifact="fig12", point_id="heatmap",
        fn=f"{__name__}:sweep_point",
        params={"banks": banks, "rows": rows,
                "emulated_sample_rows": emulated_sample_rows}),)


def _combine(results: dict) -> dict:
    return results["heatmap"]


SWEEP = register(SweepSpec(
    artifact="fig12", title="Figure 12", module=__name__,
    build_points=_build_points, combine=_combine,
    paper_overrides={"rows": PAPER_ROWS},
    csv_headers=("bank", "min tRCD ns", "mean", "max"),
    description="per-row minimum reliable tRCD heatmap (~84.5% strong rows)",
    runtime="~1 s"))


def report(result: dict) -> str:
    blocks = [
        "Figure 12 — minimum reliable tRCD per row (nominal 13.5 ns)",
        f"strong rows (<=9.0 ns): {result['strong_fraction'] * 100:.1f}%"
        f" (paper: 84.5%)   weak rows: {result['weak_fraction'] * 100:.1f}%"
        f" (paper: 15.5%)",
        f"emulated-vs-oracle sample mismatches:"
        f" {result['emulated_sample_mismatches']}"
        f"/{result['emulated_sample_size']}",
    ]
    for bank, grid in enumerate(result["heatmaps"]):
        blocks.append(heatmap(
            grid, title=f"\nBank {bank + 1} (row groups x rows; ns)",
            vmin=8.0, vmax=10.5))
    blocks.append("\n" + format_table(
        ["bank", "min tRCD ns", "mean", "max"], result["summary_rows"]))
    return "\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
