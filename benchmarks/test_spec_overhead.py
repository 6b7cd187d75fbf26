"""Benchmark: declarative-spec compilation stays invisible.

``repro run --spec`` adds a planning layer (YAML load, schema check,
point building, filtering) in front of every sweep.  This guard measures
that layer against the object reference oracle's fig08 emulation run
and asserts it stays under :data:`benchmarks.speed.SPEC_OVERHEAD_BUDGET`
(1%) of it — the spec machinery must never become a tax on the
experiments it schedules.

Run with ``-s`` to see the measured walls and the ratio.
"""

from __future__ import annotations

from benchmarks import speed


def test_spec_compile_under_one_percent_of_fig08(once):
    def measure():
        fig08 = speed.best_of(speed.fig08, {"oracle": speed.ORACLE})
        overhead = speed.measure_spec_overhead()
        return fig08["oracle"].wall, overhead

    fig08_wall, overhead = once(measure)
    ratio = overhead["compile_wall_s"] / fig08_wall
    print()
    print(f"  fig08 run:     {fig08_wall * 1000:.1f} ms")
    print(f"  spec validate: {overhead['validate_wall_s'] * 1000:.2f} ms")
    print(f"  spec compile:  {overhead['compile_wall_s'] * 1000:.2f} ms"
          f"  ({ratio:.2%} of the fig08 run)")
    failures = speed.check_spec_overhead(overhead, fig08_wall)
    assert not failures, failures
    # Validation alone (no point building) must be cheaper still.
    assert overhead["validate_wall_s"] <= overhead["compile_wall_s"]
