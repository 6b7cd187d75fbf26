"""Regenerate every paper artifact in one go.

``python -m repro.experiments.run_all`` is kept as a thin compatibility
wrapper around the unified CLI (``python -m repro run``): it prints
every artifact of :data:`repro.runner.registry.ARTIFACT_ORDER` back to
back through the parallel sweep runner (CI-scale; ``python -m repro
run --full`` runs the paper-scale sweeps; ``REPRO_JOBS=N`` shards points
across worker processes).  A failing artifact no longer aborts the stream: the
failure is reported per artifact and the exit status is nonzero.
"""

from __future__ import annotations

from repro.runner.cli import main as cli_main


def main() -> int:  # pragma: no cover - CLI entry
    return cli_main(["run"])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
