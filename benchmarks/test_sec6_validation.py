"""Benchmark: Section 6 time-scaling validation (<0.1% average error)."""

from repro.experiments import sec6_validation
from repro.workloads import polybench

#: A representative PolyBench subset for the CI-scale run; ``--full``
#: sweeps all kernels like the paper's 28-workload validation.
SUBSET = ("gemm", "gemver", "mvt", "trisolv", "durbin", "correlation",
          "syrk", "jacobi-2d", "atax", "cholesky")


def test_sec6_time_scaling_validation(once, full):
    kernels = list(polybench.names()) if full else list(SUBSET)
    result = once(sec6_validation.run, kernels=kernels, size="mini")
    print()
    print(sec6_validation.report(result))
    # The paper's headline bounds.
    assert result["avg_exec_error_pct"] < 0.1
    assert result["max_exec_error_pct"] < 1.0
