"""Shared fixtures for the test suite.

``--kernel=off`` runs the whole suite with the compiled serve kernel
unavailable (every system serves on the flat closures and the object
path, as on a host without a C compiler); the ``kernel_on``,
``kernel_off`` and ``cycle_engine`` fixtures pick a single test's serve
paths whatever the option says.

The option patches the backend resolver in the pytest process only.
Sweep workers of ``runner/scheduler.py`` inherit the patch because
Linux forks them; under the spawn or forkserver start methods (the
default from Python 3.14) they would load the kernel again.
``tests/dram/test_kernel_fallback.py::
test_kernel_option_reaches_sweep_workers`` fails if that happens.
"""

from __future__ import annotations

import pytest

import repro.core.engine
import repro.dram.kernel
from kernel_paths import RESOLVE_BACKEND, no_kernel
from repro.dram.address import AddressMapper, Geometry
from repro.dram.cells import CellArrayModel, CellModelConfig
from repro.dram.device import DramDevice
from repro.dram.timing import ddr4_1333


@pytest.fixture
def timing():
    return ddr4_1333()


@pytest.fixture
def geometry():
    """A small geometry that keeps sweeps fast."""
    return Geometry(bank_groups=2, banks_per_group=2, rows_per_bank=256,
                    columns_per_row=32, subarray_rows=64)


@pytest.fixture
def full_geometry():
    """The paper's full single-rank DDR4 shape (footnote 5)."""
    return Geometry(bank_groups=4, banks_per_group=4, rows_per_bank=32768,
                    columns_per_row=128, subarray_rows=512)


@pytest.fixture
def cells(geometry):
    return CellArrayModel(geometry, CellModelConfig(seed=1234))


@pytest.fixture
def device(timing, geometry, cells):
    return DramDevice(timing, geometry, cells=cells, strict_timing=False)


@pytest.fixture
def strict_device(timing, geometry, cells):
    return DramDevice(timing, geometry, cells=cells, strict_timing=True)


@pytest.fixture
def mapper(geometry):
    return AddressMapper(geometry, "row-bank-col")


def pytest_addoption(parser):
    parser.addoption(
        "--kernel", choices=("auto", "off"), default="auto",
        help="auto: the compiled serve kernel engages when a C compiler"
             " builds it; off: every test runs without it")


@pytest.fixture(autouse=True)
def _kernel_option(request, monkeypatch):
    if request.config.getoption("--kernel") == "off":
        no_kernel(monkeypatch, "disabled (--kernel=off)")


@pytest.fixture
def kernel_on(_kernel_option, monkeypatch):
    """The compiled kernel engages when it loads, even under
    ``--kernel=off``."""
    monkeypatch.setattr(repro.dram.kernel, "resolve_backend",
                        RESOLVE_BACKEND)


@pytest.fixture
def kernel_off(_kernel_option, monkeypatch):
    """No system of this test engages the compiled kernel."""
    no_kernel(monkeypatch, "disabled (kernel_off fixture)")


@pytest.fixture
def cycle_engine(monkeypatch):
    """Systems built without an explicit engine run the cycle engine."""
    monkeypatch.setattr(repro.core.engine, "DEFAULT_ENGINE", "cycle")
