"""The tracer: spans from wrapped entry points, restore, absent layers."""

import sys
import threading
import time
import types

import pytest

from pbench.stats import self_time_by_name
from pbench.tracer import EntryPoint, Tracer


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("pbench_fake_program")

    class Device:
        def issue(self):
            time.sleep(0.002)

    class Controller:
        def __init__(self):
            self.device = Device()
            self.issue = self.device.issue   # hoisted at construction

        def serve(self, n):
            for _ in range(n):
                self.issue()
            return n

    module.Device = Device
    module.Controller = Controller
    module.helper = lambda: "plain"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


ENTRIES = [EntryPoint("smc", "smc", "pbench_fake_program", "Controller",
                      "serve"),
           EntryPoint("device", "device", "pbench_fake_program", "Device",
                      "issue")]


def test_nested_spans_and_totals(fake_module):
    tracer = Tracer()
    tracer.install(ENTRIES)
    try:
        ctl = fake_module.Controller()        # built after install
        tracer.set_op(7)
        assert ctl.serve(3) == 3
    finally:
        tracer.restore()
    spans = tracer.spans()
    assert [s.name for s in spans] == ["smc", "device", "device", "device"]
    assert all(s.op == 7 for s in spans)
    assert all(s.parent == spans[0].id for s in spans[1:])
    totals = tracer.totals()
    by_name = self_time_by_name(spans)
    for name in ("smc", "device"):
        assert totals[name]["calls"] == by_name[name][1]
        assert totals[name]["self_s"] == pytest.approx(by_name[name][0])
    assert totals["device"]["self_s"] >= 0.006
    assert totals["smc"]["self_s"] < totals["device"]["self_s"]


def test_spans_are_written_once_at_the_end(fake_module, tmp_path):
    tracer = Tracer()
    tracer.install(ENTRIES)
    try:
        fake_module.Controller().serve(2)
    finally:
        tracer.restore()
    path = tmp_path / "spans.tsv"
    tracer.write(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["id", "name", "start", "end", "parent",
                                    "op"]
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[1] for r in rows] == ["smc", "device", "device"]
    assert [r[4] for r in rows] == ["-1", "0", "0"]


def test_restore_puts_originals_back(fake_module):
    original = fake_module.Controller.serve
    tracer = Tracer()
    tracer.install(ENTRIES)
    assert fake_module.Controller.serve is not original
    tracer.restore()
    assert fake_module.Controller.serve is original
    fake_module.Controller().serve(1)
    assert tracer.span_count() == 0


def test_inherited_attribute_is_removed_on_restore(fake_module):
    class Sub(fake_module.Controller):
        pass

    fake_module.Sub = Sub
    tracer = Tracer()
    tracer.install([EntryPoint("x", "x", "pbench_fake_program", "Sub",
                               "serve")])
    assert "serve" in vars(Sub)
    tracer.restore()
    assert "serve" not in vars(Sub)


def test_missing_entry_point_is_reported_absent(fake_module, capsys):
    tracer = Tracer()
    tracer.install([EntryPoint("gone", "gone", "pbench_fake_program",
                               "Controller", "renamed_away"),
                    EntryPoint("gone", "gone", "pbench_no_such_module", None,
                               "f")] + ENTRIES)
    tracer.restore()
    assert len(tracer.absent) == 2
    assert "not found" in capsys.readouterr().err


def test_threads_keep_their_own_stacks(fake_module):
    tracer = Tracer()
    tracer.install(ENTRIES)
    try:
        ctl = fake_module.Controller()
        workers = [threading.Thread(target=ctl.serve, args=(2,))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        tracer.restore()
    spans = tracer.spans()
    roots = [s for s in spans if s.parent == -1]
    assert len(roots) == 2
    for root in roots:
        kids = [s for s in spans if s.parent == root.id]
        assert len(kids) == 2
        assert all(root.start <= k.start and k.end <= root.end for k in kids)


def test_observer_sees_return_values(fake_module):
    tracer = Tracer()
    seen = []
    tracer.on_enter["smc"] = lambda args: ("before", args[1])
    tracer.observers["smc"] = lambda result, args, entered: seen.append(
        (result, entered))
    tracer.install(ENTRIES)
    try:
        fake_module.Controller().serve(2)
    finally:
        tracer.restore()
    assert seen == [(2, ("before", 2))]
