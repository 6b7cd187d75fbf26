"""Failure accounting: any missed check fails its op exactly once."""

import dataclasses

from pbench.emu import first_difference
from pbench.service import load_payloads_equal
from pbench.stats import Tally


def test_tally_counts_an_op_once():
    tally = Tally()
    ops = [tally.attempt() for _ in range(4)]
    tally.fail(ops[1], "raised")
    tally.fail(ops[1], "wrong accesses")
    tally.fail(ops[3], "payload differs")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert tally.failures[ops[1]] == "raised"


def test_empty_tally():
    assert Tally().failed_frac == 0.0


def test_one_flipped_float_fails_the_payload_check():
    payloads_equal = load_payloads_equal()
    payload = {"rows": [["EasyDRAM", 1.25, 3, {"ns": 41.5}]]}
    same = {"rows": [["EasyDRAM", 1.25, 3, {"ns": 41.5}]]}
    flipped = {"rows": [["EasyDRAM", 1.25, 3, {"ns": 41.500000000000004}]]}
    assert payloads_equal(payload, same)
    assert not payloads_equal(payload, flipped)

    tally = Tally()
    for reply in (same, flipped, same):
        op = tally.attempt()
        if not payloads_equal(payload, reply):
            tally.fail(op, "payload differs")
    assert (tally.attempted, tally.failed) == (3, 1)
    assert list(tally.failures) == [1]


def test_first_difference_names_the_field():
    @dataclasses.dataclass
    class Result:
        cycles: int
        rows: list

    a = dataclasses.asdict(Result(10, [1, 2]))
    b = dataclasses.asdict(Result(10, [1, 3]))
    assert first_difference(a, a) is None
    assert first_difference(a, b) == ".rows[1]: 2 vs 3"
    assert "int vs float" in first_difference({"x": 1}, {"x": 1.0})


def _run_module():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(capsys) -> dict:
    import json

    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_emu_op_that_always_raises_still_reports(monkeypatch, capsys):
    from pbench import emu

    run = _run_module()

    def boom(op, engine=None):
        raise RuntimeError("no such op")

    monkeypatch.setitem(emu.ROUNDS, "emu-1core", lambda seed: [
        {"kind": "x", "cls": "read"}, {"kind": "x", "cls": "write"}])
    monkeypatch.setattr(emu, "run_op", boom)
    tally, metrics, extra, counts = run.emu_untraced("emu-1core", 1, 0.0)
    metrics["setup_s"] = (0.5, "s")
    run.emit(tally, metrics, run.END_TO_END)
    result = _result_line(capsys)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 2 * run.MIN_PASSES
    assert result["metrics"]["op_ref"]["value"] is None
    assert extra["failed_frac"][0] == 1.0


def test_serve_window_whose_cold_replies_all_fail(monkeypatch, capsys):
    from pbench import calibrate, service

    run = _run_module()
    replies = [service.Reply("cached", 1, 0.003, body={"x": 1}),
               service.Reply("query", (0, 1), 0.002, body={"rows": []}),
               service.Reply("cold", 2, 0.3, error="RuntimeError: boom"),
               service.Reply("cold", 3, 0.3, error="RuntimeError: boom")]

    class FakeService:
        def close(self):
            pass

    monkeypatch.setattr(service, "run_window",
                        lambda svc, plan, index, on_request=None:
                        (replies, 0.6))
    monkeypatch.setattr(calibrate, "reference_s", lambda: 0.01)
    monkeypatch.setattr(service, "check_replies",
                        lambda svc, got, work: [r.error for r in got])
    state = {"service": FakeService(), "plan": None}
    tally, metrics, extra, counts = run.serve_untraced(state, 0.0)
    metrics["setup_s"] = (0.5, "s")
    run.emit(tally, metrics, run.END_TO_END)
    result = _result_line(capsys)
    assert result["correct"] is False
    assert result["attempted"] == 4 * run.MIN_WINDOWS
    assert result["failed"] == 2 * run.MIN_WINDOWS
    assert result["metrics"]["write_ref"]["value"] is None
    # 3 ms cached replies after a 10 ms reference loop.
    assert result["metrics"]["read_ref"]["value"] == 0.3
    assert extra["read_ms"][0] == 3.0
