"""Tests for the RowClone technique (end to end)."""

import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.rowclone import RowCloneTechnique
from repro.workloads.microbench import cpu_copy_blocks


@pytest.fixture
def session():
    return EasyDRAMSystem(jetson_nano_time_scaling()).session("rowclone")


@pytest.fixture
def technique(session):
    return RowCloneTechnique(session)


class TestPlanning:
    def test_rows_for_rounds_up(self, technique):
        row_bytes = technique.geometry.row_bytes
        assert technique.rows_for(row_bytes) == 1
        assert technique.rows_for(row_bytes + 1) == 2

    def test_copy_plan_covers_size(self, technique):
        size = 4 * technique.geometry.row_bytes
        plan = technique.plan_copy(size)
        assert len(plan.pairs) == 4

    def test_copy_pairs_share_subarray(self, technique):
        plan = technique.plan_copy(8 * technique.geometry.row_bytes)
        g = technique.geometry
        for pair in plan.pairs:
            if pair.reliable:
                assert g.subarray_of(pair.src_row) == g.subarray_of(pair.dst_row)

    def test_copy_allocator_avoids_unreliable_pairs(self, technique):
        """The allocator tests candidates, so copy plans are almost
        entirely reliable pairs (unlike prescribed init targets)."""
        plan = technique.plan_copy(16 * technique.geometry.row_bytes)
        reliable = sum(1 for p in plan.pairs if p.reliable)
        assert reliable == len(plan.pairs)

    def test_init_plan_one_source_per_subarray(self, technique):
        plan = technique.plan_init(8 * technique.geometry.row_bytes)
        for (channel, bank, sub), src_row in plan.source_rows.items():
            assert technique.geometry.subarray_of(src_row) == sub
        for pair in plan.targets:
            key = (pair.channel, pair.bank,
                   technique.geometry.subarray_of(pair.dst_row))
            assert plan.source_rows[key] == pair.src_row

    def test_init_prescribed_targets_include_failures(self, technique):
        """With a ~30% pair-failure rate, a large prescribed-target init
        must hit some unclonable pairs (footnote 6's fallback)."""
        plan = technique.plan_init(64 * technique.geometry.row_bytes)
        unreliable = sum(1 for p in plan.targets if not p.reliable)
        assert 0 < unreliable < len(plan.targets)

    def test_rows_never_reused(self, technique):
        plan_a = technique.plan_copy(4 * technique.geometry.row_bytes)
        plan_b = technique.plan_copy(
            4 * technique.geometry.row_bytes,
            base_addr=64 * technique.geometry.row_bytes)
        used = set()
        for plan in (plan_a, plan_b):
            for pair in plan.pairs:
                assert (pair.bank, pair.dst_row) not in used
                used.add((pair.bank, pair.dst_row))

    def test_requires_row_contiguous_mapping(self):
        config = jetson_nano_time_scaling(mapping_scheme="bank-interleaved")
        session = EasyDRAMSystem(config).session("bad")
        with pytest.raises(ValueError, match="row-contiguous"):
            RowCloneTechnique(session)


class TestExecution:
    def test_copy_moves_real_data(self, session, technique):
        size = 2 * technique.geometry.row_bytes
        plan = technique.plan_copy(size)
        device = session.system.device
        for i, pair in enumerate(plan.pairs):
            device.preload_row(pair.bank, pair.src_row,
                               bytes([i + 1]) * technique.geometry.row_bytes)
        technique.execute_copy(plan)
        assert technique.copy_is_correct(plan)
        for i, pair in enumerate(plan.pairs):
            assert device.row_data(pair.bank, pair.dst_row) == (
                bytes([i + 1]) * technique.geometry.row_bytes)

    def test_copy_advances_emulated_time(self, session, technique):
        plan = technique.plan_copy(technique.geometry.row_bytes)
        before = session.processor.cycles
        technique.execute_copy(plan)
        assert session.processor.cycles > before

    def test_clflush_copy_flushes_dirty_source(self, session, technique):
        from repro.cpu.memtrace import store

        size = technique.geometry.row_bytes
        plan = technique.plan_copy(size)
        session.run_trace([store(plan.src_addr + i * 64, gap=1)
                           for i in range(size // 64)])
        technique.execute_copy(plan, clflush=True)
        assert technique.stats.flushed_lines > 0
        assert technique.copy_is_correct(plan)

    def test_init_falls_back_for_unreliable_targets(self, session, technique):
        size = 32 * technique.geometry.row_bytes
        plan = technique.plan_init(size, base_addr=1 << 22)
        technique.execute_init(plan, include_source_setup=False)
        expected_fallbacks = sum(1 for p in plan.targets if not p.reliable)
        assert technique.stats.fallback_rows == expected_fallbacks
        ok = sum(1 for p in plan.targets if p.reliable)
        assert technique.stats.rowclone_ops == ok

    def test_emulated_pair_test_agrees_with_oracle(self, session):
        technique = RowCloneTechnique(session, use_oracle_testing=False,
                                      test_attempts=60)
        cells = session.system.tile.cells
        g = technique.geometry
        checked = 0
        for dst in range(1, g.subarray_rows):
            oracle = cells.rowclone_pair_reliable(0, 0, dst)
            if oracle:
                assert technique.test_pair_emulated(0, 0, dst, attempts=30)
                checked += 1
            if checked >= 2:
                break
        assert checked >= 1

    def test_emulated_test_detects_cross_subarray(self, session):
        technique = RowCloneTechnique(session, use_oracle_testing=False)
        g = technique.geometry
        assert not technique.pair_is_clonable(0, 0, g.subarray_rows)


class TestSpeedupShape:
    def test_rowclone_beats_cpu_copy(self):
        """The core claim: in-DRAM copy is much faster than ld/st copy."""
        size = 8 * 8192
        cpu = EasyDRAMSystem(jetson_nano_time_scaling()).run(
            cpu_copy_blocks(0, 1 << 24, size), "cpu")
        session = EasyDRAMSystem(jetson_nano_time_scaling()).session("rc")
        technique = RowCloneTechnique(session)
        plan = technique.plan_copy(size)
        technique.execute_copy(plan)
        rc = session.finish()
        assert cpu.emulated_ps / rc.emulated_ps > 5


class TestEngagement:
    """RowClone's hot paths stay engaged: no Bender program per RowClone,
    and no cache-list round trip per CLFLUSH range or fallback row."""

    def _walks(self, system):
        """Record the command kinds of every program Bender walks."""
        walks = []
        engine = system.tile.engine
        original = engine.execute

        def execute(program, start_ps=0):
            walks.append(tuple(ins.command.kind.value
                               for ins in program.instructions
                               if ins.command is not None))
            return original(program, start_ps=start_ps)

        engine.execute = execute
        return walks

    @pytest.mark.parametrize("op", ("copy", "init"))
    def test_rowclone_ops_stage_no_bender_program(self, op):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("engagement")
        tech = RowCloneTechnique(session)
        walks = self._walks(system)
        size = 96 * tech.geometry.row_bytes
        if op == "copy":
            tech.execute_copy(tech.plan_copy(size))
        else:
            tech.execute_init(tech.plan_init(size, base_addr=1 << 22),
                              include_source_setup=False)
        assert tech.stats.rowclone_ops > 0
        if system.smc._kernel_state is not None:
            # The rows ran in the kernel, their refreshes included.
            assert walks == []
            assert system.smc.stats.refreshes > 0
        else:
            # Kernel off: each RowClone walks its staged FPM program, and
            # the refreshes falling due inside the episodes walk theirs.
            fpm = ("ACT", "PRE", "ACT", "PRE")
            assert walks.count(fpm) == tech.stats.rowclone_ops
            assert set(walks) == {fpm, ("PREA", "REF")}
            assert len(walks) - walks.count(fpm) <= \
                system.smc.stats.refreshes
        assert system.smc.stats.technique_ops == tech.stats.rowclone_ops

    @pytest.mark.parametrize("op", ("copy", "init"))
    def test_clflush_ops_keep_the_resident_cache_copy(self, op, monkeypatch,
                                                      kernel_on):
        import dataclasses

        from repro.dram.kernel import blockrun, cbackend
        from repro.workloads import microbench

        if cbackend.load()[0] is None:
            pytest.skip("no C compiler for the kernel")
        loads, write_backs = [], []
        load_sets, write_back = blockrun._load_sets, blockrun._Loan.write_back
        monkeypatch.setattr(
            blockrun, "_load_sets",
            lambda level, arrays, sets: (loads.append(sets is None),
                                         load_sets(level, arrays, sets)))
        monkeypatch.setattr(
            blockrun._Loan, "write_back",
            lambda loan, level: (write_backs.append(level.name),
                                 write_back(loan, level)))
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("engagement")
        tech = RowCloneTechnique(session)
        size = 24 * tech.geometry.row_bytes
        if op == "copy":
            plan = tech.plan_copy(size)
            # Every third row falls back to a CPU copy.
            plan.pairs = [dataclasses.replace(pair, reliable=i % 3 != 0)
                          for i, pair in enumerate(plan.pairs)]
            session.run_trace(microbench.touch_blocks(0, size, write=True))
            tech.execute_copy(plan, clflush=True)
        else:
            plan = tech.plan_init(size, base_addr=1 << 22)
            session.run_trace(microbench.touch_blocks(1 << 22, size,
                                                      write=True))
            tech.execute_init(plan, clflush=True)
        session.finish()
        assert tech.stats.fallback_rows > 0 and tech.stats.flushed_lines > 0
        # The fresh hierarchy is never flattened: the first replay starts
        # its copy from empty sets, every later replay and CLFLUSH range
        # works on that copy, and no way list is ever built.
        assert loads == []
        assert write_backs == []
        for level in (session.hierarchy.l1, session.hierarchy.l2):
            assert "_tags" not in level.__dict__
            assert level.__dict__["_loan"].lists is None

    @pytest.mark.parametrize("op", ("copy", "init"))
    def test_clflush_writebacks_skip_the_object_path(self, op, monkeypatch,
                                                     kernel_on):
        """CLFLUSH writebacks reach the kernel as arrays: no writeback
        request is built and ``service_pending`` never runs."""
        import dataclasses

        from repro.core import smc as smc_module
        from repro.core import system as system_module
        from repro.cpu import processor as processor_module
        from repro.dram.kernel import cbackend
        from repro.workloads import microbench

        if cbackend.load()[0] is None:
            pytest.skip("no C compiler for the kernel")
        built, pending, served = [], [], []

        def spy(module):
            cls = module.MemoryRequest

            def make(*args, **kwargs):
                request = cls(*args, **kwargs)
                if request.is_writeback:
                    built.append(request)
                return request
            monkeypatch.setattr(module, "MemoryRequest", make)

        spy(system_module)
        spy(processor_module)
        controller = smc_module.SoftwareMemoryController
        service_pending = controller.service_pending
        entry = controller.service_writebacks_kernel
        monkeypatch.setattr(
            controller, "service_pending",
            lambda smc, requests: (pending.append(len(requests)),
                                   service_pending(smc, requests)))

        def writebacks(smc, tags, addrs):
            last = entry(smc, tags, addrs)
            served.append((len(tags), last is not None))
            return last
        monkeypatch.setattr(controller, "service_writebacks_kernel",
                            writebacks)
        rows_entry = controller.rowclone_rows_kernel

        def rows_kernel(smc, rows, proc, finished, engine):
            # The plan's writebacks are served inside this entry.
            engaged = rows_entry(smc, rows, proc, finished, engine)
            dirty = sum(map(sum, finished))
            if dirty:
                served.append((dirty, engaged))
            return engaged
        monkeypatch.setattr(controller, "rowclone_rows_kernel", rows_kernel)
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("engagement")
        tech = RowCloneTechnique(session)
        size = 24 * tech.geometry.row_bytes
        if op == "copy":
            plan = tech.plan_copy(size)
            plan.pairs = [dataclasses.replace(pair, reliable=i % 3 != 0)
                          for i, pair in enumerate(plan.pairs)]
            session.run_trace(microbench.touch_blocks(0, size, write=True))
            tech.execute_copy(plan, clflush=True)
        else:
            plan = tech.plan_init(size, base_addr=1 << 22)
            session.run_trace(microbench.touch_blocks(1 << 22, size,
                                                      write=True))
            tech.execute_init(plan, clflush=True)
        session.finish()
        assert tech.stats.fallback_rows > 0 and tech.stats.flushed_lines > 0
        assert served and all(engaged for _, engaged in served)
        assert sum(n for n, _ in served) >= tech.stats.flushed_lines
        assert built == [] and pending == []

    def test_materialized_keys_merge_matches_a_rebuild(self, kernel_on):
        """The kernel's sorted materialized-row keys, merged as rows
        appear, equal a full sorted rebuild after RowClone ops, fallback
        rows, row preloads and CLFLUSH writebacks in any order."""
        import random

        from repro.core.easyapi import RowCloneOp
        from repro.dram.kernel import cbackend
        from repro.dram.kernel.state import St
        from repro.workloads import microbench

        if cbackend.load()[0] is None:
            pytest.skip("no C compiler for the kernel")
        rng = random.Random(5)
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("materialized")
        device = system.device
        g = system.config.geometry
        row_bytes = g.row_bytes
        checks = 0
        for _ in range(120):
            action = rng.choice(("clone", "clone", "preload", "fallback",
                                 "flush"))
            bank = rng.randrange(g.total_banks)
            if action == "clone":
                session.technique_op(RowCloneOp(
                    bank, rng.randrange(64), rng.randrange(64)))
                continue
            if action == "preload":
                device.preload_row(bank, rng.randrange(80),
                                   bytes([rng.randrange(256)]) * row_bytes)
                continue
            base = rng.randrange(256) * row_bytes
            if action == "fallback":
                session.run_trace(microbench.cpu_copy_blocks(
                    base, base + 256 * row_bytes, row_bytes))
            else:
                session.run_trace(microbench.touch_blocks(base, row_bytes,
                                                          write=True))
                assert session.clflush_range(base, row_bytes) > 0
            ks = system.smc._kernel_state
            keys = sorted((b << 32) | r for b, r in device._rows)
            assert ks.mat_keys.tolist() == keys
            assert int(ks.st[St.NMAT]) == len(keys)
            checks += 1
        assert checks > 20 and len(device._rows) > 50

    @pytest.mark.parametrize("op", ("copy", "init"))
    @pytest.mark.parametrize("clflush", (False, True))
    def test_reliable_rows_run_in_the_rows_entry(self, op, clflush,
                                                 monkeypatch, kernel_on):
        """On the benchmark's RowClone op shapes, the whole plan runs in
        one ``rowclone_rows_kernel`` call: no technique episode and no
        writeback entry call, the fallback rows' CLFLUSHes included."""
        from repro.core import smc as smc_module
        from repro.dram.kernel import cbackend
        from repro.workloads import microbench

        if cbackend.load()[0] is None:
            pytest.skip("no C compiler for the kernel")
        controller = smc_module.SoftwareMemoryController
        counts = {"episodes": 0, "writebacks": 0}
        runs = []
        episode = controller.technique_episode
        writebacks = controller.service_writebacks_kernel
        rows_entry = controller.rowclone_rows_kernel

        def count(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def rows_kernel(smc, rows, proc, finished, engine):
            engaged = rows_entry(smc, rows, proc, finished, engine)
            runs.append((len(rows), engaged, smc.kernel_fallback_reason))
            return engaged

        monkeypatch.setattr(controller, "technique_episode",
                            count("episodes", episode))
        monkeypatch.setattr(controller, "service_writebacks_kernel",
                            count("writebacks", writebacks))
        monkeypatch.setattr(controller, "rowclone_rows_kernel", rows_kernel)
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("engagement")
        tech = RowCloneTechnique(session)
        size = 384 * 1024
        if op == "copy":
            plan = tech.plan_copy(size, base_addr=0)
            if clflush:
                session.run_trace(microbench.touch_blocks(0, size,
                                                          write=True))
            tech.execute_copy(plan, clflush=clflush)
        else:
            plan = tech.plan_init(size, base_addr=1 << 24)
            if clflush:
                session.run_trace(microbench.touch_blocks(1 << 24, size,
                                                          write=True))
            tech.execute_init(plan, clflush=clflush,
                              include_source_setup=False)
        session.finish()
        stats = tech.stats
        assert stats.rowclone_ops > 0
        assert runs == [(stats.rowclone_ops + stats.fallback_rows, True,
                         None)]
        assert counts["episodes"] == counts["writebacks"] == 0
        if op == "init":
            assert stats.fallback_rows > 0

    @pytest.mark.parametrize("case, reason", (
        ("strict", "strict timing mode"),
        ("activations", "row-activation tracking enabled"),
        ("2ch", "multi-channel topology"),
        ("kernel-off", "disabled for this system (kernel=False)"),
    ))
    def test_rows_entry_declines_with_a_reason(self, case, reason,
                                               kernel_on):
        """Each decline records its reason, leaves everything untouched,
        and the drivers fall back to the per-row path."""
        import dataclasses

        from repro.core.config import InterferenceConfig
        from repro.dram.kernel import cbackend

        if cbackend.load()[0] is None:
            pytest.skip("no C compiler for the kernel")
        config = jetson_nano_time_scaling()
        if case == "activations":
            config = jetson_nano_time_scaling(
                interference=InterferenceConfig(track_row_activations=True))
        elif case == "2ch":
            config = config.with_topology("ddr4-2ch")
        system = EasyDRAMSystem(config, kernel=case != "kernel-off")
        session = system.session("decline")
        if case == "strict":
            # Switched on after the kernel resolved for a first request.
            session.run_trace([])
            system.device.checker.strict = True
        before = (session.processor.cycles, system.smc.stats.technique_ops)
        finished = []
        assert session.rowclone_rows([(1, 2, 3, (), None)], finished) is False
        assert finished == []
        assert [smc.kernel_fallback_reason for smc in system.smcs] == \
            [reason] * system.num_channels
        assert (session.processor.cycles,
                system.smc.stats.technique_ops) == before
        if case in ("strict", "2ch"):
            return
        tech = RowCloneTechnique(session)
        plan = tech.plan_copy(4 * tech.geometry.row_bytes)
        plan.pairs = [dataclasses.replace(pair, reliable=True)
                      for pair in plan.pairs]
        tech.execute_copy(plan, clflush=True)
        assert system.smc.stats.technique_ops == tech.stats.rowclone_ops == 4
