"""Checkpoint/resume: ``checkpoint_dir`` is a :class:`ResultStore`.

Round-trip, invalidation, corruption, concurrency and resume semantics
of the store behind the runners' ``checkpoint_dir`` and the CLI's
``--checkpoint DIR``.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.config import FetchPolicy, SimConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.parallel import ParallelRunner
from repro.core.runner import SimulationRunner
from repro.core.store import RESULT_STORE_VERSION, ResultStore, cell_digest
from repro.errors import ServiceError
from repro.obs import Observer

TRACE = 3_000
WARMUP = 600

ORACLE = SimConfig(policy=FetchPolicy.ORACLE)
RESUME = SimConfig(policy=FetchPolicy.RESUME)


def _cell(benchmark="li", config=ORACLE, trace=TRACE, warmup=WARMUP, seed=7):
    return (benchmark, config, trace, warmup, seed)


def _store(store, result, *cell):
    store.store(cell_digest(*cell), *cell, result)


def _load(store, *cell):
    return store.load(cell_digest(*cell), *cell)


@pytest.fixture(scope="module")
def results():
    runner = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
    return {"oracle": runner.run("li", ORACLE), "resume": runner.run("li", RESUME)}


def _assert_identical(mine, theirs):
    assert mine.program == theirs.program
    assert mine.penalties.as_dict() == theirs.penalties.as_dict()
    assert mine.counters.instructions == theirs.counters.instructions
    assert mine.total_ispi == theirs.total_ispi


class TestConfigKey:
    """The store's cell key, ``cell_digest``."""

    def test_stable_and_discriminating(self):
        assert cell_digest(*_cell()) == cell_digest(
            *_cell(config=SimConfig(policy=FetchPolicy.ORACLE))
        )
        assert cell_digest(*_cell()) != cell_digest(*_cell(config=RESUME))
        assert cell_digest(*_cell()) != cell_digest(
            *_cell(config=SimConfig(policy=FetchPolicy.ORACLE, prefetch=True))
        )

    def test_engine_backend_is_not_part_of_the_key(self):
        for backend in ("auto", "event", "vector"):
            assert cell_digest(*_cell()) == cell_digest(
                *_cell(config=replace(ORACLE, engine_backend=backend))
            )


class TestJournal:
    def test_disabled_is_noop(self, results):
        store = ResultStore(None)
        assert not store.enabled
        assert _load(store, *_cell()) is None
        _store(store, results["oracle"], *_cell())
        assert store.entries() == 0
        with pytest.raises(ServiceError):
            store.entry_path(cell_digest(*_cell()))

    def test_unsafe_benchmark_names_rejected(self, tmp_path, results):
        # Entries are content-addressed: no benchmark name reaches the
        # path, so a hostile name can neither escape the store nor hit.
        store = ResultStore(tmp_path)
        for name in ("", "../escape", ".hidden"):
            path = store.entry_path(cell_digest(*_cell(benchmark=name)))
            assert path.resolve().is_relative_to(tmp_path.resolve())
            _store(store, results["oracle"], *_cell(benchmark=name))
            assert _load(store, *_cell(benchmark=name)) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"v{RESULT_STORE_VERSION}"
        ]

    def test_round_trip(self, tmp_path, results):
        result = results["oracle"]
        store = ResultStore(tmp_path)
        _store(store, result, *_cell())
        assert store.entries() == 1
        loaded = _load(store, *_cell())
        assert loaded is not None
        assert loaded.penalties.as_dict() == result.penalties.as_dict()
        assert loaded.counters.instructions == result.counters.instructions
        # Every keyed parameter invalidates: change one, miss.
        for changed in (
            _cell(benchmark="doduc"),
            _cell(config=RESUME),
            _cell(trace=TRACE + 1),
            _cell(warmup=WARMUP + 1),
            _cell(seed=8),
        ):
            assert _load(store, *changed) is None

    def test_generator_version_bump_misses(self, tmp_path, monkeypatch, results):
        import repro.core.store as store_module

        store = ResultStore(tmp_path)
        _store(store, results["oracle"], *_cell())
        assert _load(store, *_cell()) is not None
        monkeypatch.setattr(
            store_module, "GENERATOR_VERSION", store_module.GENERATOR_VERSION + 1
        )
        assert _load(store, *_cell()) is None

    def test_corruption_is_a_miss(self, tmp_path, results):
        store = ResultStore(tmp_path)
        _store(store, results["oracle"], *_cell())
        store.entry_path(cell_digest(*_cell())).write_bytes(b"\x00torn write\x00")
        assert _load(store, *_cell()) is None

    def test_store_failure_is_nonfatal(self, tmp_path, results):
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should go")
        store = ResultStore(target)
        with pytest.warns(RuntimeWarning, match="result store disabled"):
            _store(store, results["oracle"], *_cell())  # no raise
        assert not store.enabled
        assert _load(store, *_cell()) is None

    def test_unwritable_checkpoint_dir_warns_once_and_runs(self, tmp_path, results):
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should go")
        observer = Observer()
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, observer=observer,
            checkpoint_dir=str(target),
        )
        with pytest.warns(RuntimeWarning) as caught:
            oracle = runner.run("li", ORACLE)
            resume = runner.run("li", RESUME)
        assert len([w for w in caught if "result store" in str(w.message)]) == 1
        _assert_identical(oracle, results["oracle"])
        _assert_identical(resume, results["resume"])
        assert observer.registry.value("checkpoint.stores") == 0


class TestBackendAgnostic:
    def test_event_result_hits_auto_and_vector(self, tmp_path, results):
        store = ResultStore(tmp_path)
        event = replace(ORACLE, engine_backend="event")
        _store(store, results["oracle"], *_cell(config=event))
        for backend in ("auto", "vector"):
            config = replace(ORACLE, engine_backend=backend)
            loaded = _load(store, *_cell(config=config))
            assert loaded is not None, backend
            _assert_identical(loaded, results["oracle"])
        # Any other field still misses.
        assert _load(store, *_cell(config=replace(event, prefetch=True))) is None
        assert _load(store, *_cell(config=replace(RESUME, engine_backend="event"))) is None

    def test_runner_engine_override_shares_cells(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        config = SimConfig(policy=FetchPolicy.ORACLE, perfect_cache=True)
        first = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            checkpoint_dir=checkpoint, engine="event",
        )
        reference = first.run("li", config)
        observer = Observer()
        second = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, observer=observer,
            checkpoint_dir=checkpoint, engine="vector",
        )
        _assert_identical(second.run("li", config), reference)
        assert observer.registry.value("checkpoint.hits") == 1


class TestConcurrentWriters:
    """The store under contention: stores never tear.  Threads stand in
    for processes — ``os.replace`` makes no distinction."""

    def test_concurrent_stores_never_torn(self, tmp_path, results):
        result_a, result_b = results["oracle"], results["resume"]
        assert result_a.penalties.as_dict() != result_b.penalties.as_dict()
        writers = 8
        start = threading.Barrier(writers + 1)
        stop = threading.Event()
        torn: list[object] = []

        def write(result):
            store = ResultStore(tmp_path)  # one instance per writer
            start.wait()
            for _ in range(25):
                _store(store, result, *_cell())

        def read():
            start.wait()
            reader = ResultStore(tmp_path)
            while not stop.is_set():
                loaded = _load(reader, *_cell())
                if loaded is None:
                    continue  # not yet published: a miss, never an error
                penalties = loaded.penalties.as_dict()
                if penalties not in (
                    result_a.penalties.as_dict(),
                    result_b.penalties.as_dict(),
                ):
                    torn.append(penalties)

        threads = [
            threading.Thread(
                target=write, args=(result_a if i % 2 else result_b,)
            )
            for i in range(writers)
        ]
        reader_thread = threading.Thread(target=read)
        for thread in threads:
            thread.start()
        reader_thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader_thread.join()
        assert torn == []
        # The settled entry is exactly one writer's payload, in full.
        final = _load(ResultStore(tmp_path), *_cell())
        assert final is not None
        assert final.penalties.as_dict() in (
            result_a.penalties.as_dict(),
            result_b.penalties.as_dict(),
        )
        # No temp files left behind by the racing writers.
        leftovers = [
            path
            for path in (tmp_path / f"v{RESULT_STORE_VERSION}").rglob("*")
            if path.is_file() and path.suffix != ".pkl"
        ]
        assert leftovers == []


class TestResume:
    def test_serial_resume_skips_simulation(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        first = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            checkpoint_dir=checkpoint,
        )
        reference = first.run("li", ORACLE)
        # Second runner, same store, with a bug fault armed on the
        # simulate phase: the store hit must return before the fault
        # could ever fire, proving nothing was re-simulated.
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="bug")],
            state_dir=str(tmp_path / "faults"),
        )
        second = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7,
            checkpoint_dir=checkpoint, fault_plan=plan,
        )
        resumed = second.run("li", ORACLE)
        assert resumed.penalties.as_dict() == reference.penalties.as_dict()
        assert plan.fired_total() == 0

    def test_parallel_resume_is_bit_identical(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        jobs = [("li", ORACLE), ("doduc", ORACLE), ("li", RESUME)]
        first = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        reference = first.run_jobs(jobs)
        assert first.metrics.value("checkpoint.stores") == len(jobs)
        second = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        resumed = second.run_jobs(jobs)
        assert second.metrics.value("checkpoint.hits") == len(jobs)
        for a, b in zip(reference, resumed, strict=True):
            assert a.penalties.as_dict() == b.penalties.as_dict()
            assert a.total_ispi == b.total_ispi

    def test_partial_journal_finishes_remainder(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        warm = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        warm.run_jobs([("li", ORACLE)])
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        )
        results = runner.run_jobs([("li", ORACLE), ("doduc", ORACLE)])
        assert runner.metrics.value("checkpoint.hits") == 1
        assert results[0].program == "li"
        assert results[1].program == "doduc"


class TestSharedStore:
    """Both runners and direct readers share one store layout."""

    JOBS = [("li", ORACLE), ("doduc", ORACLE), ("li", RESUME)]

    def test_parallel_cells_hit_serial_runner_and_direct_reads(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        storeless = SimulationRunner(trace_length=TRACE, warmup=WARMUP, seed=7)
        reference = [storeless.run(name, config) for name, config in self.JOBS]
        ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=2,
            checkpoint_dir=checkpoint,
        ).run_jobs(self.JOBS)
        observer = Observer()
        serial = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, observer=observer,
            checkpoint_dir=checkpoint,
        )
        direct = ResultStore(checkpoint)
        for (name, config), expected in zip(self.JOBS, reference, strict=True):
            _assert_identical(serial.run(name, config), expected)
            loaded = _load(direct, *_cell(benchmark=name, config=config))
            assert loaded is not None
            _assert_identical(loaded, expected)
        assert observer.registry.value("checkpoint.hits") == len(self.JOBS)
        assert observer.registry.value("checkpoint.stores") == 0
        assert direct.hits == len(self.JOBS)


class TestFaultParity:
    """``simulate`` faults count cells, in the serial runner and the pool
    worker alike: ``simulate:crash:li:2`` strikes the second ``li`` cell."""

    SPEC = "simulate:crash:li:2"

    def test_serial_runner_crashes_second_li_cell(self, tmp_path, results):
        observer = Observer()
        runner = SimulationRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, observer=observer,
            retries=1, backoff_base=0.0,
            fault_plan=FaultPlan.parse(self.SPEC, str(tmp_path / "faults")),
        )
        _assert_identical(runner.run("li", ORACLE), results["oracle"])
        assert observer.registry.value("sweep.retries") == 0
        _assert_identical(runner.run("li", RESUME), results["resume"])
        assert observer.registry.value("sweep.retries") == 1
        assert runner.fault_plan.fired_total() == 1

    def test_parallel_in_process_crashes_second_li_cell(self, tmp_path, results):
        plan = FaultPlan.parse(self.SPEC, str(tmp_path / "faults"))
        runner = ParallelRunner(
            trace_length=TRACE, warmup=WARMUP, seed=7, max_workers=1,
            retries=1, backoff_base=0.0, fault_plan=plan,
        )
        oracle, resume = runner.run_jobs([("li", ORACLE), ("li", RESUME)])
        _assert_identical(oracle, results["oracle"])
        _assert_identical(resume, results["resume"])
        assert plan.fired_total() == 1
        assert runner.metrics.value("sweep.retries") == 1


class TestKillAndResumeCli:
    """The acceptance scenario: a sweep killed mid-run and restarted with
    ``--checkpoint`` must produce output identical to an undisturbed run."""

    ARGS = ["table5", "--trace-length", "2000", "--seed", "11"]

    @staticmethod
    def _tables(output):
        """CLI output minus the wall-clock '[... regenerated in Xs]' line."""
        return "\n".join(
            line for line in output.splitlines()
            if not line.startswith("[")
        )

    @staticmethod
    def _run(extra, cwd):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *TestKillAndResumeCli.ARGS,
             *extra],
            env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )

    def test_killed_then_resumed_output_is_identical(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        # Reference: table5 end to end, no checkpointing involved.
        proc = self._run([], tmp_path)
        reference, _ = proc.communicate(timeout=180)
        assert proc.returncode == 0

        # Victim: same sweep with a result store, killed mid-run.
        victim = self._run(["--checkpoint", checkpoint], tmp_path)
        deadline = time.monotonic() + 60
        store = ResultStore(checkpoint)
        while store.entries() < 5 and time.monotonic() < deadline:
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        completed = store.entries()
        assert 0 < completed, "victim was killed before storing anything"

        # Resume: must replay the stored cells and finish the rest.
        resumed = self._run(["--checkpoint", checkpoint], tmp_path)
        output, _ = resumed.communicate(timeout=180)
        assert resumed.returncode == 0
        assert store.entries() > completed
        assert self._tables(output) == self._tables(reference)
