"""The deterministic fault-injection harness itself."""

import pickle

import pytest

from repro.core.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    corrupt_entry,
    is_transient,
)
from repro.core.results import SweepFailure
from repro.errors import (
    ExperimentError,
    InjectedFault,
    JobTimeoutError,
    ServiceError,
)


class TestFaultSpecParse:
    def test_minimal(self):
        spec = FaultSpec.parse("simulate:crash")
        assert spec.phase == "simulate"
        assert spec.kind == "crash"
        assert spec.benchmark is None
        assert spec.invocation == 1
        assert spec.seconds == 0.0

    def test_full(self):
        spec = FaultSpec.parse("generate:delay:li:3:0.25")
        assert spec == FaultSpec(
            phase="generate", kind="delay", benchmark="li",
            invocation=3, seconds=0.25,
        )

    def test_wildcard_benchmark(self):
        assert FaultSpec.parse("build:exit:*").benchmark is None
        assert FaultSpec.parse("build:exit:").benchmark is None

    @pytest.mark.parametrize(
        "text",
        [
            "simulate",              # missing kind
            "warp:crash",            # unknown phase
            "simulate:melt",         # unknown kind
            "simulate:crash:li:x",   # non-integer invocation
            "simulate:delay:li:1:x", # non-float seconds
        ],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ExperimentError):
            FaultSpec.parse(text)

    def test_rejects_bad_fields(self):
        with pytest.raises(ExperimentError):
            FaultSpec(phase="simulate", kind="crash", invocation=0)
        with pytest.raises(ExperimentError):
            FaultSpec(phase="simulate", kind="crash", times=0)
        with pytest.raises(ExperimentError):
            FaultSpec(phase="simulate", kind="delay", seconds=-1.0)


class TestFaultPlanFiring:
    def test_one_shot(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="crash")],
            state_dir=str(tmp_path),
        )
        with pytest.raises(InjectedFault) as info:
            plan.fire("simulate", "li")
        assert info.value.transient
        # The single ticket is spent: the retry proceeds undisturbed.
        assert plan.fire("simulate", "li") is None
        assert plan.fired_total() == 1

    def test_times_budget(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="crash", times=2)],
            state_dir=str(tmp_path),
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("simulate", "li")
        assert plan.fire("simulate", "li") is None
        assert plan.fired_total() == 2

    def test_invocation_gating(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="generate", kind="crash", invocation=2)],
            state_dir=str(tmp_path),
        )
        assert plan.fire("generate", "li") is None
        with pytest.raises(InjectedFault):
            plan.fire("generate", "li")

    def test_phase_and_benchmark_filters(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="crash", benchmark="li")],
            state_dir=str(tmp_path),
        )
        assert plan.fire("build", "li") is None
        assert plan.fire("simulate", "doduc") is None
        with pytest.raises(InjectedFault):
            plan.fire("simulate", "li")

    def test_tickets_shared_across_plan_copies(self, tmp_path):
        """A re-pickled plan (new process, retry) must not re-fire."""
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="crash")],
            state_dir=str(tmp_path),
        )
        clone = pickle.loads(pickle.dumps(plan))
        with pytest.raises(InjectedFault):
            plan.fire("simulate", "li")
        # The clone has fresh per-process counters but sees the claimed
        # marker file, so the cross-process budget holds.
        assert clone.fire("simulate", "li") is None
        assert clone.fired_total() == 1

    def test_delay_and_corrupt_are_returned_not_raised(self, tmp_path):
        plan = FaultPlan(
            faults=[
                FaultSpec(phase="generate", kind="delay", seconds=0.0),
                FaultSpec(phase="cache_load", kind="corrupt"),
            ],
            state_dir=str(tmp_path),
        )
        assert plan.fire("generate", "li").kind == "delay"
        assert plan.fire("cache_load", "li").kind == "corrupt"
        assert plan.fired_soft == 2

    def test_bug_is_deterministic(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec(phase="simulate", kind="bug")],
            state_dir=str(tmp_path),
        )
        with pytest.raises(InjectedFault) as info:
            plan.fire("simulate", "li")
        assert not info.value.transient


class TestFaultPlanBuilders:
    def test_parse_multiple(self, tmp_path):
        plan = FaultPlan.parse(
            "simulate:crash:li, generate:delay:*:2:0.1", str(tmp_path)
        )
        assert [s.kind for s in plan.faults] == ["crash", "delay"]

    def test_parse_empty_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            FaultPlan.parse(" , ", str(tmp_path))

    def test_seeded_is_reproducible(self, tmp_path):
        a = FaultPlan.seeded(42, str(tmp_path / "a"), benchmarks=("li",))
        b = FaultPlan.seeded(42, str(tmp_path / "b"), benchmarks=("li",))
        assert a.faults == b.faults
        c = FaultPlan.seeded(43, str(tmp_path / "c"), benchmarks=("li",))
        assert a.faults != c.faults


class TestCorruptEntry:
    def test_missing_directory_is_noop(self, tmp_path):
        assert corrupt_entry(tmp_path / "nope") == 0

    def test_garbles_files(self, tmp_path):
        entry = tmp_path / "entry"
        entry.mkdir()
        (entry / "a.pkl").write_bytes(b"payload")
        (entry / "b.pkl").write_bytes(b"payload")
        assert corrupt_entry(entry) == 2
        assert b"corrupted" in (entry / "a.pkl").read_bytes()


class TestTransientClassification:
    def test_transient_flag_survives_pickling(self):
        """Worker exceptions cross the pool boundary via pickle; a
        deterministic fault must not revert to the transient default."""
        bug = pickle.loads(pickle.dumps(InjectedFault("boom", transient=False)))
        assert not bug.transient
        assert not is_transient(bug)
        assert str(bug) == "boom"

    def test_taxonomy(self):
        from concurrent.futures.process import BrokenProcessPool

        assert is_transient(InjectedFault("flaky"))
        assert not is_transient(InjectedFault("bug", transient=False))
        assert is_transient(JobTimeoutError("slow"))
        assert is_transient(BrokenProcessPool("worker died"))
        assert is_transient(OSError("disk trouble"))
        # Library errors and unknown exceptions reproduce on retry.
        assert not is_transient(ExperimentError("bad config"))
        assert not is_transient(ValueError("bug"))


class TestRetryPolicy:
    def test_delay_sequence_doubles_up_to_the_cap(self):
        policy = RetryPolicy(retries=5, backoff_base=0.25, backoff_cap=1.5)
        assert [policy.delay(n) for n in range(1, 6)] == [
            0.25, 0.5, 1.0, 1.5, 1.5,
        ]
        assert RetryPolicy(backoff_base=0.0).delay(3) == 0.0

    def test_transient_errors_retry_deterministic_ones_do_not(self):
        policy = RetryPolicy(retries=3)
        for exc in (
            InjectedFault("flaky"),
            OSError("disk hiccup"),
            JobTimeoutError("hung"),
        ):
            assert policy.retryable(exc, 1), exc
        for exc in (
            InjectedFault("bug", transient=False),
            ExperimentError("misconfigured"),
            ValueError("unknown"),
        ):
            assert not policy.retryable(exc, 1), exc

    def test_budget_exhaustion(self):
        policy = RetryPolicy(retries=2)
        exc = InjectedFault("flaky")
        assert [policy.retryable(exc, n) for n in (1, 2, 3)] == [
            True, True, False,
        ]
        assert not RetryPolicy(retries=0).retryable(exc, 1)

    def test_validation_error_types(self):
        for kwargs in (
            {"retries": -1},
            {"backoff_base": -0.1},
            {"backoff_cap": -1.0},
        ):
            with pytest.raises(ExperimentError):
                RetryPolicy(**kwargs)
            with pytest.raises(ServiceError):
                RetryPolicy.checked(
                    **{"retries": 1, "backoff_base": 0.1, "backoff_cap": 1.0,
                       **kwargs},
                    error=ServiceError,
                )


class TestSweepFailureFromException:
    def test_classifies_by_the_taxonomy(self):
        failure = SweepFailure.from_exception(
            "li", InjectedFault("boom"), attempts=3, cells=2
        )
        assert failure == SweepFailure(
            benchmark="li", error_type="InjectedFault", message="boom",
            attempts=3, transient=True, cells=2,
        )
        assert not SweepFailure.from_exception(
            "li", ExperimentError("bad"), attempts=1
        ).transient
