"""Fault-injection harness unit tests: grammar, triggers, plan state."""

import time

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultInjected, FaultPlan, parse_spec


class TestSpecGrammar:
    def test_parse_single_point(self):
        plan = parse_spec("worker.crash")
        assert plan.should_fire("worker.crash")
        assert not plan.should_fire("worker.hang")

    def test_parse_triggers(self):
        plan = parse_spec("grade.slow:n=2:delay=0.5")
        assert plan.delay_for("grade.slow") == 0.5
        assert plan.should_fire("grade.slow")
        assert plan.should_fire("grade.slow")
        # n=2 exhausted: never fires again.
        assert not plan.should_fire("grade.slow")

    def test_parse_multiple_points(self):
        plan = parse_spec("worker.crash:n=1,cache.write,grade.error:p=1.0")
        assert plan.should_fire("worker.crash")
        assert not plan.should_fire("worker.crash")
        assert plan.should_fire("cache.write")
        assert plan.should_fire("grade.error")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_spec("worker.typo")

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError, match="unknown fault trigger"):
            parse_spec("worker.crash:x=1")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            parse_spec("worker.crash:p=1.5")

    def test_seeded_probability_is_deterministic(self):
        fires = []
        for _ in range(2):
            plan = parse_spec("grade.error:p=0.5:seed=7")
            fires.append(
                [plan.should_fire("grade.error") for _ in range(50)]
            )
        assert fires[0] == fires[1]
        assert any(fires[0]) and not all(fires[0])

    def test_spec_round_trip_preserves_remaining_counts(self):
        plan = parse_spec("worker.crash:n=3,grade.slow:delay=2")
        plan.should_fire("worker.crash")  # consume one
        respawned = parse_spec(plan.spec())
        # A worker forked now inherits the *remaining* budget, not the
        # original one.
        assert respawned.should_fire("worker.crash")
        assert respawned.should_fire("worker.crash")
        assert not respawned.should_fire("worker.crash")
        assert respawned.delay_for("grade.slow") == 2.0

    def test_spec_round_trip_preserves_seed(self):
        plan = FaultPlan(seed=42)
        plan.arm("grade.error", probability=0.25)
        again = parse_spec(plan.spec())
        assert again.seed == 42
        assert [plan.should_fire("grade.error") for _ in range(40)] == [
            again.should_fire("grade.error") for _ in range(40)
        ]


class TestProcessWidePlan:
    def test_disarmed_is_the_default(self):
        assert not faults.enabled()
        assert faults.active_spec() is None
        assert not faults.should_fire("worker.crash")
        faults.inject("grade.error")  # no-op disarmed, must not raise

    def test_arm_and_reset(self):
        faults.arm("grade.error", count=1)
        assert faults.enabled()
        with pytest.raises(FaultInjected) as excinfo:
            faults.inject("grade.error")
        assert excinfo.value.point == "grade.error"
        # Count exhausted: the next crossing passes clean.
        faults.inject("grade.error")
        faults.reset()
        assert not faults.enabled()

    def test_inject_custom_exception(self):
        faults.arm("cache.read")
        with pytest.raises(OSError, match="disk gone"):
            faults.inject("cache.read", OSError("disk gone"))

    def test_environment_arming(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "grade.error:n=1")
        faults.reset()  # forget any prior env read
        assert faults.enabled()
        assert faults.should_fire("grade.error")
        faults.reset()
        monkeypatch.delenv(faults.ENV_VAR)
        assert not faults.enabled()

    def test_configure_outranks_environment(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.crash")
        faults.configure("grade.error")
        assert faults.should_fire("grade.error")
        assert not faults.should_fire("worker.crash")
        faults.configure(None)
        assert not faults.enabled()

    def test_sleep_if_uses_armed_delay(self):
        faults.arm("grade.slow", count=1, delay_s=0.05)
        started = time.monotonic()
        assert faults.sleep_if("grade.slow")
        assert time.monotonic() - started >= 0.05
        # Exhausted: no sleep, no fire.
        assert not faults.sleep_if("grade.slow")

    def test_fired_consumes_trigger(self):
        faults.arm("worker.reply_drop", count=1)
        assert faults.fired("worker.reply_drop")
        assert not faults.fired("worker.reply_drop")

    def test_active_spec_ships_the_live_plan(self):
        faults.arm("worker.crash", count=2)
        spec = faults.active_spec()
        assert spec is not None
        plan = parse_spec(spec)
        assert plan.should_fire("worker.crash")
        assert plan.should_fire("worker.crash")
        assert not plan.should_fire("worker.crash")

    def test_active_spec_hands_counted_worker_faults_over(self):
        faults.arm("worker.crash", count=2)
        faults.arm("worker.warm_crash")
        faults.arm("grade.error", count=1)
        first = parse_spec(faults.active_spec())
        assert first.should_fire("worker.crash")
        assert first.should_fire("worker.crash")
        # The count went to the first worker: a respawn gets none of it.
        second = parse_spec(faults.active_spec())
        assert not second.should_fire("worker.crash")
        # Uncounted worker faults arm every spawn; other points' counts
        # stay per process.
        assert second.should_fire("worker.warm_crash")
        assert second.should_fire("grade.error")
        assert faults.should_fire("grade.error")
