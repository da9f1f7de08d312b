"""Tests for the :class:`repro.RunContext` session: one frozen value in
one context variable, scoped whole or field by field, per thread and
per asyncio task."""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import warnings

import pytest

from repro import RunContext, current_run_context, use_run_context
from repro.core.flow import run_noise_tolerant_flow
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    use_telemetry,
)
from repro.perf.kernel_cache import (
    KernelCache,
    current_kernel_cache,
    default_cache_root,
    use_kernel_cache,
)
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=2007)


class TestRunContextScoping:
    def test_default_session_is_null_facade_and_env_cache(self):
        default = current_run_context()
        assert default.telemetry is NULL_TELEMETRY
        assert isinstance(default.kernel_cache, KernelCache)
        assert default.kernel_cache.root == default_cache_root()
        # Resolved once per process: every read returns the same value.
        assert current_run_context() is default
        with pytest.raises(dataclasses.FrozenInstanceError):
            default.telemetry = Telemetry()  # type: ignore[misc]

    def test_scopes_compose_like_individual_managers(self, tmp_path):
        tel = Telemetry(metrics=True)
        cache = KernelCache(str(tmp_path))
        before = current_run_context()
        with use_run_context(RunContext(telemetry=tel, kernel_cache=cache)):
            whole = current_run_context()
        with use_telemetry(tel), use_kernel_cache(cache):
            nested = current_run_context()
        assert whole == nested == RunContext(tel, cache)
        # Everything unwinds on exit.
        assert current_run_context() is before

    def test_partial_context_keeps_outer_scopes(self, tmp_path):
        outer_tel = Telemetry(metrics=True)
        cache = KernelCache(str(tmp_path))
        with use_telemetry(outer_tel):
            with use_kernel_cache(cache):
                assert current_telemetry() is outer_tel
                assert current_kernel_cache() is cache
                inner_tel = Telemetry(metrics=True)
                with use_telemetry(inner_tel):
                    assert current_telemetry() is inner_tel
                    assert current_kernel_cache() is cache
            assert current_telemetry() is outer_tel

    def test_none_disables_caching_and_telemetry(self, tmp_path):
        with use_telemetry(Telemetry()), use_kernel_cache(
            KernelCache(str(tmp_path))
        ):
            with use_kernel_cache(None) as scoped_cache:
                assert scoped_cache is None
                assert current_kernel_cache() is None
            with use_telemetry(None) as scoped_tel:
                assert scoped_tel is NULL_TELEMETRY
                assert current_telemetry() is NULL_TELEMETRY

    def test_current_run_context_snapshot_round_trips(self, tmp_path):
        tel = Telemetry(metrics=True)
        cache = KernelCache(str(tmp_path))
        with use_telemetry(tel), use_kernel_cache(cache):
            snap = current_run_context()
        assert snap.telemetry is tel
        assert snap.kernel_cache is cache
        with use_run_context(snap):
            assert current_telemetry() is tel
            assert current_kernel_cache() is cache


class TestSessionIsolation:
    def test_threads_at_a_barrier_see_their_own_scope(self, tmp_path):
        tels = [Telemetry(run_id="a"), Telemetry(run_id="b")]
        caches = [KernelCache(str(tmp_path / n)) for n in "ab"]
        default = current_run_context()
        both_inside = threading.Barrier(2, timeout=10)
        first_left = threading.Event()
        seen = {}

        def work(i: int) -> None:
            with use_telemetry(tels[i]), use_kernel_cache(caches[i]):
                both_inside.wait()
                seen[i, "inside"] = current_run_context()
                both_inside.wait()
                if i == 1:
                    # Still in its own scope after thread 0 left its own.
                    assert first_left.wait(timeout=10)
                    seen[i, "after other left"] = current_run_context()
            if i == 0:
                first_left.set()
            seen[i, "outside"] = current_run_context()

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for i in (0, 1):
            assert seen[i, "inside"] == RunContext(tels[i], caches[i])
            assert seen[i, "outside"] is default
        assert seen[1, "after other left"] == RunContext(tels[1], caches[1])
        assert current_run_context() is default

    def test_fresh_thread_starts_at_process_default(self, tmp_path):
        default = current_run_context()
        seen = []
        with use_telemetry(Telemetry()), use_kernel_cache(
            KernelCache(str(tmp_path))
        ):
            thread = threading.Thread(
                target=lambda: seen.append(current_run_context())
            )
            thread.start()
            thread.join(timeout=30)
        assert seen == [default]
        assert seen[0] is default

    def test_asyncio_tasks_keep_their_own_scope(self):
        tels = [Telemetry(run_id="a"), Telemetry(run_id="b")]

        async def task(i: int, entered, other_entered):
            with use_telemetry(tels[i]):
                entered.set()
                await other_entered.wait()  # the other scope is open too
                await asyncio.sleep(0)
                in_task = current_telemetry()
                in_thread = await asyncio.to_thread(current_telemetry)
            return in_task, in_thread, current_telemetry()

        async def main():
            events = [asyncio.Event(), asyncio.Event()]
            return await asyncio.gather(
                task(0, events[0], events[1]),
                task(1, events[1], events[0]),
            )

        results = asyncio.run(main())
        for i, (in_task, in_thread, after) in enumerate(results):
            assert in_task is tels[i]
            assert in_thread is tels[i]
            assert after is NULL_TELEMETRY


class TestFlowContextApi:
    def test_context_matches_legacy_knobs_bit_identically(
        self, design, tmp_path
    ):
        """A whole-session scope reproduces the field-by-field
        configuration bit for bit."""
        cache = KernelCache(str(tmp_path))
        with use_telemetry(None), use_kernel_cache(cache):
            legacy, _ = run_noise_tolerant_flow(
                design, max_patterns=15, seed=1
            )
        with use_run_context(RunContext(NULL_TELEMETRY, cache)):
            via_ctx, _ = run_noise_tolerant_flow(
                design, max_patterns=15, seed=1
            )
        assert (
            legacy.pattern_set.as_matrix().tobytes()
            == via_ctx.pattern_set.as_matrix().tobytes()
        )

    def test_no_warning_on_context_api(self, design):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with use_run_context(RunContext(NULL_TELEMETRY, None)):
                run_noise_tolerant_flow(design, max_patterns=5)

    def test_flow_schedule_stage_records_report(self, design):
        result, report = run_noise_tolerant_flow(
            design, max_patterns=15, schedule_budget_mw=200.0
        )
        assert result is not None
        assert report.schedule is not None
        assert report.schedule["strategy"] == "binpack"
        assert report.schedule["peak_power_mw"] <= 200.0
        assert any(
            s.name == "schedule" and s.status == "completed"
            for s in report.stages
        )
        # The digest survives the JSON round trip.
        from repro.reporting import RunReport

        loaded = RunReport.from_dict(report.to_dict())
        assert loaded.schedule == report.schedule

    def test_flow_infeasible_budget_partial_not_crash(self, design):
        result, report = run_noise_tolerant_flow(
            design, max_patterns=5, schedule_budget_mw=0.001
        )
        assert result is not None
        assert report.status == "partial"
        assert "error" in report.schedule
        # strict mode propagates the ConfigError instead.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_noise_tolerant_flow(
                design,
                max_patterns=5,
                schedule_budget_mw=0.001,
                strict=True,
            )


class TestCaseStudySchedule:
    def test_default_budget_is_feasible(self):
        from repro import CaseStudy

        study = CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)
        schedule = study.schedule()
        schedule.validate()
        assert sorted(schedule.blocks()) == sorted(study.design.blocks())
        assert schedule.strategy == "binpack"
        greedy = study.schedule(strategy="greedy")
        assert schedule.makespan_us <= greedy.makespan_us + 1e-9
