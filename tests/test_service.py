"""Unit tests of the job service: state machine, leases, back-pressure.

Everything time-dependent drives the store through its injectable
``now`` parameter — no sleeps, no real clocks — so lease expiry,
backoff windows and quarantine are tested exactly, not approximately.
The handful of tests that run a real (tiny) flow are the integration
seam: they assert the service's headline invariant, that a job's
pattern set is bit-identical to a single-process
``run_noise_tolerant_flow``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import run_noise_tolerant_flow
from repro.core.flow import flow_stage_names
from repro.errors import (
    JobNotFoundError,
    ServiceBusyError,
    ServiceError,
)
from repro.service import (
    JOB_CANCELLED,
    JOB_DEAD,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceSupervisor,
    backoff_delay_s,
)
from repro.soc import build_turbo_eagle

TTL = 30.0


@pytest.fixture
def store(tmp_path) -> JobStore:
    return JobStore(
        str(tmp_path / "store"),
        ServiceConfig(lease_ttl_s=TTL, max_queue_depth=4,
                      max_shard_attempts=3),
    )


def drive_job_to_done(store: JobStore, job_id: str, worker: str = "w",
                      now: float = 0.0) -> None:
    """Walk every shard through claim/start/complete by hand."""
    while True:
        job = store.get(job_id)
        if job.terminal:
            return
        claimed = store.claim(worker, now=now)
        assert claimed is not None, f"nothing claimable for {job_id}"
        job, shard = claimed
        token = shard.lease.token
        assert store.start_shard(job.id, shard.index, worker, token,
                                 now=now)
        assert store.complete_shard(job.id, shard.index, worker, token,
                                    now=now)


# ----------------------------------------------------------------------
# state machine
# ----------------------------------------------------------------------
class TestStateMachine:
    def test_submit_creates_queued_job_with_stage_shards(self, store):
        job = store.submit(JobSpec(), now=1.0)
        assert job.state == JOB_QUEUED
        assert [s.name for s in job.shards] == flow_stage_names()
        assert all(s.state == "queued" for s in job.shards)
        assert store.get(job.id).id == job.id

    def test_full_lifecycle_to_done(self, store):
        job = store.submit(JobSpec(), now=0.0)
        for index in range(len(job.shards)):
            claimed = store.claim("w1", now=0.0)
            assert claimed is not None
            cjob, shard = claimed
            assert (cjob.id, shard.index) == (job.id, index)
            assert shard.state == "leased"
            assert store.get(job.id).state == JOB_RUNNING
            token = shard.lease.token
            assert store.start_shard(job.id, index, "w1", token, now=0.0)
            assert store.get(job.id).shards[index].state == "running"
            assert store.complete_shard(job.id, index, "w1", token,
                                        now=0.0)
        final = store.get(job.id)
        assert final.state == JOB_DONE
        assert all(s.state == "done" for s in final.shards)
        assert store.claim("w1", now=0.0) is None

    def test_shards_are_sequential_within_a_job(self, store):
        job = store.submit(JobSpec(), now=0.0)
        claimed = store.claim("w1", now=0.0)
        assert claimed is not None and claimed[1].index == 0
        # shard 1 must not be claimable while shard 0 is leased
        assert store.claim("w2", now=0.0) is None
        assert store.get(job.id).shards[1].state == "queued"

    def test_jobs_claimed_fifo_across_jobs(self, store):
        a = store.submit(JobSpec(), now=0.0)
        b = store.submit(JobSpec(), now=1.0)
        first = store.claim("w1", now=2.0)
        second = store.claim("w2", now=2.0)
        assert first is not None and first[0].id == a.id
        # job A's next shard is blocked, so worker 2 gets job B
        assert second is not None and second[0].id == b.id

    def test_missing_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.get("j-nope")

    def test_store_reopen_sees_persisted_state(self, store):
        job = store.submit(JobSpec(scale="tiny", seed=7), now=0.0)
        reopened = JobStore(store.root)
        got = reopened.get(job.id)
        assert got.spec.seed == 7
        assert got.state == JOB_QUEUED
        # config round-trips through config.json too
        assert reopened.config.lease_ttl_s == TTL
        assert reopened.config.max_queue_depth == 4


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
class TestCancel:
    def test_cancel_queued_job(self, store):
        job = store.submit(JobSpec(), now=0.0)
        cancelled = store.cancel(job.id, now=1.0)
        assert cancelled.state == JOB_CANCELLED
        assert cancelled.terminal
        assert "cancelled" in cancelled.error
        # a cancelled job is never claimable
        assert store.claim("w", now=2.0) is None

    def test_cancel_frees_backpressure_slot(self, tmp_path):
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=1))
        job = store.submit(JobSpec(), now=0.0)
        with pytest.raises(ServiceBusyError):
            store.submit(JobSpec(), now=0.0)
        store.cancel(job.id, now=1.0)
        assert store.queue_depth() == 0
        assert store.submit(JobSpec(), now=2.0).state == JOB_QUEUED

    def test_cancel_is_legal_only_from_queued(self, store):
        job = store.submit(JobSpec(), now=0.0)
        store.claim("w", now=0.0)
        with pytest.raises(ServiceError) as err:
            store.cancel(job.id, now=1.0)
        assert "only queued jobs" in str(err.value)
        # terminal states refuse too
        done = store.submit(JobSpec(), now=2.0)
        drive_job_to_done(store, done.id)
        with pytest.raises(ServiceError):
            store.cancel(done.id)

    def test_cancel_unknown_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.cancel("j-nope")

    def test_client_cancel_delegates(self, store):
        client = ServiceClient(store)
        job_id = client.submit(JobSpec())
        assert client.cancel(job_id).state == JOB_CANCELLED


# ----------------------------------------------------------------------
# external-netlist specs
# ----------------------------------------------------------------------
class TestNetlistSpec:
    def test_netlist_spec_round_trips_and_derives_shards(self, store):
        import io

        from repro.netlist.verilog import write_verilog
        from repro.soc import derive_stage_plan, design_from_netlist

        design = build_turbo_eagle(scale="tiny", seed=2007)
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        spec = JobSpec(netlist_verilog=buf.getvalue())
        job = store.submit(spec, now=0.0)
        # shard names come from the plan *derived from the netlist*
        # (which for the round-tripped design reproduces the paper's
        # built-in staging — the activity heuristic lands on the same
        # all-but-two / second-busiest / busiest split)
        rebuilt, plan = spec.build_design_and_plan()
        assert tuple(plan) == derive_stage_plan(rebuilt)
        assert [s.name for s in job.shards] == flow_stage_names(plan)
        assert len(job.shards) == len(plan)
        # and they survive the job.json round trip
        reopened = JobStore(store.root).get(job.id)
        assert reopened.spec.netlist_verilog == spec.netlist_verilog
        assert [s.name for s in reopened.shards] == [
            s.name for s in job.shards
        ]
        # the reconstruction is deterministic: a re-parse agrees
        again, _ = reopened.spec.build_design_and_plan()
        assert design_from_netlist is not None
        assert again.netlist.n_flops == rebuilt.netlist.n_flops
        assert again.blocks() == rebuilt.blocks()


# ----------------------------------------------------------------------
# shard requeue backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def test_backoff_is_deterministic_and_bounded(self):
        cfg = ServiceConfig(backoff_seed=7)

        def delay(index: int, attempt: int) -> float:
            return backoff_delay_s(
                cfg.backoff_base_s, cfg.backoff_factor, cfg.backoff_max_s,
                cfg.backoff_jitter, cfg.backoff_seed, index, attempt,
            )

        a = delay(3, 1)
        assert a == delay(3, 1)
        assert a != delay(3, 2)
        for attempt in range(10):
            assert 0 < delay(0, attempt) <= (
                cfg.backoff_max_s * (1 + cfg.backoff_jitter)
            )

    def test_requeue_waits_out_the_configured_backoff(self, store):
        job = store.submit(JobSpec(), now=0.0)
        assert store.claim("w1", now=0.0) is not None
        assert store.claim("w2", now=TTL) is None  # reaped, backing off
        shard = store.get(job.id).shards[0]
        cfg = store.config
        assert shard.not_before == pytest.approx(TTL + backoff_delay_s(
            cfg.backoff_base_s, cfg.backoff_factor, cfg.backoff_max_s,
            cfg.backoff_jitter, cfg.backoff_seed, shard.index, 0,
        ))


# ----------------------------------------------------------------------
# wait polling backs off (no busy-polling a flock'd job.json)
# ----------------------------------------------------------------------
class FakeTime:
    """A sleep-driven clock standing in for the ``time`` module."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list = []

    def monotonic(self) -> float:
        return self.now

    def time(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestWaitBackoff:
    def test_wait_poll_count_drops_on_long_jobs(self, store, monkeypatch):
        """A job that stays queued for 60 s costs ~30 capped polls,
        not the 300 a fixed 0.2 s interval would burn."""
        import repro.service.client as client_mod

        fake = FakeTime()
        monkeypatch.setattr(client_mod, "time", fake)
        client = ServiceClient(store)
        job_id = client.submit(JobSpec())
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=60.0, inline_fallback=False)
        fixed_interval_polls = 60.0 / 0.2
        assert len(fake.sleeps) < fixed_interval_polls / 5
        # exponential up to the cap, never past it, never decreasing
        assert fake.sleeps == sorted(fake.sleeps)
        assert fake.sleeps[0] == pytest.approx(0.2)
        assert max(fake.sleeps) == pytest.approx(2.0)

    def test_wait_backoff_resets_when_the_job_moves(self, store,
                                                    monkeypatch):
        """Progress snaps the poll interval back to the base."""
        import repro.service.client as client_mod

        fake = FakeTime()
        monkeypatch.setattr(client_mod, "time", fake)
        client = ServiceClient(store)
        job_id = client.submit(JobSpec())
        # let the backoff climb to the cap ...
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=20.0, inline_fallback=False)
        assert max(fake.sleeps) == pytest.approx(2.0)
        # ... then make the record change and wait again: first poll
        # re-observes (reset), so the very next sleep is the base again
        store.claim("w", now=fake.now)
        fake.sleeps.clear()
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=1.0, inline_fallback=False)
        assert fake.sleeps[0] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# back-pressure
# ----------------------------------------------------------------------
class TestBackPressure:
    def test_submit_refused_at_depth_limit(self, tmp_path):
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=2))
        store.submit(JobSpec(), now=0.0)
        store.submit(JobSpec(), now=0.0)
        with pytest.raises(ServiceBusyError) as err:
            store.submit(JobSpec(), now=0.0)
        assert err.value.depth == 2
        assert err.value.limit == 2

    def test_depth_frees_up_when_a_job_finishes(self, tmp_path):
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=1))
        job = store.submit(JobSpec(), now=0.0)
        with pytest.raises(ServiceBusyError):
            store.submit(JobSpec(), now=0.0)
        drive_job_to_done(store, job.id)
        assert store.submit(JobSpec(), now=0.0).state == JOB_QUEUED

    def test_terminal_jobs_do_not_count_toward_depth(self, store):
        job = store.submit(JobSpec(), now=0.0)
        drive_job_to_done(store, job.id)
        assert store.queue_depth() == 0


# ----------------------------------------------------------------------
# leases: expiry, fencing, heartbeats, backoff
# ----------------------------------------------------------------------
class TestLeases:
    def test_expired_lease_is_reclaimed_with_backoff(self, store):
        job = store.submit(JobSpec(), now=0.0)
        first = store.claim("w1", now=0.0)
        assert first is not None
        # before expiry nothing is claimable
        assert store.claim("w2", now=TTL - 1.0) is None
        # at expiry the shard is reaped into its backoff window ...
        assert store.claim("w2", now=TTL) is None
        shard = store.get(job.id).shards[0]
        assert shard.state == "queued"
        assert shard.attempts == 1
        assert shard.failures[0]["kind"] == "lease_expired"
        assert shard.not_before > TTL
        # ... and claimable once the backoff has elapsed
        reclaimed = store.claim("w2", now=TTL + 60.0)
        assert reclaimed is not None
        assert reclaimed[1].lease.worker == "w2"

    def test_fencing_token_blocks_stale_worker(self, store):
        job = store.submit(JobSpec(), now=0.0)
        first = store.claim("w1", now=0.0)
        token1 = first[1].lease.token
        # first post-expiry claim reaps into the backoff window ...
        assert store.claim("w2", now=TTL + 60.0) is None
        # ... and the next one (past the backoff) re-grants, fenced
        reclaimed = store.claim("w2", now=TTL + 120.0)
        token2 = reclaimed[1].lease.token
        assert token2 > token1
        t = TTL + 121.0
        # the zombie's every move is refused
        assert not store.heartbeat(job.id, 0, "w1", token1, now=t)
        assert not store.start_shard(job.id, 0, "w1", token1, now=t)
        assert not store.complete_shard(job.id, 0, "w1", token1, now=t)
        assert not store.fail_shard(job.id, 0, "w1", token1, "boom",
                                    retryable=True, now=t)
        # the new holder proceeds normally
        assert store.start_shard(job.id, 0, "w2", token2, now=t)
        assert store.complete_shard(job.id, 0, "w2", token2, now=t)
        assert store.get(job.id).shards[0].state == "done"

    def test_heartbeat_extends_the_lease(self, store):
        job = store.submit(JobSpec(), now=0.0)
        claimed = store.claim("w1", now=0.0)
        token = claimed[1].lease.token
        assert store.heartbeat(job.id, 0, "w1", token, now=TTL - 5.0)
        # would have expired at TTL without the renewal
        assert store.claim("w2", now=TTL + 1.0) is None
        assert store.get(job.id).shards[0].lease.worker == "w1"

    def test_reap_expired_is_explicit_too(self, store):
        job = store.submit(JobSpec(), now=0.0)
        store.claim("w1", now=0.0)
        assert store.reap_expired(now=1.0) == 0
        assert store.reap_expired(now=TTL + 1.0) == 1
        assert store.get(job.id).shards[0].state == "queued"


# ----------------------------------------------------------------------
# quarantine and failure
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_repeatedly_dying_shard_is_quarantined_dead(self, store):
        job = store.submit(JobSpec(), now=0.0)
        now = 0.0
        for attempt in range(store.config.max_shard_attempts):
            claimed = store.claim("w", now=now)
            assert claimed is not None, f"attempt {attempt} not claimable"
            token = claimed[1].lease.token
            assert store.fail_shard(job.id, 0, "w", token,
                                    f"crash #{attempt}", retryable=True,
                                    now=now)
            now += 120.0  # comfortably past any backoff
        final = store.get(job.id)
        assert final.state == JOB_DEAD
        assert final.shards[0].state == "dead"
        assert "quarantined" in final.error
        # never claimable again — no infinite retry
        assert store.claim("w", now=now + 1000.0) is None
        # the failure log survives, one entry per burned lease
        assert len(final.shards[0].failures) == 3
        assert [f["error"] for f in final.shards[0].failures] == [
            "crash #0", "crash #1", "crash #2",
        ]

    def test_dead_job_has_failure_report_on_disk(self, store):
        from repro.reporting import RunReport

        job = store.submit(JobSpec(), now=0.0)
        now = 0.0
        for _ in range(store.config.max_shard_attempts):
            claimed = store.claim("w", now=now)
            token = claimed[1].lease.token
            store.fail_shard(job.id, 0, "w", token, "kaboom",
                             retryable=True, now=now)
            now += 120.0
        report = RunReport.load(store.report_path(job.id))
        assert report.status == "failed"
        assert "quarantined" in report.error
        assert len(report.failures) == 3
        assert all(f["stage"] == job.shards[0].name
                   for f in report.failures)
        # untouched shards are reported pending, not lost
        assert report.pending_stages() == [s.name for s in job.shards[1:]]

    def test_deterministic_error_fails_job_immediately(self, store):
        job = store.submit(JobSpec(), now=0.0)
        claimed = store.claim("w", now=0.0)
        token = claimed[1].lease.token
        assert store.fail_shard(job.id, 0, "w", token,
                                "ValueError('bad')", retryable=False,
                                now=0.0)
        final = store.get(job.id)
        assert final.state == JOB_FAILED
        assert final.shards[0].state == "failed"
        assert final.error == "ValueError('bad')"
        assert store.load_report(job.id) is not None

    def test_lease_expiry_also_burns_attempts(self, store):
        """Workers that silently die count against the same budget."""
        job = store.submit(JobSpec(), now=0.0)
        now = 0.0
        for _ in range(store.config.max_shard_attempts):
            claimed = store.claim("w", now=now)
            if claimed is None:  # claim just reaped into a backoff
                now += 60.0
                claimed = store.claim("w", now=now)
            assert claimed is not None
            now += TTL + 120.0  # let every lease rot
        # the final reap trips the quarantine instead of a re-grant
        assert store.claim("w", now=now) is None
        assert store.get(job.id).state == JOB_DEAD


# ----------------------------------------------------------------------
# client + integration (real tiny flows)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def reference_matrix():
    """The single-process flow's pattern matrix (computed once)."""
    design = build_turbo_eagle(scale="tiny", seed=2007)
    result, _ = run_noise_tolerant_flow(design, seed=1)
    return result.pattern_set.as_matrix()


class TestClientIntegration:
    def test_wait_inline_fallback_completes_bit_identical(self, tmp_path):
        """Graceful degradation: no worker anywhere, the client drains
        the job itself — and the patterns match the single-process
        flow bit for bit."""
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec(scale="tiny"))
        job = client.wait(job_id, timeout_s=300)
        assert job.state == JOB_DONE
        result = client.result(job_id)
        assert np.array_equal(result["matrix"], reference_matrix())
        report = client.report(job_id)
        assert report.status == "completed"
        assert [s.name for s in report.stages] == flow_stage_names()

    def test_supervisor_inline_degradation(self, tmp_path):
        """A supervisor with zero workers still finishes the queue."""
        store = JobStore(str(tmp_path / "store"))
        client = ServiceClient(store)
        job_id = client.submit(JobSpec(scale="tiny"))
        with ServiceSupervisor(store, n_workers=0) as sup:
            sup.run_until_drained(timeout_s=300)
        assert client.status(job_id).state == JOB_DONE
        assert client.result(job_id)["n_patterns"] > 0

    def test_transient_chaos_retries_then_succeeds(self, tmp_path):
        """An injected transient failure burns one attempt, then the
        retry completes the job with identical patterns."""
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(
            JobSpec(scale="tiny",
                    chaos={"fail_shard": 1, "fail_attempts": 1})
        )
        job = client.wait(job_id, timeout_s=300)
        assert job.state == JOB_DONE
        assert job.shards[1].attempts == 1
        assert job.shards[1].failures[0]["kind"] == "transient"
        result = client.result(job_id)
        assert np.array_equal(result["matrix"], reference_matrix())

    def test_result_before_done_raises(self, tmp_path):
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec())
        with pytest.raises(ServiceError):
            client.result(job_id)

    def test_wait_timeout_raises_and_preserves_job(self, tmp_path):
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec())
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=0.0, inline_fallback=False)
        assert client.status(job_id).state == JOB_QUEUED

    def test_submit_spec_xor_kwargs(self, tmp_path):
        client = ServiceClient(str(tmp_path / "store"))
        with pytest.raises(ServiceError):
            client.submit(JobSpec(), scale="tiny")
