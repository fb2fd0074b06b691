"""Checkpoint/resume equivalence for engine runs.

The contract: a run killed after any settled hour and resumed from its
checkpoint produces a result **field-for-field identical** to the run
that was never interrupted — same steps, same costs, same per-site
records, same budgeter trajectory — with and without fault injection.
"""

import json

import pytest

from repro.core import BillCapper, CostMinimizer, ThroughputMaximizer
from repro.core.model_cache import DispatchModelCache
from repro.experiments import paper_world, scaled_paper_world
from repro.resilience import DegradationPolicy, FaultInjector, FaultSpec
from repro.sim import Engine
from repro.sim.engine import CHECKPOINT_VERSION
from repro.sim.strategies import CappingStrategy
from repro.telemetry import Telemetry, use_telemetry

HOURS = 12

CHAOS = FaultSpec(
    price_stale=0.3,
    sensor_dropout=0.2,
    solver_error=0.3,
    solver_timeout=0.1,
    budget_loss=0.2,
    seed=11,
)


@pytest.fixture(scope="module")
def world():
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


def monthly(world, engine):
    anchor = engine.run("capping", hours=HOURS)
    return anchor.total_cost * world.hours / HOURS * 0.8


def kernel_off_capper():
    """A capper whose every dispatch goes through branch and bound.

    The enumeration kernel keeps no state; switching it off exercises
    the MILP path that the kernel bails to on large fleets.
    """
    return CappingStrategy(
        capper=BillCapper(
            cost_minimizer=CostMinimizer(
                model_cache=DispatchModelCache(use_enum_kernel=False)
            ),
            throughput_maximizer=ThroughputMaximizer(
                model_cache=DispatchModelCache(use_enum_kernel=False)
            ),
        )
    )


def assert_identical(resumed, reference):
    assert resumed.name == reference.name
    assert len(resumed.hours) == len(reference.hours)
    for a, b in zip(resumed.hours, reference.hours):
        assert a.to_dict() == b.to_dict()


class TestResumeBitIdentity:
    @pytest.mark.parametrize("kill_at", [1, 5, HOURS - 1])
    def test_capped_run_resumes_identically(self, world, engine, tmp_path, kill_at):
        budget = monthly(world, engine)
        reference = engine.run(
            "capping", budgeter=world.budgeter(budget), hours=HOURS
        )
        path = tmp_path / "run.json"
        engine.run(
            "capping",
            budgeter=world.budgeter(budget),
            hours=kill_at,
            checkpoint_path=path,
        )
        # The stored horizon is the killed run's; extend it on resume.
        resumed = engine.resume(path, hours=HOURS)
        assert_identical(resumed, reference)

    @pytest.mark.parametrize("kill_at", [1, 5, HOURS - 1])
    def test_branch_and_bound_run_resumes_identically(
        self, world, engine, tmp_path, kill_at
    ):
        """Each hour's MILP is solved from that hour's inputs alone, so a
        resumed solver with no history lands where the original did."""
        budget = monthly(world, engine)
        reference = engine.run(
            kernel_off_capper(), budgeter=world.budgeter(budget), hours=HOURS
        )
        path = tmp_path / "bb.json"
        engine.run(
            kernel_off_capper(),
            budgeter=world.budgeter(budget),
            hours=kill_at,
            checkpoint_path=path,
        )
        resumed = engine.resume(path, strategy=kernel_off_capper(), hours=HOURS)
        assert_identical(resumed, reference)

    @pytest.mark.parametrize("kill_at", [3, 7])
    def test_faulted_run_resumes_identically(self, world, engine, tmp_path, kill_at):
        """Fault schedules are keyed by (seed, hour), the budgeter and the
        capper's hold-last history ride in the checkpoint — so chaos runs
        resume exactly too, degraded hours included."""
        budget = monthly(world, engine)
        kwargs = dict(hours=HOURS, degradation=DegradationPolicy.HOLD_LAST)
        reference = engine.run(
            "capping",
            budgeter=world.budgeter(budget),
            faults=FaultInjector(CHAOS),
            **kwargs,
        )
        assert reference.degraded_hours > 0  # chaos actually bites
        path = tmp_path / "chaos.json"
        engine.run(
            "capping",
            budgeter=world.budgeter(budget),
            faults=FaultInjector(CHAOS),
            hours=kill_at,
            checkpoint_path=path,
            degradation=DegradationPolicy.HOLD_LAST,
        )
        resumed = engine.resume(path, hours=HOURS)
        assert_identical(resumed, reference)

    def test_uncapped_price_taker_resumes_identically(self, engine, tmp_path):
        reference = engine.run("min-only-avg", hours=8)
        path = tmp_path / "minonly.json"
        engine.run("min-only-avg", hours=4, checkpoint_path=path)
        resumed = engine.resume(path, hours=8)
        assert_identical(resumed, reference)

    def test_min_only_lp_resumes_identically_at_13_sites(self, tmp_path):
        """The Min-Only LP keeps no basis across hours. On this fleet a
        carried basis moved the resumed hours' optima by ULPs."""
        world = scaled_paper_world(13)
        engine = Engine(world.sites, world.workload, world.mix)
        reference = engine.run("min-only-avg", hours=16)
        path = tmp_path / "minonly13.json"
        engine.run("min-only-avg", hours=12, checkpoint_path=path)
        resumed = engine.resume(path, hours=16)
        assert_identical(resumed, reference)

    def test_decomposed_fleet_resumes_identically(self, tmp_path, monkeypatch):
        """The decomposition keeps no multiplier bracket across hours, so
        a resumed decomposed fleet lands where the original did."""
        monkeypatch.setenv("REPRO_DECOMP_AUTO_SITES", "10")
        world = scaled_paper_world(12)
        engine = Engine(world.sites, world.workload, world.mix)
        # The night hours' spend scaled to the month: a budget that puts
        # these hours in throughput-max and premium-only.
        budget = engine.run("capping", hours=6).total_cost * world.hours / 6
        tel = Telemetry()
        with use_telemetry(tel):
            reference = engine.run(
                "capping", budgeter=world.budgeter(budget), hours=6
            )
        assert tel.registry.counter("core.decomposition.solved").value >= 1
        for kill_at in (2, 4):
            path = tmp_path / f"decomp{kill_at}.json"
            engine.run(
                "capping",
                budgeter=world.budgeter(budget),
                hours=kill_at,
                checkpoint_path=path,
            )
            assert_identical(engine.resume(path, hours=6), reference)

    def test_resumed_run_keeps_checkpointing(self, engine, tmp_path):
        path = tmp_path / "run.json"
        engine.run("capping", hours=3, checkpoint_path=path)
        engine.resume(path, hours=6)
        payload = json.loads(path.read_text())
        assert payload["next_hour"] == 6
        assert len(payload["records"]) == 6

    def test_chained_resumes(self, engine, tmp_path):
        """Resume-of-a-resume still lands on the uninterrupted result."""
        reference = engine.run("capping", hours=9)
        path = tmp_path / "run.json"
        engine.run("capping", hours=3, checkpoint_path=path)
        engine.resume(path, hours=6)
        resumed = engine.resume(path, hours=9)
        assert_identical(resumed, reference)


class TestCheckpointPayload:
    def test_payload_shape(self, world, engine, tmp_path):
        path = tmp_path / "run.json"
        engine.run(
            "capping",
            budgeter=world.budgeter(monthly(world, engine)),
            hours=2,
            checkpoint_path=path,
            checkpoint_meta={"policy": 1, "seed": 3},
        )
        payload = Engine.load_checkpoint(path)
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["kind"] == "engine-run"
        assert payload["strategy"] == "capping"
        assert payload["result_name"] == "cost-capping"
        assert payload["next_hour"] == 2
        assert len(payload["records"]) == 2
        assert payload["budgeter"] is not None
        assert payload["meta"] == {"policy": 1, "seed": 3}

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "budgeter", "version": 1}))
        with pytest.raises(ValueError, match="not an engine run checkpoint"):
            Engine.load_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "vnext.json"
        path.write_text(
            json.dumps({"kind": "engine-run", "version": CHECKPOINT_VERSION + 1})
        )
        with pytest.raises(ValueError, match="unsupported engine checkpoint"):
            Engine.load_checkpoint(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(
            json.dumps({"kind": "engine-run", "version": CHECKPOINT_VERSION})
        )
        with pytest.raises(ValueError, match="missing 'strategy'"):
            Engine.load_checkpoint(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not a JSON checkpoint"):
            Engine.load_checkpoint(path)

    def test_resume_with_nothing_left_rejected(self, engine, tmp_path):
        path = tmp_path / "done.json"
        engine.run("capping", hours=4, checkpoint_path=path)
        with pytest.raises(ValueError, match="nothing left to run"):
            engine.resume(path, hours=2)

    def test_resume_with_corrupt_records_rejected(self, engine, tmp_path):
        path = tmp_path / "run.json"
        engine.run("capping", hours=3, checkpoint_path=path)
        payload = json.loads(path.read_text())
        payload["records"] = payload["records"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            engine.resume(path, hours=6)
