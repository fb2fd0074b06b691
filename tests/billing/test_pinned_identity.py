"""The default-tariff identity contract, pinned against pre-refactor bytes.

The fixtures under ``tests/fixtures/tariff/`` were generated by the
pre-billing-layer code (see ``gen_fixtures.py`` there): hourly engine
records, an engine checkpoint (version 2), a serve decision log plus
service checkpoint (version 1), and a sharded serial merged log plus
shard checkpoint (version 1). ``tests/fixtures/service_v2/`` holds a
version 2 service checkpoint and its logs, written by the retired
single-process serve runtime under a demand tariff. These tests assert
that

* the default ``energy`` tariff reproduces every pinned record
  field-for-field and every pinned decision log **byte-for-byte**, and
* every pre-tariff checkpoint version still loads via migration and
  continues identically,

plus the end-to-end demand-charge contract: per-component line items on
every settled hour, telescoping demand totals, and checkpoint/resume
bit-identity under the peak-aware MILP.
"""

import importlib.util
import json
import pathlib
import shutil

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "tariff"


def _load_gen():
    """Import the fixture generator for its pinned run parameters."""
    spec = importlib.util.spec_from_file_location(
        "tariff_gen_fixtures", FIXTURES / "gen_fixtures.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GEN = _load_gen()


@pytest.fixture(scope="module")
def world():
    from repro.experiments import paper_world

    return paper_world(1, seed=7)


@pytest.fixture(scope="module")
def engine(world):
    from repro.sim import Engine

    return Engine(world.sites, world.workload, world.mix)


def assert_identical(resumed, reference):
    assert len(resumed.hours) == len(reference.hours)
    for a, b in zip(resumed.hours, reference.hours):
        assert a.to_dict() == b.to_dict()


# -- engine ---------------------------------------------------------------------


class TestEnginePinned:
    def test_records_match_fixture_field_for_field(self, world, engine):
        pinned = json.loads((FIXTURES / "engine_records.json").read_text())
        result = engine.run(
            "capping",
            budgeter=world.budgeter(GEN.MONTHLY_BUDGET),
            hours=GEN.ENGINE_HOURS,
        )
        assert len(result.hours) == len(pinned)
        for record, old in zip(result.hours, pinned):
            fresh = record.to_dict()
            # Every pre-refactor field is unchanged (the fixture has no
            # line_items and pins version 1; both are expected deltas).
            for key, value in old.items():
                if key == "v":
                    continue
                assert fresh[key] == value, f"hour {old['hour']}: {key}"
            # The new line items are exactly the energy charge, and its
            # amount is the realized cost — the same float.
            assert fresh["line_items"] == [
                {"component": "energy", "amount": old["realized_cost"]}
            ]
            assert record.settled_cost == old["realized_cost"]

    def test_v2_checkpoint_migrates_and_extends(self, world, engine, tmp_path):
        # Resume writes back to its checkpoint path, so work on a copy.
        ckpt = tmp_path / "engine_ckpt.json"
        shutil.copy(FIXTURES / "engine_ckpt.json", ckpt)
        assert json.loads(ckpt.read_text())["version"] == 2

        extended = GEN.ENGINE_HOURS + 2
        reference = engine.run(
            "capping",
            budgeter=world.budgeter(GEN.MONTHLY_BUDGET),
            hours=extended,
        )
        resumed = engine.resume(ckpt, hours=extended)

        assert len(resumed.hours) == extended
        for hour, (a, b) in enumerate(zip(resumed.hours, reference.hours)):
            da, db = a.to_dict(), b.to_dict()
            if hour < GEN.ENGINE_HOURS:
                # Migrated records carry no line items (the v2
                # checkpoint never had them) but everything else —
                # costs, steps, budgets, per-site rows — is identical.
                assert da["line_items"] == []
                db = dict(db, line_items=[])
            assert da == db

        # The rewritten checkpoint is upgraded: current version, with
        # the default energy ledger serialized in.
        payload = json.loads(ckpt.read_text())
        assert payload["version"] == 3
        assert payload["ledger"]["tariff"] == "energy"
        assert payload["next_hour"] == extended


# -- single-process serve ---------------------------------------------------------

SERVICE_V2 = FIXTURES.parent / "service_v2"


class TestServePinned:
    def test_decision_log_byte_identical(self, tmp_path):
        from repro.service import ShardedControlPlane, load_shard_checkpoint

        log = tmp_path / "decisions.jsonl"
        ckpt = tmp_path / "ckpt.json"
        ShardedControlPlane(
            GEN.SERVE_SPEC,
            decision_log=log,
            checkpoint_path=ckpt,
            http=False,
            handle_signals=False,
        ).run()
        assert log.read_bytes() == (
            FIXTURES / "serve_decisions.jsonl"
        ).read_bytes()
        payload = load_shard_checkpoint(ckpt)
        assert payload["version"] == 2
        assert payload["tariff"] == "energy"

    def test_v1_service_checkpoint_migrates(self, tmp_path):
        from repro.service import ShardedControlPlane, load_shard_checkpoint
        from repro.service.shard import RegionDriver

        raw = json.loads((FIXTURES / "service_ckpt.json").read_text())
        assert raw["kind"] == "service-run" and raw["version"] == 1
        assert "tariff" not in raw
        payload = load_shard_checkpoint(FIXTURES / "service_ckpt.json")
        assert payload["kind"] == "shard-run"
        assert payload["regions_planned"] == 1
        assert payload["meta"]["workers"] is None
        assert payload["regions"]["0"]["decisions_logged"] == 12

        # The fixture covers its whole horizon; widen it so the
        # restored loop has hours left (what a real resume-and-extend
        # does), exercising the migration path.
        spec = dict(payload["meta"]["spec"], horizon=GEN.SERVE_HOURS + 1)
        plane = ShardedControlPlane(
            spec,
            decision_log=tmp_path / "merged.jsonl",
            http=False,
            handle_signals=False,
            resume_payload=payload,
        )
        assert plane.coordinator.settled_hours == raw["loop"]["settled_hours"]
        assert plane.coordinator.next_tick == raw["next_tick"]
        assert isinstance(plane.driver, RegionDriver)
        loop = plane.driver.loops[0]
        assert loop.ledger.is_energy_only
        assert loop.ledger.tariff == "energy"
        assert loop.settled_hours == raw["loop"]["settled_hours"]

    def test_v2_service_checkpoint_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.service import ShardedControlPlane

        # The checkpoint names its log relative to the serve's cwd.
        for name in ("checkpoint.json", "decisions.jsonl"):
            shutil.copy(SERVICE_V2 / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        raw = json.loads((tmp_path / "checkpoint.json").read_text())
        assert raw["kind"] == "service-run" and raw["version"] == 2
        assert raw["tariff"] == "energy+demand:rate=2,cycle=6"

        plane = ShardedControlPlane.resume(
            "checkpoint.json", workers=3, http=False, handle_signals=False
        )
        # A single-process run resumes single-process.
        assert plane.n_workers is None
        summary = plane.run()
        assert summary["worker_errors"] == {}
        assert summary["hours"] == raw["horizon"]
        assert (tmp_path / "decisions.jsonl").read_bytes() == (
            SERVICE_V2 / "uninterrupted.jsonl"
        ).read_bytes()
        # The resumed serve checkpoints in the one remaining format.
        payload = json.loads((tmp_path / "checkpoint.json").read_text())
        assert payload["kind"] == "shard-run"
        assert payload["tariff"] == "energy+demand:rate=2,cycle=6"


# -- sharded serve ---------------------------------------------------------------


class TestShardPinned:
    def test_serial_merged_log_byte_identical(self, tmp_path):
        from repro.service.shard import run_sharded_serial

        merged, coordinator = run_sharded_serial(GEN.SHARD_SPEC)
        pinned = (FIXTURES / "shard_merged.jsonl").read_text()
        assert "".join(line + "\n" for line in merged) == pinned
        assert coordinator.settled_hours == GEN.SHARD_HOURS

    def test_v1_shard_checkpoint_loads_and_restores(self, tmp_path):
        from repro.service.shard import (
            ShardedControlPlane,
            load_shard_checkpoint,
        )

        payload = load_shard_checkpoint(FIXTURES / "shard_ckpt.json")
        assert payload["version"] == 1
        assert "tariff" not in payload

        # The classmethod refuses a spent horizon, as it should.
        with pytest.raises(ValueError, match="nothing left to serve"):
            ShardedControlPlane.resume(
                FIXTURES / "shard_ckpt.json", http=False, handle_signals=False
            )

        # Constructing from the payload directly still restores the
        # coordinator (v1 migrates: no ledger state to carry).
        svc = ShardedControlPlane(
            payload["meta"]["spec"],
            workers=1,
            decision_log=tmp_path / "merged.jsonl",
            http=False,
            handle_signals=False,
            resume_payload=payload,
        )
        assert svc.coordinator.settled_hours == payload["settled_hours"]
        assert svc.coordinator.next_tick == payload["next_tick"]


# -- demand end-to-end -------------------------------------------------------------

DEMAND_TARIFF = "energy+demand:rate=2,cycle=6"


class TestDemandEndToEnd:
    def test_engine_run_settles_per_component_items(self, world, engine):
        result = engine.run(
            "capping",
            budgeter=world.budgeter(GEN.MONTHLY_BUDGET),
            hours=GEN.ENGINE_HOURS,
            tariff=DEMAND_TARIFF,
        )
        demand_total = 0.0
        peak = 0.0
        for record in result.hours:
            items = {i.component: i for i in record.line_items}
            assert set(items) == {"energy", "demand"}
            assert items["energy"].amount == record.realized_cost
            demand_total += items["demand"].amount
            peak = max(peak, record.total_power_mw)
            assert record.settled_cost == pytest.approx(
                record.realized_cost + items["demand"].amount
            )
        # One 6-hour cycle: the demand line items telescope to
        # rate ($2/kW -> $2000/MW) times the cycle peak.
        assert demand_total == pytest.approx(2000.0 * peak)

    def test_demand_run_resumes_identically(self, world, engine, tmp_path):
        """Regression for the warm-start leak: peak-aware MILP solves
        must be history-free so kill/resume matches an uninterrupted
        run bit for bit."""
        kwargs = dict(hours=GEN.ENGINE_HOURS, tariff=DEMAND_TARIFF)
        reference = engine.run(
            "capping", budgeter=world.budgeter(GEN.MONTHLY_BUDGET), **kwargs
        )
        path = tmp_path / "demand.json"
        engine.run(
            "capping",
            budgeter=world.budgeter(GEN.MONTHLY_BUDGET),
            hours=3,
            tariff=DEMAND_TARIFF,
            checkpoint_path=path,
        )
        mid = json.loads(path.read_text())
        assert mid["ledger"]["tariff"] == DEMAND_TARIFF
        resumed = engine.resume(path, hours=GEN.ENGINE_HOURS)
        assert_identical(resumed, reference)


class TestDemandPeakShaving:
    """The demand-aware capper shaves the billing-cycle peak.

    One 72 h cycle at a generous budget (the run's own uncapped spend),
    so the energy-only arm dispatches essentially uncapped and its peak
    is the workload's natural one.
    """

    HOURS = 72
    TARIFF = "energy+demand:rate=0.5,cycle=72"

    @pytest.fixture(scope="class")
    def budget(self, world, engine):
        anchor = engine.run("capping", hours=self.HOURS)
        return anchor.total_cost * world.hours / self.HOURS

    @pytest.fixture(scope="class")
    def demand(self, world, engine, budget):
        return engine.run(
            "capping",
            budgeter=world.budgeter(budget),
            hours=self.HOURS,
            tariff=self.TARIFF,
        )

    def test_demand_charge_shaves_the_cycle_peak(
        self, world, engine, budget, demand
    ):
        from repro.billing import make_ledger

        energy = engine.run(
            "capping", budgeter=world.budgeter(budget), hours=self.HOURS
        )
        peak_energy = max(h.total_power_mw for h in energy.hours)
        peak_demand = max(h.total_power_mw for h in demand.hours)
        assert (peak_energy - peak_demand) / peak_energy >= 0.05
        assert energy.summary()["premium_throughput"] == 1.0
        assert demand.summary()["premium_throughput"] == 1.0

        # The energy-only dispatch settled under the demand tariff.
        ledger = make_ledger(self.TARIFF)
        blind_bill = 0.0
        for h in energy.hours:
            ledger.accrue(h.realized_cost, h.total_power_mw)
            blind_bill += ledger.total(ledger.settle(h.hour))
        aware_bill = sum(h.settled_cost for h in demand.hours)
        assert aware_bill <= blind_bill

    def test_peak_term_serves_more_than_settlement_feedback(
        self, world, engine, budget, demand
    ):
        """The budget feedback of settled demand charges and the
        realized-bill re-plan shave a peak-blind dispatch too, by
        shedding ordinary load; planning with the peak term serves
        more of it under the same tariff and budget."""
        from repro.sim.strategies import CappingStrategy

        class PeakBlind(CappingStrategy):
            def decide(self, ctx):
                return self.capper.decide(
                    ctx.site_hours,
                    ctx.demand_premium_rps,
                    ctx.demand_ordinary_rps,
                    ctx.budget,
                )

        blind = engine.run(
            PeakBlind(),
            budgeter=world.budgeter(budget),
            hours=self.HOURS,
            tariff=self.TARIFF,
        )
        assert (
            demand.summary()["ordinary_throughput"]
            > blind.summary()["ordinary_throughput"]
        )
