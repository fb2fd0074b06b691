"""The engine keeps the paper's budget guarantee on realized bills.

The capper plans on smooth power models and the realize stage draws the
stepped ones; under a demand charge the sliver of unplanned power can
push a ``cost-min`` or ``throughput-max`` hour over its budget. The
engine re-plans such an hour once against a lowered budget, then at a
zero budget (premium only, flagged), and the record keeps the hour's
true budget. Section V-B lets only premium-only hours overspend.
"""

import contextlib

import pytest

from repro.billing import make_ledger
from repro.core import BillCapper, CappingStep
from repro.experiments import paper_world
from repro.sim import Engine, resolve_monthly_budget
from repro.sim.endogenous import EndogenousPriceMiddleware
from repro.resilience import FaultInjector, FaultSpec
from repro.sim.engine import HourContext, RunState, StageMiddleware
from repro.sim.strategies import CappingStrategy
from repro.telemetry import Telemetry, use_telemetry

PEAK_TARIFF = "energy+demand:rate=0.5,cycle=168"
BUDGETED = (CappingStep.COST_MIN, CappingStep.THROUGHPUT_MAX)
HOUR = 12


def _items(record):
    return sum(li.amount for li in record.line_items)


def _settles_within_budget(record):
    return _items(record) <= record.budget * (1 + 1e-9) + 1e-12


@pytest.fixture(scope="module")
def engine():
    world = paper_world(1, seed=7)
    return Engine(world.sites, world.workload, world.mix)


class _Stubborn:
    """A capper that ignores the budget for its first ``n`` plans."""

    name = "stubborn"
    wants_budget = True

    def __init__(self, n):
        self.n = n
        self.budgets = []
        self.capper = BillCapper()

    def prepare(self, world):
        pass

    def decide(self, ctx):
        self.budgets.append(ctx.budget)
        budget = float("inf") if len(self.budgets) <= self.n else ctx.budget
        return self.capper.decide(
            ctx.site_hours,
            ctx.demand_premium_rps,
            ctx.demand_ordinary_rps,
            budget,
        )


def _hour(engine, strategy, budget, middleware=()):
    """One pass of the observe, dispatch and realize stages, then the
    engine's realized-bill check."""
    state = RunState(ledger=make_ledger("energy"))
    ctx = HourContext(
        hour=HOUR, strategy=strategy, run_name="t", ledger=state.ledger
    )
    engine._stage_observe(ctx, state)
    ctx.budget = budget
    engine._run_stage("dispatch", ctx, state, middleware)
    engine._run_stage("realize", ctx, state, middleware)
    engine._replan(ctx, state, middleware)
    return ctx


def _uncapped_cost(engine):
    ctx = _hour(engine, _Stubborn(1), float("inf"))
    assert ctx.record.step is CappingStep.COST_MIN
    return ctx.record.realized_cost


class TestReplan:
    def test_overshooting_hour_replans_at_the_lowered_budget(self, engine):
        realized = _uncapped_cost(engine)
        budget = 0.95 * realized
        strategy = _Stubborn(1)
        tel = Telemetry()
        with use_telemetry(tel):
            ctx = _hour(engine, strategy, budget)
        # Energy tariff: lowered by the overshoot alone.
        assert strategy.budgets == [budget, budget - (realized - budget)]
        assert ctx.record.step is CappingStep.THROUGHPUT_MAX
        assert ctx.record.realized_cost <= budget
        assert ctx.record.budget == ctx.budget == budget
        assert tel.registry.get("engine.replans").value == 1

    def test_replan_that_still_overshoots_falls_to_premium_only(self, engine):
        realized = _uncapped_cost(engine)
        budget = 0.8 * realized
        strategy = _Stubborn(2)
        ctx = _hour(engine, strategy, budget)
        assert strategy.budgets == [budget, budget - (realized - budget), 0.0]
        assert ctx.record.step is CappingStep.PREMIUM_ONLY
        assert ctx.record.served_ordinary_rps == 0.0
        assert ctx.record.served_premium_rps == ctx.demand_premium_rps
        assert ctx.record.budget == budget

    def test_each_replan_starts_from_the_true_hour_market(self, engine):
        realized = _uncapped_cost(engine)
        markets = []

        class Clearing(StageMiddleware):
            """Sets the hour's market after each dispatch, as a closed
            loop does, and records the market each dispatch starts from."""

            @contextlib.contextmanager
            def stage(self, name, ctx, state):
                if name == "dispatch":
                    markets.append(ctx.market)
                yield
                if name == "dispatch":
                    ctx.market = list(engine._site_hours(ctx.hour))

        ctx = _hour(engine, _Stubborn(2), 0.8 * realized, [Clearing()])
        assert ctx.record.step is CappingStep.PREMIUM_ONLY
        assert markets == [None, None, None]

    def test_flagged_and_fitting_hours_are_not_replanned(self, engine):
        realized = _uncapped_cost(engine)
        fits = _Stubborn(0)
        _hour(engine, fits, 2.0 * realized)
        assert len(fits.budgets) == 1
        # A budget below even the premium load's cost: step 3, flagged,
        # overspends by design and is left alone.
        flagged = _Stubborn(0)
        ctx = _hour(engine, flagged, 1e-3 * realized)
        assert ctx.record.step is CappingStep.PREMIUM_ONLY
        assert len(flagged.budgets) == 1


class TestPeakMonth:
    """The demand-tariff month that settled hours 683 and 684 over
    budget as ``throughput-max`` before the realized-bill check."""

    @pytest.fixture(scope="class")
    def month(self):
        world = paper_world(1, seed=7)
        engine = Engine(world.sites, world.workload, world.mix)
        monthly = resolve_monthly_budget(world, 0.85, hours=720, engine=engine)
        budgeter = world.budgeter(monthly)
        result = engine.run(
            "capping", budgeter=budgeter, hours=720, tariff=PEAK_TARIFF
        )
        return result, budgeter.checkpoint()["spent"]

    def test_budgeted_hours_settle_within_budget(self, month):
        result, _ = month
        over = [
            h.hour for h in result.hours
            if h.step in BUDGETED and not _settles_within_budget(h)
        ]
        assert over == []
        for hour in (683, 684):
            assert result.hours[hour].step in BUDGETED
            assert _settles_within_budget(result.hours[hour])

    def test_record_keeps_the_true_budget_and_ledger_spend(self, month):
        result, spent = month
        # Hour 683's budget as the budgeter allotted it; the re-plan
        # ran against a lower one.
        assert result.hours[683].budget == pytest.approx(2578.07, abs=0.01)
        for h in result.hours:
            assert _items(h) == pytest.approx(spent[h.hour], rel=1e-12)


class _Planner:
    """The capping strategy, remembering the snapshots of every plan."""

    name = "capping"
    wants_budget = True

    def __init__(self):
        self.inner = CappingStrategy()
        self.seen = []

    def prepare(self, world):
        self.inner.prepare(world)

    def decide(self, ctx):
        self.seen.append(list(ctx.site_hours))
        return self.inner.decide(ctx)


class _HourProbe(StageMiddleware):
    """Per hour: dispatch passes, the last plan's view, the market."""

    def __init__(self, planner):
        self.planner = planner
        self.hours = []

    @contextlib.contextmanager
    def hour(self, ctx, state):
        self.passes = 0
        yield
        self.hours.append(
            (self.passes, self.planner.seen[-1], ctx.market, ctx.record)
        )

    @contextlib.contextmanager
    def stage(self, name, ctx, state):
        if name == "dispatch":
            self.passes += 1
        yield


class TestClosedLoopUnderDemandCharge:
    @pytest.fixture(scope="class")
    def run(self):
        hours = 8
        world = paper_world(1, seed=7)
        engine = Engine(world.sites, world.workload, world.mix)
        monthly = resolve_monthly_budget(world, 0.85, hours=hours, engine=engine)
        budgeter = world.budgeter(monthly)
        planner = _Planner()
        probe = _HourProbe(planner)
        middleware = EndogenousPriceMiddleware.for_engine(engine)
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                planner,
                budgeter=budgeter,
                hours=hours,
                tariff="energy+demand:rate=2,cycle=6",
                middleware=[probe, middleware],
            )
        return result, budgeter.checkpoint()["spent"], probe, tel

    def test_converges_and_line_items_sum_to_the_ledger_spend(self, run):
        result, spent, probe, tel = run
        # Before the realized-bill check, hours 2 and 4 overspent
        # unflagged; each re-plan clears the market again.
        assert tel.registry.get("engine.replans").value >= 1
        passes = sum(p for p, _, _, _ in probe.hours)
        assert passes > len(result.hours)
        assert tel.registry.get("closedloop.converged").value == passes
        assert tel.registry.get("closedloop.fallback") is None
        for h in result.hours:
            assert _items(h) == pytest.approx(spent[h.hour], rel=1e-12)
            assert h.step not in BUDGETED or _settles_within_budget(h)

    def test_replanned_hours_bill_at_the_market_they_were_planned_on(
        self, run
    ):
        _, _, probe, _ = run
        replanned = 0
        for passes, seen, market, record in probe.hours:
            replanned += passes > 1
            for planned, billed, site in zip(seen, market, record.sites):
                assert planned.policy is billed.policy
                assert site.price == billed.policy.price(
                    billed.background_mw + site.power_mw
                )
        assert replanned >= 1


class TestSensingFaults:
    """A stale price feed misleads only the dispatcher: the hour is
    billed at the true prices, and the realized-bill check projects it
    at the stale view the dispatcher had."""

    def test_stale_feed_is_not_replanned_on_prices_it_hid(self):
        hours = 24
        world = paper_world(1, seed=7)
        engine = Engine(world.sites, world.workload, world.mix)
        monthly = resolve_monthly_budget(world, 0.85, hours=hours, engine=engine)
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                "capping",
                budgeter=world.budgeter(monthly),
                hours=hours,
                faults=FaultInjector(FaultSpec(price_stale=1.0, seed=1)),
            )
        assert tel.registry.get("engine.replans") is None
        misled = 0
        for h in result.hours[1:]:
            stale = engine._site_hours(h.hour - 1)
            true = engine._site_hours(h.hour)
            assert h.realized_cost == sum(
                sh.policy.price(sh.background_mw + s.power_mw) * s.power_mw
                for sh, s in zip(true, h.sites)
            )
            if h.step not in BUDGETED:
                continue
            seen = sum(
                sh.policy.price(sh.background_mw + s.power_mw) * s.power_mw
                for sh, s in zip(stale, h.sites)
            )
            assert seen <= h.budget * (1 + 1e-9)
            misled += not _settles_within_budget(h)
        # The fault still shows in the bill: hours planned on a stale
        # feed settle over budget at the true prices.
        assert misled >= 1
