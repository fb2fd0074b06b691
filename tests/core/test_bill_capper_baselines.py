"""Tests for the two-step BillCapper and the Min-Only baselines."""

import pytest

from repro.core import (
    BillCapper,
    CappingStep,
    CostMinimizer,
    MinOnlyDispatcher,
    PriceMode,
)

from .conftest import site_hour, small_datacenter


@pytest.fixture
def capper():
    return BillCapper()


def _full_cost(sites, lam):
    return CostMinimizer().solve(sites, lam).predicted_cost


class TestBillCapper:
    def test_abundant_budget_uses_step1(self, three_sites, capper):
        lam = 3e7
        budget = _full_cost(three_sites, lam) * 2.0
        d = capper.decide(three_sites, lam * 0.8, lam * 0.2, budget)
        assert d.step is CappingStep.COST_MIN
        assert d.premium_fully_served
        assert d.ordinary_admission_rate == pytest.approx(1.0)

    def test_moderate_budget_throttles_ordinary_only(self, three_sites, capper):
        lam = 3e7
        full = _full_cost(three_sites, lam)
        premium_cost = _full_cost(three_sites, lam * 0.8)
        budget = (full + premium_cost) / 2  # enough for premium, not all
        d = capper.decide(three_sites, lam * 0.8, lam * 0.2, budget)
        assert d.step is CappingStep.THROUGHPUT_MAX
        assert d.premium_fully_served
        assert 0.0 <= d.ordinary_admission_rate < 1.0
        assert d.predicted_cost <= budget * (1 + 1e-6)

    def test_insufficient_budget_premium_only(self, three_sites, capper):
        lam = 3e7
        premium_cost = _full_cost(three_sites, lam * 0.8)
        budget = premium_cost * 0.5
        d = capper.decide(three_sites, lam * 0.8, lam * 0.2, budget)
        assert d.step is CappingStep.PREMIUM_ONLY
        assert d.premium_fully_served
        assert d.served_ordinary_rps == 0.0
        # The budget is knowingly violated for premium QoS.
        assert d.predicted_cost > budget

    def test_infinite_budget_never_throttles(self, three_sites, capper):
        d = capper.decide(three_sites, 2e7, 1e7, float("inf"))
        assert d.step is CappingStep.COST_MIN
        assert d.served_total_rps == pytest.approx(3e7)

    def test_sheds_beyond_capacity(self, three_sites, capper):
        cap = sum(s.max_rate_rps for s in three_sites)
        d = capper.decide(three_sites, cap * 0.9, cap * 0.5, float("inf"))
        assert d.served_total_rps <= cap * (1 + 1e-9)
        assert d.premium_fully_served  # premium clamped only after ordinary
        assert d.demand_ordinary_rps == cap * 0.5  # demand recorded unclamped

    def test_validation(self, three_sites, capper):
        with pytest.raises(ValueError):
            capper.decide(three_sites, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            capper.decide(three_sites, 0.0, 0.0, -1.0)

    def test_zero_demand(self, three_sites, capper):
        d = capper.decide(three_sites, 0.0, 0.0, 100.0)
        assert d.served_total_rps == 0.0
        assert d.predicted_cost == 0.0
        assert d.ordinary_admission_rate == 1.0  # vacuous

    def test_budget_recorded_on_decision(self, three_sites, capper):
        d = capper.decide(three_sites, 1e6, 1e6, 1234.5)
        assert d.budget == 1234.5


class TestStep2Reporting:
    """Regression: step 2 used to report ``served_premium = premium_rps``
    even when the maximizer's throughput landed a hair *below* the
    premium load (inside the 1e-9 acceptance tolerance), overstating
    premium service and pushing served_ordinary negative."""

    class _StubOptimizer:
        """Duck-typed optimizer returning a canned decision."""

        def __init__(self, decision):
            self.decision = decision

        def solve(self, site_hours, total_rate_rps, budget=None):
            return self.decision

    @staticmethod
    def _decision(served_total, cost):
        from repro.core import HourlyDecision

        return HourlyDecision(
            step=CappingStep.THROUGHPUT_MAX,
            allocations=(),
            served_premium_rps=served_total,
            served_ordinary_rps=0.0,
            demand_premium_rps=served_total,
            demand_ordinary_rps=0.0,
            predicted_cost=cost,
        )

    def test_served_premium_clamped_to_achieved_throughput(self):
        premium = 1e6
        achieved = premium * (1 - 5e-10)  # within tolerance, below demand
        capper = BillCapper(
            cost_minimizer=self._StubOptimizer(self._decision(premium, 1e9)),
            throughput_maximizer=self._StubOptimizer(
                self._decision(achieved, 10.0)
            ),
            shed_beyond_capacity=False,
        )
        d = capper.decide([], premium, 0.0, budget=100.0)
        assert d.step is CappingStep.THROUGHPUT_MAX
        assert d.served_premium_rps == pytest.approx(achieved, abs=0.0)
        assert d.served_premium_rps <= achieved
        assert d.served_ordinary_rps == 0.0

    def test_surplus_throughput_still_goes_to_ordinary(self):
        premium, ordinary = 1e6, 5e5
        capper = BillCapper(
            cost_minimizer=self._StubOptimizer(self._decision(premium, 1e9)),
            throughput_maximizer=self._StubOptimizer(
                self._decision(premium + 2e5, 10.0)
            ),
            shed_beyond_capacity=False,
        )
        d = capper.decide([], premium, ordinary, budget=100.0)
        assert d.served_premium_rps == pytest.approx(premium)
        assert d.served_ordinary_rps == pytest.approx(2e5)


class TestMinOnly:
    def _dispatcher(self, mode, sites):
        slopes = {s.name: 0.3e-6 for s in sites}  # server-only: below true slope
        return MinOnlyDispatcher(price_mode=mode, server_slopes=slopes)

    def test_serves_full_load_regardless(self, three_sites):
        lam = 3e7
        d = self._dispatcher(PriceMode.AVG, three_sites).solve(three_sites, lam)
        assert d.step is CappingStep.BASELINE
        assert sum(a.rate_rps for a in d.allocations) == pytest.approx(lam, rel=1e-9)

    def test_price_modes_differ(self, three_sites):
        d_avg = self._dispatcher(PriceMode.AVG, three_sites).solve(three_sites, 3e7)
        d_low = self._dispatcher(PriceMode.LOW, three_sites).solve(three_sites, 3e7)
        # Believed costs differ (avg prices > low prices).
        assert d_avg.predicted_cost > d_low.predicted_cost

    def test_constant_price_used(self, three_sites):
        sh = three_sites[0]
        assert PriceMode.AVG.constant_price(sh) == pytest.approx(
            sh.policy.average_price
        )
        assert PriceMode.LOW.constant_price(sh) == pytest.approx(
            sh.policy.lowest_price
        )

    def test_current_mode_observes_market(self, three_sites):
        # Extension: the best-informed price taker reads the price at
        # the current background demand.
        sh = three_sites[0]  # background 50, first step at 100
        assert PriceMode.CURRENT.constant_price(sh) == pytest.approx(
            sh.policy.price(sh.background_mw)
        )

    def test_current_mode_dispatches(self, three_sites):
        d = self._dispatcher(PriceMode.CURRENT, three_sites).solve(three_sites, 3e7)
        assert sum(a.rate_rps for a in d.allocations) == pytest.approx(3e7, rel=1e-9)

    def test_concentrates_on_believed_cheapest(self, three_sites):
        # With Min-Only (Low) all sites believe their lowest step price;
        # site C has the lowest (8.0): everything goes there (capacity permitting).
        d = self._dispatcher(PriceMode.LOW, three_sites).solve(three_sites, 1e7)
        assert d.rate_for("C") == pytest.approx(1e7, rel=1e-6)

    def test_tied_sites_fill_in_site_order(self):
        # Two identical sites tie on price * slope: the greedy fill
        # tops up the lower-index site first.
        sites = [site_hour("A"), site_hour("B")]
        d = self._dispatcher(PriceMode.AVG, sites).solve(sites, 3e7)
        assert d.rate_for("A") == 2e7
        assert d.rate_for("B") == pytest.approx(1e7, rel=1e-12)

    def test_missing_slope_rejected(self, three_sites):
        disp = MinOnlyDispatcher(price_mode=PriceMode.AVG, server_slopes={})
        with pytest.raises(KeyError):
            disp.solve(three_sites, 1e6)

    def test_negative_load_rejected(self, three_sites):
        with pytest.raises(ValueError):
            self._dispatcher(PriceMode.AVG, three_sites).solve(three_sites, -1.0)

    def test_server_only_slope_below_full_slope(self):
        from repro.core import server_only_affine_slope

        dc = small_datacenter()
        assert server_only_affine_slope(dc) < dc.affine_power().slope_mw_per_rps
