"""Ablation: the breakpoint safety margin in the stepped-cost MILP.

The optimizer decides with a smooth affine power model but is billed on
the exact stepped one, which runs slightly hotter. Without a safety
margin the MILP parks sites exactly below price breakpoints, the
realized draw crosses them, and the whole site bill reprices one level
up (we observed this turning Cost Capping's savings negative). This
ablation quantifies the effect: margin 0 vs the default 1% vs a
conservative 5%.
"""

import pytest

from repro.core import BillCapper, CostMinimizer, ThroughputMaximizer
from repro.sim.strategies import CappingStrategy

from conftest import BENCH_HOURS, run_once

from _report import report, table

_HOURS = max(48, BENCH_HOURS // 3)


def _run(engine, margin: float) -> float:
    capper = BillCapper(
        cost_minimizer=CostMinimizer(step_margin_frac=margin),
        throughput_maximizer=ThroughputMaximizer(step_margin_frac=margin),
    )
    return engine.run(CappingStrategy(capper=capper), hours=_HOURS).total_cost


def test_ablation_step_margin(benchmark, engine):
    default = run_once(benchmark, lambda: _run(engine, 0.01))
    none = _run(engine, 0.0)
    wide = _run(engine, 0.05)

    rows = [
        ("0% (no margin)", f"{none:,.0f}"),
        ("1% (default)", f"{default:,.0f}"),
        ("5% (conservative)", f"{wide:,.0f}"),
    ]
    report(
        "ablation_step_margin",
        "realized bill vs breakpoint safety margin",
        table(("margin", "realized bill $"), rows)
        + [
            "",
            f"no-margin penalty vs default: {none / default - 1:+.1%}",
            f"wide-margin penalty vs default: {wide / default - 1:+.1%}",
        ],
    )

    # No margin lets realized prices jump across breakpoints: pricier.
    assert none >= default * 0.999
    # An over-wide margin gives up cheap headroom: also no cheaper.
    assert wide >= default * 0.999
