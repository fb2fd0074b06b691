"""Regenerate the pinned energy-default fixtures in this directory.

Run from the repo root against a known-good tree::

    PYTHONPATH=src python tests/fixtures/tariff/gen_fixtures.py

The fixtures pin the pre-tariff-refactor outputs: hourly records, an
engine checkpoint, a single-process serve decision log + service
checkpoint, and a sharded serial merged log + shard checkpoint. The
billing-layer tests assert the default ``energy`` tariff still produces
exactly these bytes/fields, and that the old checkpoint versions load
via migration.

``service_ckpt.json`` is historical input: it was written by the
retired single-process runtime, and nothing here rewrites it. The serve
decision log is now produced by the in-process control plane, which
must reproduce it byte for byte.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile

HERE = pathlib.Path(__file__).parent

MONTHLY_BUDGET = 800_000.0
ENGINE_HOURS = 6
SERVE_HOURS = 3
SHARD_HOURS = 3

SOURCE = {
    "kind": "replay",
    "ticks_per_hour": 4,
    "hours": SERVE_HOURS,
    "seed": 0,
    "jitter": 0.02,
    "ca2": 4.0,
    "price_jitter": 0.0,
    "sites": [],
    "trace_file": None,
}

SHARD_SPEC = {
    "world": {"kind": "paper", "policy": 1, "seed": 7},
    "source": dict(SOURCE, hours=SHARD_HOURS),
    "strategy": "capping",
    "trigger": {
        "lambda_delta": 0.05,
        "price_delta": 0.05,
        "debounce_s": 120.0,
        "max_staleness_s": 900.0,
    },
    "degradation": "proportional",
    "horizon": SHARD_HOURS,
    "monthly_budget": MONTHLY_BUDGET,
}

SERVE_SPEC = dict(SHARD_SPEC, source=SOURCE, horizon=SERVE_HOURS)


def gen_engine() -> None:
    from repro.experiments import paper_world
    from repro.sim import Engine

    world = paper_world(1, seed=7)
    engine = Engine(world.sites, world.workload, world.mix)
    ckpt = HERE / "engine_ckpt.json"
    result = engine.run(
        "capping",
        budgeter=world.budgeter(MONTHLY_BUDGET),
        hours=ENGINE_HOURS,
        checkpoint_path=ckpt,
        checkpoint_meta={"policy": 1, "seed": 7},
    )
    (HERE / "engine_records.json").write_text(
        json.dumps([h.to_dict() for h in result.hours], indent=1) + "\n"
    )
    print(f"engine: {len(result.hours)} records, ckpt -> {ckpt.name}")


def gen_serve() -> None:
    from repro.service import ShardedControlPlane

    with tempfile.TemporaryDirectory() as tmp:
        log = pathlib.Path(tmp) / "serve_decisions.jsonl"
        plane = ShardedControlPlane(
            SERVE_SPEC, decision_log=log, http=False, handle_signals=False
        )
        summary = plane.run()
        shutil.copyfile(log, HERE / "serve_decisions.jsonl")
    print(f"serve: {summary['decisions']} decisions, "
          f"{summary['hours']} hours settled")


def gen_shard() -> None:
    from repro.service.shard import (
        RegionDriver,
        ShardCoordinator,
        _DirectLedger,
        _build_engine,
        _build_spec_ticks,
        build_world,
        plan_regions,
    )

    spec = SHARD_SPEC
    world = build_world(spec["world"])
    engine = _build_engine(world)
    regions = plan_regions(engine)
    budgeter = world.budgeter(float(spec["monthly_budget"]))
    coordinator = ShardCoordinator(
        regions,
        budgeter,
        horizon=spec["horizon"],
        spec=spec,
        checkpoint_path=HERE / "shard_ckpt.json",
        meta={"spec": spec, "decision_log": "unused", "workers": 1},
    )
    ticks = _build_spec_ticks(world, spec["source"])
    per_region: dict[int, list[str]] = {r.index: [] for r in regions}

    def emit(region, event, wall_s, produced_mono):
        per_region[region].append(event.to_json())

    driver = RegionDriver(
        engine,
        regions,
        [r.index for r in regions],
        ticks,
        spec,
        _DirectLedger(coordinator),
        emit=emit,
    )
    driver.run()
    merged = []
    for r, lines in sorted(per_region.items()):
        for line in lines:
            merged.append((json.loads(line)["tick_seq"], r, line))
    merged.sort(key=lambda e: (e[0], e[1]))
    (HERE / "shard_merged.jsonl").write_text(
        "".join(line + "\n" for _, _, line in merged)
    )
    print(f"shard: {len(merged)} merged lines, "
          f"{coordinator.settled_hours} hours settled")


if __name__ == "__main__":
    gen_engine()
    gen_serve()
    gen_shard()
