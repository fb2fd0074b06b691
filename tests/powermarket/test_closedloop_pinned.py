"""Closed-loop runs pinned bit for bit against checked-in fixtures.

The fixtures under ``tests/fixtures/closedloop/`` were generated with a
DC-OPF that built a fresh model for every LP and swept every load level
with its own LP (see ``gen_fixtures.py`` there). Each case reruns the
same closed loop and must reproduce every ``HourRecord`` and every
hour's ``FixedPointResult`` — LMPs, LMP history, regenerated policies,
injections, iteration count and flags — with identical JSON text, so
every float matches to the bit.
"""

import importlib.util
import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "closedloop"


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "closedloop_gen_fixtures", FIXTURES / "gen_fixtures.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GEN = _load_gen()


@pytest.mark.parametrize("case", sorted(GEN.CASES))
def test_closed_loop_matches_pinned_run(case):
    pinned = json.loads((FIXTURES / f"{case}.json").read_text())
    fresh = json.loads(GEN.run_case(case))
    assert len(fresh) == len(pinned) == GEN.CASES[case]["hours"]
    for hour, (got, want) in enumerate(zip(fresh, pinned)):
        for part in ("record", "fixed_point"):
            # Compare the JSON spelling: exact floats, nan == nan.
            assert json.dumps(got[part]) == json.dumps(want[part]), (
                f"{case}: hour {hour} {part} differs"
            )
