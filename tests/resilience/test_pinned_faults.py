"""Fault-injected Cost Capping runs pinned against checked-in fixtures.

The fixtures under ``tests/fixtures/resilience/`` were written while the
bill capper still kept a private degradation path beside the engine's
(see ``gen_fixtures.py`` there). Each case reruns the same faulted run
and must reproduce every ``HourRecord`` field for field, with identical
JSON text, so every float matches to the bit. The pinned checkpoint,
cut between two consecutive solver faults of the ``hold-last`` run,
must resume to the uninterrupted run.
"""

import importlib.util
import json
import pathlib
import shutil

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "resilience"


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "resilience_gen_fixtures", FIXTURES / "gen_fixtures.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GEN = _load_gen()


@pytest.fixture(scope="module")
def built():
    return GEN.build()


@pytest.fixture(scope="module")
def pinned():
    return json.loads((FIXTURES / "runs.json").read_text())


def assert_records_match(hours, want, label):
    assert len(hours) == len(want) == GEN.HOURS
    for t, (record, old) in enumerate(zip(hours, want)):
        fresh = json.loads(json.dumps(record.to_dict()))
        assert fresh.keys() == old.keys(), f"{label}: hour {t} fields"
        for name in old:
            # Compare the JSON spelling: exact floats, nan == nan.
            assert json.dumps(fresh[name]) == json.dumps(old[name]), (
                f"{label}: hour {t} {name} differs"
            )


@pytest.mark.parametrize("case", list(GEN.CASES))
def test_faulted_run_matches_pinned_records(built, pinned, case):
    from repro.resilience import FaultInjector, FaultSpec

    result = GEN.run_case(case, *built)
    assert_records_match(result.hours, pinned[case], case)
    # The pins exercise every fault channel after hour 0, and degrade
    # exactly the hours whose solver stack was made to fail.
    injector = FaultInjector(FaultSpec(**GEN.FAULTS))
    hours = [injector.faults_for(t) for t in range(GEN.HOURS)]
    assert len({kind for hf in hours[1:] for kind in hf.kinds}) == 5
    assert [h.hour for h in result.hours if h.degraded] == [
        t for t, hf in enumerate(hours) if hf.solver_exception() is not None
    ]


def test_hold_last_checkpoint_resumes_to_the_uninterrupted_run(
    built, pinned, tmp_path
):
    world, engine, monthly = built
    path = tmp_path / "hold_last_ckpt.json"
    shutil.copyfile(FIXTURES / "hold_last_ckpt.json", path)
    resumed = engine.resume(path, hours=GEN.HOURS)
    assert_records_match(resumed.hours, pinned["hold-last"], "resumed")
    straight = GEN.run_case("hold-last", world, engine, monthly)
    assert [h.to_dict() for h in resumed.hours] == [
        h.to_dict() for h in straight.hours
    ]
    # The first resumed hour is a solver fault: it holds the plan of
    # the last solved hour before the cut, read from the checkpoint.
    cut = GEN.CUT_HOUR
    held = resumed.hours[cut]
    assert held.degraded and resumed.hours[cut - 1].degraded
    last_solved = max(
        t for t in range(cut) if not resumed.hours[t].degraded
    )
    assert [s.dispatched_rps for s in held.sites] == [
        s.dispatched_rps for s in resumed.hours[last_solved].sites
    ]
