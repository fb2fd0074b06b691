"""Unit tests for the tariff registry and spec parsing."""

import pytest

from repro.billing import (
    DEFAULT_TARIFF,
    DemandCharge,
    EnergyCharge,
    LineItem,
    TariffComponent,
    available_tariffs,
    get_tariff,
    make_ledger,
    register_tariff,
    restore_component,
    restore_ledger,
)
from repro.billing import registry as registry_mod


def test_builtins_are_registered():
    names = available_tariffs()
    assert "energy" in names
    assert "demand" in names
    assert names == tuple(sorted(names))


def test_default_tariff_is_energy_only():
    assert DEFAULT_TARIFF == "energy"
    ledger = make_ledger(None)
    assert ledger.is_energy_only
    assert ledger.tariff == "energy"
    # Blank specs also fall back to the default.
    assert make_ledger("  ").is_energy_only


def test_get_tariff_unknown_name_lists_available():
    with pytest.raises(ValueError, match="unknown tariff 'tou'"):
        get_tariff("tou")


def test_make_ledger_parses_parameters_and_aliases():
    ledger = make_ledger("energy+demand:rate=6,cycle=168")
    demand = ledger.component("demand")
    assert demand.rate_per_kw == 6.0
    assert demand.cycle_hours == 168
    assert ledger.tariff == "energy+demand:rate=6,cycle=168"

    long_form = make_ledger("demand:rate_per_kw=1.5,cycle_hours=720")
    assert long_form.component("demand").rate_per_kw == 1.5
    assert long_form.component("demand").cycle_hours == 720


def test_make_ledger_fresh_state_per_call():
    a = make_ledger("energy+demand")
    b = make_ledger("energy+demand")
    assert a.component("demand") is not b.component("demand")


def test_make_ledger_spec_errors():
    with pytest.raises(ValueError, match="empty component"):
        make_ledger("energy+")
    with pytest.raises(ValueError, match="key=value"):
        make_ledger("demand:rate6")
    with pytest.raises(ValueError, match="unknown demand-charge"):
        make_ledger("demand:ratez=6")
    with pytest.raises(ValueError, match="no parameters"):
        make_ledger("energy:rate=6")
    with pytest.raises(ValueError, match="unknown tariff"):
        make_ledger("energy+carbon")
    for rate in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="demand rate must be finite"):
            make_ledger(f"energy+demand:rate={rate}")


def test_register_tariff_validation_and_replace():
    class _Flat(TariffComponent):
        name = "flat-fee"

        def charge(self, hour_ctx):
            return LineItem("flat-fee", 1.0)

        def to_dict(self):
            return {"kind": "flat-fee"}

        @classmethod
        def from_dict(cls, data):
            return cls()

    try:
        with pytest.raises(ValueError, match="non-empty string"):
            register_tariff("", _Flat)
        with pytest.raises(TypeError, match="subclass TariffComponent"):
            register_tariff("flat-fee", object)
        with pytest.raises(ValueError, match="is named"):
            register_tariff("wrong-name", _Flat)

        register_tariff("flat-fee", _Flat)
        assert "flat-fee" in available_tariffs()
        assert isinstance(get_tariff("flat-fee"), _Flat)

        with pytest.raises(ValueError, match="already registered"):
            register_tariff("flat-fee", _Flat)
        register_tariff("flat-fee", _Flat, replace=True)  # allowed

        ledger = make_ledger("energy+flat-fee")
        ledger.accrue(10.0, 1.0)
        items = ledger.settle(0)
        assert [i.component for i in items] == ["energy", "flat-fee"]
        assert items[1].amount == 1.0
    finally:
        registry_mod._COMPONENTS.pop("flat-fee", None)


def test_restore_component_dispatches_on_kind():
    assert isinstance(restore_component({"kind": "energy"}), EnergyCharge)
    demand = restore_component(
        {"kind": "demand", "rate_per_kw": 4.0, "cycle_hours": 12,
         "peak_mw": 7.5, "cycle": 3}
    )
    assert isinstance(demand, DemandCharge)
    assert demand.peak_mw == 7.5
    with pytest.raises(ValueError, match="unknown tariff"):
        restore_component({"kind": "carbon"})


def test_restore_ledger_none_migrates_to_energy_default():
    # Pre-tariff checkpoints have no ledger payload at all.
    ledger = restore_ledger(None)
    assert ledger.is_energy_only
    assert ledger.tariff == DEFAULT_TARIFF


def test_restore_ledger_round_trips_state():
    ledger = make_ledger("energy+demand:rate=2,cycle=24")
    ledger.accrue(50.0, 20.0)
    ledger.settle(0)
    back = restore_ledger(ledger.to_dict())
    assert back.to_dict() == ledger.to_dict()
