"""Central registry of dispatch strategies.

Every policy the repo can simulate — Cost Capping, the three Min-Only
price-taker modes, the hierarchical capper, and anything a user
registers — is a named factory here. All entry points (``repro
compare``/``repro run``, :meth:`repro.sim.engine.Engine.run`,
:mod:`repro.sim.parallel`, :mod:`repro.sim.sweep`,
:mod:`repro.sim.montecarlo`) resolve strategies through this module, so
adding a policy is one :func:`register_strategy` call instead of five
``if/elif`` chains.

Factories take no arguments and return a *fresh*
:class:`~repro.sim.engine.DispatchStrategy` per :func:`get_strategy`
call — strategies are stateful across the hours of one run (model
caches) and must never be shared between runs.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["register_strategy", "get_strategy", "available_strategies"]

_FACTORIES: dict[str, Callable[[], object]] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Load the built-in strategies exactly once, lazily.

    Lazy because :mod:`repro.sim.strategies` imports the engine (which
    imports this module back for name resolution), and because pool
    workers that unpickle a task must see the same registry without any
    explicit initialization.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import strategies  # noqa: F401  (registers on import)


def register_strategy(
    name: str, factory: Callable[[], object], *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    ``factory`` must return a fresh :class:`~repro.sim.engine.
    DispatchStrategy` each call. Re-registering an existing name raises
    unless ``replace=True`` — shadowing a built-in silently is almost
    always a bug in user code.
    """
    if not name or not isinstance(name, str):
        raise ValueError("strategy name must be a non-empty string")
    if not callable(factory):
        raise TypeError("strategy factory must be callable")
    _ensure_builtins()
    if name in _FACTORIES and not replace:
        raise ValueError(
            f"strategy {name!r} is already registered; pass replace=True "
            "to override it"
        )
    _FACTORIES[name] = factory


def get_strategy(name: str):
    """A fresh strategy instance for ``name``.

    Raises :class:`ValueError` with the list of registered names when
    the name is unknown — the message every CLI/pool entry point
    surfaces verbatim.
    """
    _ensure_builtins()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of "
            f"{available_strategies()}"
        )
    strategy = factory()
    got = getattr(strategy, "name", None)
    if got != name:
        raise ValueError(
            f"factory for {name!r} built a strategy named {got!r}"
        )
    return strategy


def available_strategies() -> tuple[str, ...]:
    """All registered strategy names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))
