import functools
import importlib
import pkgutil
import sys

import pytest

import orbifrob as of
from orbifrob.rationals import QQ

_cache = {}


@pytest.fixture(scope="session")
def reconstructed():
    """Memoized reconstructions shared across the whole test session."""

    def get(multiplet, m_max, mode=of.STANDARD, strategy="guided"):
        key = (multiplet, m_max, mode.token(), strategy)
        if key not in _cache:
            _cache[key] = of.reconstruct(multiplet, m_max, mode, strategy=strategy)
        return _cache[key]

    return get


@pytest.fixture
def bind_second_rational_type(monkeypatch):
    """A callable that binds sympy's PythonMPQ as QQ and returns it.

    PythonMPQ has gmpy2's mpq interface with int numerators.  The call
    first imports every package module, so that none loaded later keeps
    the first type, then rebinds QQ in each module that imported it by
    name and swaps in a fresh geometry cache, so that no value built
    under the first type leaks in (PythonMPQ * Fraction raises TypeError).
    A test computes its baseline before the call.
    """
    mpq = pytest.importorskip("sympy.external.pythonmpq").PythonMPQ

    def bind():
        for info in pkgutil.iter_modules(of.__path__, "orbifrob."):
            if info.name != "orbifrob.__main__":
                importlib.import_module(info.name)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "orbifrob" and getattr(module, "QQ", None) is QQ:
                monkeypatch.setattr(module, "QQ", mpq)
        geometry = sys.modules["orbifrob.geometry"]
        monkeypatch.setattr(geometry, "_geometry", functools.cache(geometry.Geometry))
        return mpq

    return bind
