"""Shared test fixtures.

Witness faults are injected through the decomposers: ``covering._verify``
looks up ``decompose_simplex``, ``decompose_crosspolytope`` and ``_peel``
at call time, so wrapping those three names reaches both verifiers and
the CLI.
"""

import pytest

from hadcover import covering

# Each decomposer's positional index of k.
_DECOMPOSERS = (("decompose_simplex", 1), ("decompose_crosspolytope", 1), ("_peel", 2))


def _shifting(decompose, k_at):
    def broken(*args, **kwargs):
        witness = decompose(*args, **kwargs)
        z = witness.z
        return witness._replace(z=(z[0] + args[k_at] + 1,) + z[1:])
    return broken


def break_witnesses(monkeypatch):
    """Shift z_0 of every witness by k + 1, to exercise the failure path.

    No translate of M1 reaches z_0 = k + 1, so every M1 witness fails.
    """
    for name, k_at in _DECOMPOSERS:
        monkeypatch.setattr(covering, name, _shifting(getattr(covering, name), k_at))


@pytest.fixture
def broken_witnesses(monkeypatch):
    break_witnesses(monkeypatch)
