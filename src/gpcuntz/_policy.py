"""The package's one numeric policy and the checks every layer shares.

The table below holds the package's four tolerances; `_check_near` tests
every unit, unimodular or unitary input against UNIT_TOL.  The word layer
(`algebra`) re-exports everything here, and the numeric layers (`params`,
`reps`, `decisions`) import it from this module, so a process that runs no
word arithmetic neither compiles nor imports `algebra`.  `_Record` is the
base of the package's records.  Only the standard library is imported.
"""

from __future__ import annotations

import contextlib
import gc
import numbers

PRUNE_TOL = 1e-12   # a coefficient, entry or imaginary residue at or below it is 0; NaN is not
UNIT_TOL = 1e-10    # how far a unit or unimodular input may stray from 1 (G G^H from I)
PIVOT_TOL = 1e-8    # least magnitude a component or Gram-Schmidt residual needs as a pivot
DEFAULT_TOL = 1e-9  # the decision tolerance, which GPCUNTZ_TOL overrides


class RankMismatchError(ValueError):
    """Combination of elements living over different generator counts."""

    # its public home, where it is exported, pickled by reference and named
    # in its repr, is the word layer, which re-exports it
    __module__ = "gpcuntz.algebra"


class _Record:
    """Base of the package's records, each a class that writes out its
    `__init__` and lists its fields, in the order of that signature, in
    `_fields`.  A record prints as `Name(field=value, ...)`; it equals a
    record of its own class with equal fields and hashes as the tuple of
    its fields; and its attributes are read-only, so `__init__` sets them
    with `object.__setattr__`.  A subclass declared with `eq=False`
    compares and hashes by identity, and one declared with `frozen=False`
    takes assignment and, if it compares by fields, is unhashable: the
    `eq` and `frozen` of a dataclass, which is not used because importing
    `dataclasses` loads `inspect` and its decorator compiles the methods it
    generates at every import.
    """

    _fields = ()

    def __init_subclass__(cls, eq=True, frozen=True):
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_integer(value, what: str) -> None:
    """Raise ValueError naming `value` unless it is an integer; numpy
    integers pass, 2.0 does not."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_near(values, target, message: str) -> None:
    """Raise ValueError(message) unless each |value - target| <= UNIT_TOL,
    which NaN never is; a Python scalar skips the array reduction, which
    costs more."""
    near = abs(values - target) <= UNIT_TOL
    if not (near if isinstance(near, bool) else near.all()):
        raise ValueError(message)


def _unimodular(c, what: str) -> complex:
    """complex(c), refused unless |c| = 1 within UNIT_TOL."""
    c = complex(c)
    _check_near(abs(c), 1.0, f"{what} must be unimodular")
    return c


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block.

    Building millions of small containers (key tuples, nested lists) sets
    off repeated collections that each traverse every live object, and
    none of them can be garbage.  The collector's previous state is
    restored however the block ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
