"""Two-row symbols, the special symbols attached to cuspidal unipotent data,
wave-front partitions, and the cuspidal multiplicity 2-power.

A symbol is a pair of strictly increasing rows of non-negative integers; its
rank is the plain entry sum.  A symbol or partition with more than
ENTRY_CAP entries raises BudgetExceededError instead of being listed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InputError, as_int
from .partitions import EpsPartition, Partition

ENTRY_CAP = 1_000_000


def _check_entries(count: int) -> None:
    if count > ENTRY_CAP:
        raise BudgetExceededError(f"the answer has {count} entries, above {ENTRY_CAP}")


@dataclass(frozen=True)
class Symbol:
    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("top", "bottom"):
            row = tuple(as_int(x, "a symbol entry") for x in getattr(self, name))
            object.__setattr__(self, name, row)
            if any(x < 0 for x in row):
                raise InputError("symbol entries must be non-negative")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise InputError("symbol rows must be strictly increasing")

    @property
    def defect(self) -> int:
        return len(self.top) - len(self.bottom)

    @property
    def rank(self) -> int:
        return sum(self.top) + sum(self.bottom)


def special_symbol(e: int, delta: int) -> Symbol:
    """The defect-delta special symbol of rank e*(e+delta).

    delta = 1: rows (0, 1, ..., e) over (1, 2, ..., e), any e >= 0;
    delta = 0: rows (1, 2, ..., e) over (0, 1, ..., e-1), e >= 1.
    Either way the symbol has 2e + delta entries.
    """
    e, delta = as_int(e, "e"), as_int(delta, "delta")
    if delta == 1:
        if e < 0:
            raise InputError("e must be >= 0")
        _check_entries(2 * e + 1)
        return Symbol(tuple(range(e + 1)), tuple(range(1, e + 1)))
    if delta == 0:
        if e < 1:
            raise InputError("e must be >= 1 for defect 0")
        _check_entries(2 * e)
        return Symbol(tuple(range(1, e + 1)), tuple(range(e)))
    raise InputError("delta must be 0 or 1")


def _admissible(e: int, f: int, delta: int) -> tuple[int, int]:
    """Normalise to e <= f and reject the empty datum.

    Data with f + delta >= 2 are the ones carrying actual cuspidal
    characters; the smaller ones are kept because every combinatorial
    identity below still holds for them and the formulas are exercised
    there too.
    """
    e, f, delta = as_int(e, "e"), as_int(f, "f"), as_int(delta, "delta")
    if delta not in (0, 1):
        raise InputError("delta must be 0 or 1")
    if e < 0 or f < 0:
        raise InputError("e, f must be >= 0")
    e, f = min(e, f), max(e, f)
    if f + delta < 1:
        raise InputError("the empty datum (0, 0, 0) is excluded")
    return e, f


def wavefront_partition(e: int, f: int, delta: int) -> EpsPartition:
    """Jordan type of the wave-front class of the cuspidal datum (e, f, delta).

    With e <= f: every odd part below 2(e + f + delta) once, and every odd
    part below 2(f - e) once more, an orthogonal-type partition of
    2*(e*(e+delta) + f*(f+delta)) + delta with 2f + delta parts.

    Derivation.  The class symbol adds the smaller special symbol, raised
    by the staircase 0, 2, 4, ... and shifted f - e times (prepend 0, add 2),
    entrywise to the larger one.  Each of its rows is then an arithmetic
    progression of step 3 over its first f - e entries and of step 4 after
    them.  Doubling one row, doubling-plus-one the other, merging and
    subtracting the interleaved staircase 0, 1, 4, 5, 8, 9, ... turns the
    step-3 entries into the doubled parts 1, 3, ..., 2(f-e)-1 and the step-4
    entries into the single parts 2(f-e)+1, ..., 2(e+f+delta)-1.
    """
    e, f = _admissible(e, f, delta)
    _check_entries(2 * f + delta)
    singles = range(2 * (e + f + delta) - 1, 2 * (f - e), -2)
    doubles = (part for part in range(2 * (f - e) - 1, 0, -2) for _ in range(2))
    return EpsPartition(Partition((*singles, *doubles)), 0)


def cuspidal_multiplicity(e: int, f: int, delta: int) -> int:
    """Multiplicity 2-power of a cuspidal character in its generalised
    Gelfand-Graev character: 2^(e + f - D(delta,e) - D(delta,f)) with
    D(delta, m) = 1 exactly when delta = 0 and m != 0.  Capped like the
    wave-front partition of the same datum, which has 2f + delta parts."""
    e, f = _admissible(e, f, delta)
    _check_entries(2 * f + delta)
    def dcorr(m: int) -> int:
        return 1 if delta == 0 and m != 0 else 0
    return 2 ** (e + f - dcorr(e) - dcorr(f))
