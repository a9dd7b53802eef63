"""Tiny dense GF(2) linear algebra on int bitsets (bit i = row i)."""

from __future__ import annotations


def rank(columns: list[int], pivots: dict[int, int] | None = None) -> int:
    """Rank of the GF(2) matrix whose j-th column is the bitset columns[j],
    appended to the earlier columns whose pivots it extends, if given."""
    pivots = {} if pivots is None else pivots  # lowest set bit -> reduced column holding it
    for col in columns:
        while col and (col & -col) in pivots:
            col ^= pivots[col & -col]
        if col:
            pivots[col & -col] = col
    return len(pivots)
