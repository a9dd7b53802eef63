"""Tiny dense GF(2) linear algebra on int bitsets (bit i = row i)."""

from __future__ import annotations


def column_reduce(columns: list[int]) -> tuple[int, list[int]]:
    """Rank and a kernel basis for the map sending basis j to columns[j].

    Kernel vectors are returned as bitmasks over column indices.
    """
    work = list(columns)
    combos = [1 << j for j in range(len(columns))]
    pivots: dict[int, int] = {}  # pivot row bit -> column index
    kernel: list[int] = []
    for j in range(len(work)):
        col = work[j]
        while col:
            low = col & -col
            if low not in pivots:
                break
            i = pivots[low]
            col ^= work[i]
            combos[j] ^= combos[i]
        work[j] = col
        if col:
            pivots[col & -col] = j
        else:
            kernel.append(combos[j])
    return len(pivots), kernel
