"""Shared test oracles, handed to tests as fixtures."""

import pytest


def _det_cofactor(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion, memoized on column subsets.

    Exponential; an independent cross-check oracle for ``is_singular``
    on small matrices.
    """
    n = len(rows)
    if n == 0:
        return 1
    cache: dict[tuple[int, int], int] = {}
    full = (1 << n) - 1

    def minor(row: int, cols: int) -> int:
        if row == n:
            return 1
        key = (row, cols)
        if key in cache:
            return cache[key]
        total = 0
        sign = 1
        for j in range(n):
            if not (cols >> j) & 1:
                continue
            if rows[row][j] != 0:
                total += sign * rows[row][j] * minor(row + 1, cols & ~(1 << j))
            sign = -sign
        cache[key] = total
        return total

    return minor(0, full)


@pytest.fixture(scope="session")
def det_cofactor():
    """The cofactor-expansion determinant, as an oracle for ``is_singular``."""
    return _det_cofactor
