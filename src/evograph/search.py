"""Numeric search for homomorphism candidates, and closed forms.

Search minimises the sum of squared constraint residuals with a damped
least-squares iteration (Levenberg-Marquardt style schedule) from many
random restarts, discards the null basin, and tries to reconstruct any
near-exact minimiser as rational or radical entries for exact
verification.  A reported "none found" is evidence, not a proof; only
the deduction engine certifies.

For regular and biregular graphs the isomorphism is written down in
closed form: (1/k) * I in the regular case, and a diagonal map with
radical entries alpha = (k1^2 k2)^(-1/3), beta = (k1 k2^2)^(-1/3) on the
two sides of a biregular bipartition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, classify_regularity
from .homsystem import (
    HomCandidate,
    HomSystem,
    derive_constraints,
    is_homomorphism_direct,
    is_isomorphism,
    residual,
)
from .radicals import Radical, RadicalSum

NONE_FOUND = "none-found"
CANDIDATE = "candidate"
VERIFIED_HOM = "verified-hom"


MAX_ITERATIONS = 500  # damped least-squares steps per restart
TOL_RESIDUAL = 1e-10  # residual max-norm below which a point is reconstructed
TOL_NULL = 1e-6  # entry max-norm below which a point is the null map
INIT_SCALE = 1.5  # starts are uniform in [-INIT_SCALE, INIT_SCALE]


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    kind: str  # NONE_FOUND | CANDIDATE | VERIFIED_HOM
    best_residual: float
    T: HomCandidate | None = None
    exact: HomCandidate | None = None
    isomorphism: bool = False
    restart_index: int = -1


class _CompiledSystem:
    """Constraint terms flattened into index arrays for vectorised evaluation."""

    def __init__(self, sys: HomSystem):
        self.m = len(sys.constraints)
        self.nvars = sys.num_vars
        rows, v1, v2, coeff = [], [], [], []
        for ci, c in enumerate(sys.constraints):
            for mono, cf in c.p.items():
                rows.append(ci)
                coeff.append(float(cf))
                if len(mono) == 2:
                    v1.append(mono[0])
                    v2.append(mono[1])
                elif len(mono) == 1:
                    v1.append(mono[0])
                    v2.append(-1)
                else:
                    v1.append(-1)
                    v2.append(-1)
        self.rows = np.array(rows, dtype=np.int64)
        self.v1 = np.array(v1, dtype=np.int64)
        self.v2 = np.array(v2, dtype=np.int64)
        self.coeff = np.array(coeff, dtype=np.float64)
        self.quad = self.v2 >= 0
        self.lin = (self.v2 < 0) & (self.v1 >= 0)
        self.const = self.v1 < 0

    def residual_vec(self, x: np.ndarray) -> np.ndarray:
        r = np.zeros(self.m)
        q, l, c = self.quad, self.lin, self.const
        if q.any():
            np.add.at(r, self.rows[q], self.coeff[q] * x[self.v1[q]] * x[self.v2[q]])
        if l.any():
            np.add.at(r, self.rows[l], self.coeff[l] * x[self.v1[l]])
        if c.any():
            np.add.at(r, self.rows[c], self.coeff[c])
        return r

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        J = np.zeros((self.m, self.nvars))
        q, l = self.quad, self.lin
        if q.any():
            np.add.at(J, (self.rows[q], self.v1[q]), self.coeff[q] * x[self.v2[q]])
            np.add.at(J, (self.rows[q], self.v2[q]), self.coeff[q] * x[self.v1[q]])
        if l.any():
            np.add.at(J, (self.rows[l], self.v1[l]), self.coeff[l])
        return J


def gradient(sys: HomSystem, T) -> np.ndarray:
    """Analytic gradient of the squared-residual sum at a float candidate."""
    x = np.asarray(T, dtype=np.float64).reshape(-1)
    if x.size != sys.num_vars:
        raise ValueError(f"candidate has {x.size} entries, system expects {sys.num_vars}")
    comp = _CompiledSystem(sys)
    r = comp.residual_vec(x)
    return (2.0 * comp.jacobian(x).T @ r).reshape(sys.n, sys.n)


def _lm_minimize(comp: _CompiledSystem, x0: np.ndarray, max_iter: int) -> np.ndarray:
    """Damped least squares; multiply damping by 10 on a failed step,
    divide by 10 on success."""
    x = x0.copy()
    r = comp.residual_vec(x)
    cost = float(r @ r)
    lam = 1e-3
    eye = np.eye(comp.nvars)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < 1e-14:
            break
        J = comp.jacobian(x)
        g = J.T @ r
        try:
            delta = np.linalg.solve(J.T @ J + lam * eye, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        xn = x + delta
        rn = comp.residual_vec(xn)
        costn = float(rn @ rn)
        if costn < cost:
            x, r, cost = xn, rn, costn
            lam = max(lam / 10.0, 1e-13)
            if np.max(np.abs(delta)) < 1e-15:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return x


_RADICAL_BASES = sorted(
    ((a, b) for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0)),
    key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab),
)


def reconstruct_scalar(x: float, tol: float = 1e-8) -> Radical | None:
    """Nearest exact value as p/q (q <= 64) or q * 2^(a/3) * 3^(b/3)."""
    fr = Fraction(x).limit_denominator(64)
    if abs(x - float(fr)) < tol:
        return Radical.from_rational(fr)
    for a, b in _RADICAL_BASES:
        base = 2.0 ** (a / 3.0) * 3.0 ** (b / 3.0)
        q = Fraction(x / base).limit_denominator(64)
        if q and abs(x - float(q) * base) < tol:
            rad = Radical.root(Fraction(2) ** a * Fraction(3) ** b, 3)
            return Radical.from_rational(q) * rad
    return None


def _reconstruct_matrix(x: np.ndarray, n: int) -> HomCandidate | None:
    entries = []
    all_rational = True
    for i in range(n):
        row = []
        for k in range(n):
            rad = reconstruct_scalar(float(x[i * n + k]))
            if rad is None:
                return None
            if not rad.is_rational:
                all_rational = False
            row.append(rad)
        entries.append(row)
    if all_rational:
        return HomCandidate.from_rows(
            [[r.as_rational() for r in row] for row in entries]
        )
    return HomCandidate.from_rows(
        [[RadicalSum.from_radical(r) for r in row] for row in entries]
    )


def find_homomorphism(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Multistart damped least-squares search with exact post-verification.

    Converged points inside the null basin (entry max-norm below
    ``TOL_NULL``) are discarded.  The best surviving point with residual
    max-norm below ``TOL_RESIDUAL`` is reconstructed entrywise and, if
    that succeeds, verified exactly; outcomes rank
    verified-hom > candidate > none-found, ties by lowest restart index.
    """
    sys = derive_constraints(g)
    comp = _CompiledSystem(sys)
    rng = np.random.default_rng(cfg.seed)
    best: tuple[float, int, np.ndarray] | None = None  # residual, restart, point
    for idx in range(cfg.restarts):
        x0 = rng.uniform(-INIT_SCALE, INIT_SCALE, size=sys.num_vars)
        x = _lm_minimize(comp, x0, MAX_ITERATIONS)
        if np.max(np.abs(x)) < TOL_NULL:
            continue
        res = float(np.max(np.abs(comp.residual_vec(x))))
        if best is None or res < best[0]:
            best = (res, idx, x)
    if best is None:
        return SearchOutcome(NONE_FOUND, float("inf"))
    res, idx, x = best
    T_float = HomCandidate.from_rows(
        [[float(x[i * sys.n + k]) for k in range(sys.n)] for i in range(sys.n)]
    )
    if res < TOL_RESIDUAL and g.n > 1:  # no random-walk algebra on one vertex
        exact = _reconstruct_matrix(x, sys.n)
        if exact is not None and exact.max_abs() > 0 and is_homomorphism_direct(g, exact):
            iso = is_isomorphism(g, exact)
            return SearchOutcome(VERIFIED_HOM, res, T_float, exact, iso, idx)
        return SearchOutcome(CANDIDATE, res, T_float, None, False, idx)
    return SearchOutcome(NONE_FOUND, res, T_float, None, False, idx)


def closed_form_iso(g: Graph) -> HomCandidate | None:
    """Exact isomorphism for regular or biregular graphs; None otherwise.

    Verifies the defining identities exactly in radical arithmetic and
    double-checks the float residual before returning.
    """
    reg = classify_regularity(g)
    if reg.is_neither or reg.k == 0:  # no random-walk algebra on one vertex
        return None
    if reg.is_regular:
        cand = HomCandidate.scaled_identity(g.n, Fraction(1, reg.k))
        # defining identity: k * (1/k)^2 == 1/k
        assert Fraction(reg.k) * Fraction(1, reg.k) ** 2 == Fraction(1, reg.k)
    else:
        k1, k2 = reg.k1, reg.k2
        alpha = Radical.root(Fraction(1, k1 * k1 * k2), 3)
        beta = Radical.root(Fraction(1, k1 * k2 * k2), 3)
        assert alpha * alpha == beta / k1, "alpha^2 == beta/k1 must hold"
        assert beta * beta == alpha / k2, "beta^2 == alpha/k2 must hold"
        diag = {v: alpha for v in reg.part1}
        diag.update({v: beta for v in reg.part2})
        cand = HomCandidate.from_rows(
            [
                [
                    RadicalSum.from_radical(diag[i]) if i == k else RadicalSum()
                    for k in range(1, g.n + 1)
                ]
                for i in range(1, g.n + 1)
            ]
        )
    sys = derive_constraints(g)
    floatT = HomCandidate.from_rows(
        [[float(x) for x in row] for row in cand.entries]
    )
    backup = residual(sys, floatT).max_norm
    if backup >= 1e-12:
        raise AssertionError(f"closed form failed the numeric backup check: {backup}")
    return cand
