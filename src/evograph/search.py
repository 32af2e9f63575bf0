"""Numeric search for homomorphism candidates, and closed forms.

Search minimises the sum of squared constraint residuals with a damped
least-squares iteration (Levenberg-Marquardt style schedule) from many
random restarts, stops a restart as soon as it enters the null basin
and discards it, and tries to reconstruct any near-exact minimiser as
rational or radical entries for exact verification.  A reported "none
found" is evidence, not a proof; only the deduction engine certifies.

The null basin is the points of entry max-norm below ``TOL_NULL = 1e-3``.
On a singular graph the null map is a singular root of the residual (at
T = 0 the Jacobian is dT -> (0, -P dT), rank-deficient with P = D^-1 A),
so damped Newton steps approach it only linearly, halving what is left at
each step; a tighter radius would only pay for that crawl.  The radius is
far below any real homomorphism: every nonzero entry of a closed-form
isomorphism on n <= 40 vertices is at least 1/(n-1) >= 1/39, and on
13 200 restarts over 22 graphs with at most 10 vertices, every restart
that ended away from the null map kept max-norm 0.2 or more along its
whole path.

Residuals and the normal equations (J^T J and J^T r) come from the
matrix form of the constraint system, ``T diag(A_r) T^T - diag((P T)[:, r])``
for each vertex r; no Jacobian is built.  Per candidate and step, the
dense term of J^T J costs n^4, the two adjacency terms are written only
on the graph's edge pattern ((2|E|)^2 entries), and the products M_r are
computed once, at the trial point, and carried to the next step.  What
dominates from n = 20 on is the dense n^2 x n^2 solve.  All restarts
advance together, one stacked solve per iteration, each with its own
damping and stopping rules.  They run in blocks whose stacked n^2 x n^2
normal matrices fit in ``BLOCK_BYTES``, which bounds memory.

For regular and biregular graphs the isomorphism is written down in
closed form: (1/k) * I in the regular case, and a diagonal map with
radical entries alpha = (k1^2 k2)^(-1/3), beta = (k1 k2^2)^(-1/3) on the
two sides of a biregular bipartition.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, classify_regularity
from .homsystem import HomCandidate, HomSystem, is_homomorphism_direct, is_isomorphism
from .radicals import Radical

NONE_FOUND = "none-found"
CANDIDATE = "candidate"
VERIFIED_HOM = "verified-hom"


MAX_ITERATIONS = 500  # damped least-squares steps per restart
TOL_RESIDUAL = 1e-10  # residual max-norm below which a point is reconstructed
TOL_NULL = 1e-3  # entry max-norm below which a point is the null map
INIT_SCALE = 1.5  # starts are uniform in [-INIT_SCALE, INIT_SCALE]
# Restarts are minimised in blocks whose stacked n^2 x n^2 normal matrices
# fit in this many bytes; a larger graph runs one restart at a time.
BLOCK_BYTES = 1_300_000


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SearchStats:
    """Counts of one search: restarts, restarts stopped on entering the null
    basin, LM row-iterations (one normal-equations build each) and rejected
    steps (a failed or singular step on one row)."""

    restarts: int = 0
    null_exits: int = 0
    iterations: int = 0
    rejected: int = 0

    def __add__(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass(frozen=True)
class SearchOutcome:
    kind: str  # NONE_FOUND | CANDIDATE | VERIFIED_HOM
    best_residual: float
    T: HomCandidate | None = None
    exact: HomCandidate | None = None
    isomorphism: bool = False
    restart_index: int = -1
    stats: SearchStats = SearchStats()


class _MatrixForm:
    """The constraint system of a graph in matrix form, for a stack of candidates.

    For each vertex r the constraints are the upper triangle of
    ``M_r - diag((P T)[:, r])`` with ``M_r = T diag(A_r) T^T``: the product
    constraints are ``M[r, i, j]`` for i < j, the square constraints
    ``S[r, i] = M[r, i, i] - (P T)[i, r]``.  ``A`` is the adjacency matrix
    and ``P = D^-1 A`` (a zero row on the one-vertex graph).  Residuals
    cost O(n^4) per candidate; see ``normal_equations`` for its terms.
    """

    def __init__(self, g: Graph):
        n = g.n
        A = np.array(g.adj, dtype=np.float64).reshape(n, n)
        deg = A.sum(axis=1)
        self.n, self.A = n, A
        self.P = np.divide(A, deg[:, None], out=np.zeros_like(A), where=deg[:, None] > 0)
        self.C = A.T @ A
        self.Q = self.P.T @ self.P
        self.iu = np.triu_indices(n, 1)
        # The A-terms of J^T J sit where A_kl != 0 and A_pq != 0 (P has A's
        # pattern), and A_kl = 1 there: flat (p, k, q, l) indices, ascending,
        # with the other factors of the terms.
        edges = np.flatnonzero(A)
        (p, q), (k, l) = (np.divmod(e, n) for e in np.meshgrid(edges, edges, indexing="ij"))
        self.pattern = np.sort((((p * n + k) * n + q) * n + l).reshape(-1))
        self.pk, self.ql = np.divmod(self.pattern, n * n)  # T_pk, T_ql in the flat candidate
        p, q = self.pk // n, self.ql // n
        self.Ppq, self.Pqp = self.P[p, q], self.P[q, p]

    def evaluate(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The residuals at the flat candidates ``X`` (B x n^2), in constraint
        order, and the products ``normal_equations`` reads there.

        The products are ``R[b, r]``, which is ``M_r`` with twice the square
        residuals on its diagonal, and the square residuals ``S[b, r, i]``.
        """
        B = len(X)
        T = X.reshape(B, self.n, self.n)
        R = (T[:, None, :, :] * self.A[None, :, None, :]) @ T.transpose(0, 2, 1)[:, None]
        S = np.diagonal(R, axis1=2, axis2=3) - (self.P @ T).transpose(0, 2, 1)
        # twice the square residuals on the diagonal, so that J^T r sums
        # A_rk (R_r T)_pk over r
        np.einsum("brii->bri", R)[...] = 2.0 * S
        i, j = self.iu
        r = np.concatenate([R[:, :, i, j].reshape(B, -1), S.reshape(B, -1)], axis=1)
        return r, R, S

    def residuals(self, X: np.ndarray) -> np.ndarray:
        """Residuals of the flat candidates ``X`` (B x n^2), in constraint order."""
        return self.evaluate(X)[0]

    def normal_equations(
        self, X: np.ndarray, R: np.ndarray, S: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``J^T J`` (B x n^2 x n^2) and ``J^T r`` (B x n^2) at the flat candidates,
        from the products ``evaluate`` returned for them.

        The dense term ``C_kl T_qk T_pl`` costs B n^4; the two A-terms are
        written only on the edge pattern, (2|E|)^2 entries, and the diagonal
        terms cost B n^3.
        """
        B, n, C = len(X), self.n, self.C
        T = X.reshape(B, n, n)
        Jr = np.einsum("rk,brpk->bpk", self.A, R @ T[:, None]) - (S @ self.P).transpose(0, 2, 1)
        # J^T J[(p,k),(q,l)] = delta_pq C_kl (G_kl + 2 T_pk T_pl) + C_kl T_qk T_pl
        #                      - 2 A_kl (T_pk P_pq + T_ql P_qp) + delta_kl Q_pq
        H = np.multiply(
            T[:, :, None, None, :] * C[:, None, :],
            T.transpose(0, 2, 1)[:, None, :, :, None],
            order="C",  # so that the flat views below are not copies
        )
        flat = H.reshape(B, n**4)
        on = flat[:, self.pattern]
        on -= (2.0 * X[:, self.pk]) * self.Ppq
        on -= (2.0 * X[:, self.ql]) * self.Pqp
        flat[:, self.pattern] = on
        G = T.transpose(0, 2, 1) @ T
        np.einsum("bpkpl->bpkl", H)[...] += C * (G[:, None] + 2.0 * T[:, :, :, None] * T[:, :, None, :])
        np.einsum("bpkqk->bpkq", H)[...] += self.Q[:, None, :]
        return H.reshape(B, n * n, n * n), Jr.reshape(B, n * n)


def gradient(sys: HomSystem, T) -> np.ndarray:
    """Analytic gradient of the squared-residual sum at a float candidate."""
    x = np.asarray(T, dtype=np.float64).reshape(1, -1)
    if x.size != sys.num_vars:
        raise ValueError(f"candidate has {x.size} entries, system expects {sys.num_vars}")
    form = _MatrixForm(sys.graph)
    _, Jr = form.normal_equations(x, *form.evaluate(x)[1:])
    return (2.0 * Jr[0]).reshape(sys.n, sys.n)


def _lm_minimize(
    form: _MatrixForm, X0: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, SearchStats]:
    """Damped least squares from each row of ``X0``, all rows advanced together.

    Each row keeps its own schedule: damping is multiplied by 10 on a
    failed or singular step and divided by 10 on success; a row stops
    at a residual below 1e-14, an accepted step below 1e-15, damping
    above 1e12, or, checked before each step, a point inside the null
    basin (entry max-norm below ``TOL_NULL`` = 1e-3), which the caller
    discards: from there on a singular graph the steps only halve the
    distance to the null map (see the module docstring).
    Each row carries the products ``form.evaluate`` gave at its point, so
    they are computed once per step, at the trial point.  Returns the
    final points, their residuals and the counts of the run.
    """
    X = X0.copy()
    N = X.shape[1]
    live = np.arange(len(X))  # rows still iterating
    r, R, S = form.evaluate(X)
    final = r  # every row's residuals; r, R and S below hold the live rows'
    cost = np.sum(r * r, axis=1)
    lam = np.full(len(X), 1e-3)
    stop = np.zeros(len(X), dtype=bool)
    null_exits = iterations = rejected = 0
    for _ in range(max_iter):
        x = X[live]
        active = ~stop & (np.abs(r).max(axis=1) >= 1e-14)
        null = active & (np.abs(x).max(axis=1) < TOL_NULL)
        keep = active & ~null
        null_exits += int(np.count_nonzero(null))
        live, x, r, cost, lam, R, S = live[keep], x[keep], r[keep], cost[keep], lam[keep], R[keep], S[keep]
        if not len(live):
            break
        iterations += len(live)
        H, g = form.normal_equations(x, R, S)
        H.reshape(len(live), N * N)[:, :: N + 1] += lam[:, None]
        solved = np.ones(len(live), dtype=bool)
        try:
            delta = -np.linalg.solve(H, g[..., None])[..., 0]
        except np.linalg.LinAlgError:  # find the singular rows one by one
            delta = np.zeros_like(x)
            for b in range(len(live)):
                try:
                    delta[b] = -np.linalg.solve(H[b], g[b])
                except np.linalg.LinAlgError:
                    solved[b] = False
        rn, Rn, Sn = form.evaluate(x + delta)
        costn = np.sum(rn * rn, axis=1)
        better = solved & (costn < cost)
        rejected += int(np.count_nonzero(~better))
        X[live[better]] += delta[better]
        final[live[better]] = rn[better]
        r[better], cost[better], R[better], S[better] = rn[better], costn[better], Rn[better], Sn[better]
        lam = np.where(better, np.maximum(lam / 10.0, 1e-13), lam * 10.0)
        stop = np.where(better, np.abs(delta).max(axis=1) < 1e-15, solved & (lam > 1e12))
    return X, final, SearchStats(len(X), null_exits, iterations, rejected)


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
    for v in x:
        if (rad := reconstruct_scalar(float(v))) is None:
            return None
        entries.append(rad)
    return HomCandidate.from_radicals([entries[i * n : (i + 1) * n] for i in range(n)])


def find_homomorphism(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Multistart damped least-squares search with exact post-verification.

    A restart stops as soon as its point enters the null basin (entry
    max-norm below ``TOL_NULL`` = 1e-3, far below the entries of any
    closed-form isomorphism; see the module docstring), and final points
    inside it are discarded; see ``_lm_minimize`` for the other stop
    rules.  The best surviving point with residual max-norm below
    ``TOL_RESIDUAL`` is reconstructed entrywise and, if that succeeds,
    verified exactly; outcomes rank
    verified-hom > candidate > none-found.  Residuals within
    ``TOL_RESIDUAL`` of the least, on the same side of ``TOL_RESIDUAL``,
    tie, and ties go to the lowest restart index, so float noise in the
    last bits does not pick the point.
    """
    n = g.n
    form = _MatrixForm(g)
    starts = np.random.default_rng(cfg.seed).uniform(
        -INIT_SCALE, INIT_SCALE, size=(cfg.restarts, n * n)
    )
    block = max(1, BLOCK_BYTES // (8 * n**4))
    found: list[tuple[float, int, np.ndarray]] = []  # residual, restart, point
    stats = SearchStats()
    for first in range(0, cfg.restarts, block):
        X, r, counts = _lm_minimize(form, starts[first : first + block], MAX_ITERATIONS)
        stats += counts
        res = np.abs(r).max(axis=1)
        for b, x in enumerate(X):
            if np.max(np.abs(x)) >= TOL_NULL:
                found.append((float(res[b]), first + b, x))
    if not found:
        return SearchOutcome(NONE_FOUND, float("inf"), stats=stats)
    least = min(f[0] for f in found)
    res, idx, x = next(
        f
        for f in found
        if f[0] <= least + TOL_RESIDUAL and (f[0] < TOL_RESIDUAL) == (least < TOL_RESIDUAL)
    )
    T_float = HomCandidate.from_rows(
        [[float(x[i * n + k]) for k in range(n)] for i in range(n)]
    )
    if res < TOL_RESIDUAL and n > 1:  # no random-walk algebra on one vertex
        exact = _reconstruct_matrix(x, n)
        if exact is not None and exact.max_abs() > 0 and is_homomorphism_direct(g, exact):
            iso = is_isomorphism(g, exact)
            return SearchOutcome(VERIFIED_HOM, res, T_float, exact, iso, idx, stats)
        return SearchOutcome(CANDIDATE, res, T_float, None, False, idx, stats)
    return SearchOutcome(NONE_FOUND, res, T_float, None, False, idx, stats)


def closed_form_iso(g: Graph) -> HomCandidate | None:
    """Exact isomorphism for regular or biregular graphs; None otherwise.

    Verifies the defining identities exactly in radical arithmetic and
    double-checks the float residual before returning.
    """
    reg = classify_regularity(g)
    if reg.is_neither or reg.k == 0:  # no random-walk algebra on one vertex
        return None
    if reg.is_regular:
        # defining identity: k * (1/k)^2 == 1/k
        assert Fraction(reg.k) * Fraction(1, reg.k) ** 2 == Fraction(1, reg.k)
        diag = dict.fromkeys(g.vertices(), Radical.from_rational(Fraction(1, reg.k)))
    else:
        k1, k2 = reg.k1, reg.k2
        alpha = Radical.root(Fraction(1, k1 * k1 * k2), 3)
        beta = Radical.root(Fraction(1, k1 * k2 * k2), 3)
        assert alpha * alpha == beta / k1, "alpha^2 == beta/k1 must hold"
        assert beta * beta == alpha / k2, "beta^2 == alpha/k2 must hold"
        diag = {v: alpha for v in reg.part1}
        diag.update({v: beta for v in reg.part2})
    zero = Radical.from_rational(0)
    cand = HomCandidate.from_radicals(
        [[diag[i] if i == k else zero for k in g.vertices()] for i in g.vertices()]
    )
    x = np.array([[float(v) for v in row] for row in cand.entries]).reshape(1, -1)
    backup = np.abs(_MatrixForm(g).residuals(x)).max()
    if backup >= 1e-12:
        raise AssertionError(f"closed form failed the numeric backup check: {backup}")
    return cand
