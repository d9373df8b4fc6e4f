"""Semidefinite relaxations of vertex cover, an operator-splitting solver
and an interior-point solver.

The single-graph model has one Gram variable per vertex plus a distinguished
index 0; every edge contributes the equality X[0,i] + X[0,j] - X[i,j] = 1.
The doubled-graph model applies the same equalities to both copies and to
every cross pair, with cross entries boxed to [-1, 1] instead of [0, 1].
`build_sdp_doubled(h)` builds it from h's edges, never forming the doubled
graph. Every upper box is 1, so a problem carries its lower boxes only.

The solver splits the feasible set into three blocks (equality subspace, box,
PSD cone) and runs consensus ADMM: each block is an exact projection, the
equality projection reusing a cached Cholesky factor of the constraint normal
matrix, and the PSD projection a full symmetric eigendecomposition with
negative eigenvalues clipped.

The factor comes from numpy; each iteration's solve with it is LAPACK's
`potrs` from numpy's own OpenBLAS, bound through ctypes once at import.
Where no mapped OpenBLAS exports it (another BLAS under numpy, or no
/proc), scipy's `potrs` is loaded instead. Both give the bits that scipy's
`cho_factor`/`cho_solve` give.

The interior-point solver, `ipm_solve`, works in the relaxation's free
variables, with the edge equalities built in, and returns a certified
bracket on the optimum with its Gram. Each pair of the matrix holds one or
two variables, read through index maps, and each variable's constraint
matrix is e_r w^T + w e_r^T, so one rank-2 rule builds the Schur matrix
from products with X and S^-1; its largest arrays are variables x
variables. `run_instance` uses it for the single relaxation; the doubled
relaxation is still solved by ADMM.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .errors import ArgumentError, SolverError, VcgapError, check_int, check_keys, check_real, is_real
from .graph_core import Graph, to_plain

TAU_FEAS = 1e-5  # ADMM's stopping rule: residuals at most TAU_FEAS,
TAU_OBJ = 1e-6  # the objective's move since the last check at most TAU_OBJ,
ADMM_MAX_ITER = 50000  # else nonconverged after ADMM_MAX_ITER iterations
TAU_FACTOR = 1e-4
TAU_NORM = 1e-6
OVER_RELAX = 1.8
CHECK_EVERY = 25  # iterations between penalty rebalancing and stopping-rule checks
TAU_GAP = 1e-6  # certified gap at which ipm_solve stops, converged
IPM_MAX_ITER = 50

log = logging.getLogger(__name__)

# (getter, setter) names of numpy's 64-bit-integer OpenBLAS, scipy's OpenBLAS
# and a system OpenBLAS, with or without 64-bit integers
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _mapped_openblas(maps: str) -> list[tuple[str, ctypes.CDLL]]:
    """(path, handle) of every OpenBLAS mapped into this process, as `maps`
    lists them; none without /proc."""
    try:
        with open(maps) as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f}  # pathname, when the line has one
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            found.append((path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD)))
        except OSError:
            continue
    return found


def set_openblas_threads(threads: int, maps: str = "/proc/self/maps") -> list[tuple[str, int, int]]:
    """Set every OpenBLAS mapped into this process (as `maps` lists them) to
    `threads` threads. Returns (library path, threads before, after) per
    library; none is found without /proc or under another BLAS."""
    found = []
    for path, lib in _mapped_openblas(maps):
        for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                put(threads)
                after = get()
                log.debug("%s: OpenBLAS threads %d -> %d", path, before, after)
                found.append((path, before, after))
                break
    if not found:
        log.debug("no OpenBLAS found in %s; BLAS threads left as they are", maps)
    return found


# LAPACK dpotrs in numpy's 64-bit-integer OpenBLAS build
_POTRS_SYMBOL = "scipy_dpotrs_64_"
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

# Builds, from an upper Cholesky factor in Fortran order, a right-hand side
# buffer and an info cell, the zero-argument call that overwrites the buffer
# with the solution and sets info (nonzero: potrs rejected that argument).
_PotrsCall = Callable[[np.ndarray, np.ndarray, ctypes.c_int64], Callable[[], None]]


def _openblas_potrs(potrs, chol: np.ndarray, rhs: np.ndarray, info: ctypes.c_int64) -> Callable[[], None]:
    # dpotrs(uplo, n, nrhs, a, lda, b, ldb, info, hidden length of uplo), each
    # argument a ctypes object of the C type it takes. potrs declares no
    # argtypes: checking nine of them on every call costs about 2 us, against
    # an iteration of about 90 us at dim 11. data_as pointers hold a
    # reference to their arrays.
    n = ctypes.byref(ctypes.c_int64(len(rhs)))
    return partial(
        potrs,
        ctypes.c_char_p(b"U"),
        n,
        ctypes.byref(ctypes.c_int64(1)),
        chol.ctypes.data_as(_DOUBLE_P),
        n,
        rhs.ctypes.data_as(_DOUBLE_P),
        n,
        ctypes.byref(info),
        ctypes.c_size_t(1),
    )


def _scipy_potrs(potrs, chol: np.ndarray, rhs: np.ndarray, info: ctypes.c_int64) -> Callable[[], None]:
    def solve():
        y, info.value = potrs(chol, rhs, lower=False, overwrite_b=True)
        rhs[:] = y

    return solve


def _bind_potrs(maps: str = "/proc/self/maps") -> _PotrsCall:
    """Resolve `potrs` from the first OpenBLAS mapped into this process that
    exports numpy's 64-bit-integer symbol; else from scipy, which this
    imports, loading scipy's own OpenBLAS."""
    for path, lib in _mapped_openblas(maps):
        if hasattr(lib, _POTRS_SYMBOL):
            potrs = getattr(lib, _POTRS_SYMBOL)
            potrs.restype = None
            log.debug("%s: potrs bound to %s", path, _POTRS_SYMBOL)
            return partial(_openblas_potrs, potrs)
    from scipy.linalg import get_lapack_funcs

    (potrs,) = get_lapack_funcs(("potrs",), dtype=np.float64)
    log.debug("no OpenBLAS in %s exports %s; using scipy's potrs", maps, _POTRS_SYMBOL)
    return partial(_scipy_potrs, potrs)


# Bound before the thread count is set, so that the OpenBLAS a scipy
# fallback loads is set too.
_potrs_call = _bind_potrs()

# One thread for the whole process. The ADMM loop's eigh and products at dims
# 41-121 run no faster on two threads and use twice the CPU. Set once and
# never restored: toggling the count around each solve slowed two-worker
# batches. numpy, and any OpenBLAS the binding above loaded, are mapped by
# now, so OPENBLAS_NUM_THREADS, which OpenBLAS reads only as it loads, can
# no longer do this. An OpenBLAS the caller loads later keeps its own count.
set_openblas_threads(1)


class ExtractionError(VcgapError):
    """Gram factorization failed to reproduce the matrix within tolerance."""


@dataclass(frozen=True)
class SdpProblem:
    """Edge equalities X[0,i]+X[0,j]-X[i,j]=1 over a PSD matrix boxed to
    [lo, 1] entrywise.

    con_i/con_j hold the matrix column indices (1-based within the matrix,
    index 0 being the distinguished vertex) of each constraint's pair.
    """

    dim: int
    con_i: np.ndarray
    con_j: np.ndarray
    lo: np.ndarray

    @property
    def n_constraints(self) -> int:
        return len(self.con_i)


@dataclass
class GramSolution:
    matrix: np.ndarray
    objective_value: float
    max_equality_violation: float
    max_box_violation: float
    min_eigenvalue: float
    iterations: int
    converged: bool

    def to_json(self) -> str:
        """`dim`, then every field in declaration order, the matrix as its
        dim * dim entries in row order."""
        doc = {"dim": self.matrix.shape[0], **to_plain(self)}
        doc["matrix"] = [float(x) for x in self.matrix.ravel()]
        return json.dumps(doc)


@dataclass
class CertifiedGram(GramSolution):
    """A Gram solution with a certified [lower, upper] bracket on the
    relaxation's optimum; its JSON is the GramSolution's."""

    bounds: tuple[float, float] = field(metadata={"json": False})


def gram_from_json(text: str) -> GramSolution:
    """Inverse of GramSolution.to_json. Raises ArgumentError naming the key
    when one is missing or unknown, `matrix` is not dim * dim finite numbers,
    a float field is not a finite number, `iterations` is not an integer
    >= 0 or `converged` is not a bool."""
    doc = json.loads(text)
    check_keys("gram", doc, ["dim"] + [f.name for f in fields(GramSolution)])
    d, matrix = doc["dim"], doc["matrix"]
    check_int("gram.dim", d)
    if not isinstance(matrix, list) or len(matrix) != d * d or not all(map(is_real, matrix)):
        raise ArgumentError(f"gram.matrix must be a list of dim * dim = {d * d} finite numbers")
    for key in ("objective_value", "max_equality_violation", "max_box_violation", "min_eigenvalue"):
        check_real(f"gram.{key}", doc[key])
    check_int("gram.iterations", doc["iterations"], low=0)
    if not isinstance(doc["converged"], bool):
        raise ArgumentError(f"gram.converged must be true or false, got {doc['converged']!r}")
    return GramSolution(
        matrix=np.array(matrix, dtype=float).reshape(d, d),
        objective_value=float(doc["objective_value"]),
        max_equality_violation=float(doc["max_equality_violation"]),
        max_box_violation=float(doc["max_box_violation"]),
        min_eigenvalue=float(doc["min_eigenvalue"]),
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
    )


def build_sdp_single(g: Graph) -> SdpProblem:
    """Relaxation on one graph: dim n+1, every entry boxed to [0,1], unit diagonal."""
    pos = {v: i + 1 for i, v in enumerate(g.vertices)}
    con_i = np.array([pos[u] for u, v in g.edges], dtype=int)
    con_j = np.array([pos[v] for u, v in g.edges], dtype=int)
    d = g.n + 1
    lo = np.zeros((d, d))
    np.fill_diagonal(lo, 1.0)
    return SdpProblem(d, con_i, con_j, lo)


def build_sdp_doubled(h: Graph) -> SdpProblem:
    """Relaxation on the doubled graph of h: the single-graph relaxation of
    `duplicate_join(h)` with the cross block (one index in each copy) widened
    to [-1, 1], built from h's edges without forming that graph. Combined ids
    are positional, so copy one is indices 1..n and copy two n+1..2n; the
    constraints are h's edges, every cross pair (i, n+j) and h's edges shifted
    by n, sorted as the combined graph's edges are."""
    n = h.n
    pos = {v: i for i, v in enumerate(h.vertices)}
    e = np.array([(pos[u], pos[v]) for u, v in h.edges], dtype=int).reshape(-1, 2)
    cross = np.stack([np.repeat(np.arange(n), n), np.tile(np.arange(n, 2 * n), n)], axis=1)
    i, j = np.concatenate([e, cross, e + n]).T
    order = np.lexsort((j, i))
    d = 2 * n + 1
    lo = np.zeros((d, d))
    np.fill_diagonal(lo, 1.0)
    lo[1 : n + 1, n + 1 :] = -1.0
    lo[n + 1 :, 1 : n + 1] = -1.0
    return SdpProblem(d, i[order] + 1, j[order] + 1, lo)


def psd_project(mat: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: clip negative eigenvalues."""
    sym = mat + mat.T
    sym /= 2.0
    w, q = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    np.maximum(w, 0.0, out=w)
    out = (q * w) @ q.T
    np.add(out, out.T, out=sym)
    sym /= 2.0
    return sym


@dataclass(frozen=True)
class _AffineState:
    """Cached pieces of the exact projection onto the equality subspace.

    Constraint entries are addressed through flat indices into the raveled
    matrix: row_i/row_j are (0,i)/(0,j) and ij/ji are (i,j)/(j,i).
    """

    rhs: np.ndarray  # potrs's right-hand side; each solve overwrites it with the solution
    info: ctypes.c_int64
    solve: Callable[[], None]  # potrs on the factor of I + B^T B and rhs, its arguments built once per solve
    iv: np.ndarray
    jv: np.ndarray
    row_i: np.ndarray
    row_j: np.ndarray
    ij: np.ndarray
    ji: np.ndarray


def _normal_matrix_factor(p: SdpProblem) -> _AffineState | None:
    """Solver state for exact projection onto the equality subspace.

    Each constraint row touches the entries (0,i), (0,j), (i,j); two rows
    overlap only through shared (0,.) entries, so the normal matrix is
    I + B B^T with B the constraint/vertex incidence. Woodbury turns the
    m x m solve into a cached Cholesky solve of the (dim-1)-sized
    I + B^T B, leaving O(m + dim^2) work per projection.
    """
    m = p.n_constraints
    if m == 0:
        return None
    nv = p.dim - 1
    btb = np.eye(nv)
    iv = p.con_i - 1
    jv = p.con_j - 1
    np.add.at(btb, (iv, iv), 1.0)
    np.add.at(btb, (jv, jv), 1.0)
    np.add.at(btb, (iv, jv), 1.0)
    np.add.at(btb, (jv, iv), 1.0)
    # upper=True, not cholesky(btb).T: only the former equals scipy's cho_factor bit for bit
    chol = np.asfortranarray(np.linalg.cholesky(btb, upper=True))
    rhs = np.empty(nv)
    info = ctypes.c_int64()
    d = p.dim
    return _AffineState(
        rhs, info, _potrs_call(chol, rhs, info), iv, jv, p.con_i, p.con_j, p.con_i * d + p.con_j, p.con_j * d + p.con_i
    )


def _project_affine(V: np.ndarray, state: _AffineState | None) -> np.ndarray:
    """Project V onto the equality subspace in place; V must be C-contiguous."""
    if state is None:
        return V
    iv, jv = state.iv, state.jv
    d = V.shape[0]
    nv = d - 1
    flat = V.ravel()
    r = flat[state.row_i] + flat[state.row_j] - flat[state.ij] - 1.0
    y = state.rhs
    np.add(np.bincount(iv, r, nv), np.bincount(jv, r, nv), out=y)
    # cho_solve minus its per-call finiteness scans of the factor and of y
    state.solve()
    if state.info.value != 0:
        raise SolverError(f"potrs rejected argument {-state.info.value}")
    lam = r - (y[iv] + y[jv])
    c0 = np.bincount(iv, lam, nv) + np.bincount(jv, lam, nv)
    flat[1:d] -= c0
    flat[d::d] -= c0
    # constraint pairs are unique, so fancy assignment has no collisions
    flat[state.ij] += lam
    flat[state.ji] += lam
    return V


def admm_solve(p: SdpProblem) -> GramSolution:
    """Consensus ADMM over the equality subspace, the box, and the PSD cone.

    The returned matrix is the last PSD-block iterate, so its minimum
    eigenvalue is nonnegative up to roundoff; equality and box violations are
    reported on the same matrix. It stops at the first check where both are
    at most TAU_FEAS and the objective moved at most TAU_OBJ; hitting
    ADMM_MAX_ITER returns the last candidate flagged as nonconverged rather
    than raising.

    The three blocks' iterates and scaled duals are stacked in (3, dim, dim)
    arrays so that each elementwise step is one numpy call; every entry still
    sees the same floating-point operations in the same order as a per-block
    loop would apply.
    """
    d = p.dim
    if d == 1:
        return GramSolution(np.ones((1, 1)), 0.0, 0.0, 0.0, 1.0, 0, True)
    affine = _normal_matrix_factor(p)
    lo = p.lo
    C = np.zeros((d, d))
    C[0, 1:] = 0.5
    C[1:, 0] = 0.5
    rho = max(1.0, math.sqrt(d))
    alpha = OVER_RELAX
    one_minus_alpha = 1.0 - alpha
    pull = C / (3.0 * rho)  # objective step; recomputed whenever rho changes
    max_iter, check_every, tau_feas, tau_obj = ADMM_MAX_ITER, CHECK_EVERY, TAU_FEAS, TAU_OBJ

    Z = np.eye(d)
    U = np.zeros((3, d, d))

    cand = Z
    prev_obj = math.inf
    last_req = last_rbox = math.inf
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        Z_prev = Z
        X = Z - U
        _project_affine(X[0], affine)
        X[1].clip(lo, 1.0, out=X[1])  # the method skips np.clip's dispatch layers
        X2 = psd_project(X[2])
        X[2] = X2
        Xh = alpha * X
        Xh += one_minus_alpha * Z_prev
        Z = Xh[0] + U[0]
        Z += Xh[1]
        Z += U[1]
        Z += Xh[2]
        Z += U[2]
        Z /= 3.0
        Z -= pull
        Xh -= Z
        U += Xh

        # Asymmetric residual balancing: raising the penalty (less objective
        # pull) is cheap, lowering it too eagerly stalls feasibility.
        if it % check_every == 0:
            primal = math.sqrt(sum(float(np.sum((X[i] - Z) ** 2)) for i in range(3)))
            dual = rho * math.sqrt(3.0) * float(np.linalg.norm(Z - Z_prev))
            if primal > 5.0 * dual and rho < 1e5:
                rho *= 2.0
                U /= 2.0
                pull = C / (3.0 * rho)
            elif dual > 50.0 * primal and rho > 1e-3:
                rho /= 2.0
                U *= 2.0
                pull = C / (3.0 * rho)

        if it % check_every == 0 or it == max_iter:
            cand = X2
            last_req, last_rbox = _residuals(cand, p)
            obj = float(cand[0, 1:].sum())
            if (
                last_req <= tau_feas
                and last_rbox <= tau_feas
                and abs(obj - prev_obj) <= tau_obj
            ):
                converged = True
                break
            prev_obj = obj

    w_min = float(np.linalg.eigvalsh((cand + cand.T) / 2.0)[0])
    return GramSolution(
        matrix=cand,
        objective_value=float(cand[0, 1:].sum()),
        max_equality_violation=last_req,
        max_box_violation=last_rbox,
        min_eigenvalue=w_min,
        iterations=it,
        converged=converged,
    )


def _residuals(M: np.ndarray, p: SdpProblem) -> tuple[float, float]:
    if p.n_constraints:
        r_eq = float(np.max(np.abs(M[0, p.con_i] + M[0, p.con_j] - M[p.con_i, p.con_j] - 1.0)))
    else:
        r_eq = 0.0
    r_box = float(max(np.max(p.lo - M, initial=0.0), np.max(M - 1.0, initial=0.0)))
    return r_eq, max(r_box, 0.0)


def _reduce(p: SdpProblem) -> tuple[np.ndarray, ...]:
    """The relaxation in its free variables y: a = X[0, 1:], then X[i, j] on
    every pair (0 < i < j) that no equality pins.

    Returns (P, Q, t, r, w, f0, lo). Pair k is (P[k], Q[k]), in
    np.triu_indices order; F(y) holds y[t[0, k]] + y[t[1, k]] + f0[k] there,
    index nvar = len(r) reading as 0, so a pinned pair holds a_i + a_j - 1,
    and lo[k] is its lower box. Variable u's constraint matrix is
    e_r w^T + w e_r^T for r = r[u] and w = w[:, u]: for a_i, r = i and w is
    e_0 plus the pinned neighbours of i; for a free pair (p, q), r = p and
    w = e_q. Raises ArgumentError unless the diagonal is fixed at 1 and every
    lower box off it is <= 0, which with the upper box 1 makes
    y = (1 - 1/dim, then 1 - 2/dim) strictly feasible.
    """
    d = p.dim
    P, Q = np.nonzero(np.arange(d)[:, None] < np.arange(d))
    lo = p.lo[P, Q]
    if not ((p.lo.diagonal() == 1.0).all() and lo.max() <= 0.0):
        raise ArgumentError("ipm_solve needs a unit diagonal and lower boxes <= 0 off it")
    i, j = np.minimum(p.con_i, p.con_j), np.maximum(p.con_i, p.con_j)
    pin = i * (2 * d - i - 1) // 2 + j - i - 1  # the index of pair (i, j)
    nv = d - 1
    free = np.ones(len(P), dtype=bool)
    free[:nv] = free[pin] = False  # pair (0, i) is a_i
    free = np.flatnonzero(free)
    nvar = nv + len(free)
    t = np.full((2, len(P)), nvar)
    t[0, :nv] = np.arange(nv)
    t[:, pin] = i - 1, j - 1
    t[0, free] = np.arange(nv, nvar)
    r = np.concatenate([np.arange(1, d), P[free]])
    w = np.zeros((d, nvar))
    w[0, :nv] = w[j, i - 1] = w[i, j - 1] = 1.0
    w[Q[free], np.arange(nv, nvar)] = 1.0
    f0 = np.zeros(len(P))
    f0[pin] = -1.0
    return P, Q, t, r, w, f0, lo


def _schur(r: np.ndarray, w: np.ndarray, t: np.ndarray) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The HKM Schur matrix of `_reduce`'s variables as a function of
    (X, W, xs): M[u, v] = <A_u X A_v, W> for A_u = e_r w^T + w e_r^T with
    r = r[u] and w = w[:, u], plus xs[k] at every (u, v) of LP row k's
    variables t[:, k] (len(r) reading as none). Expanding the trace gives
    A + A^T for A[u, v] = (X w_v)[r_u] (W w_u)[r_v], plus
    (w_u^T X w_v) W[r_u, r_v] and X[r_u, r_v] (w_u^T W w_v)."""
    u, v = t[[0, 0, 1, 1]], t[[0, 1, 0, 1]]
    real = np.maximum(u, v) < len(r)
    u, v, k = u[real], v[real], np.nonzero(real)[1]

    def schur(X, W, xs):
        Xw, Ww = X @ w, W @ w
        M = Xw.take(r, 0).T * Ww.take(r, 0)
        M += M.T
        M += (w.T @ Xw) * W.take(r, 0).take(r, 1)
        M += X.take(r, 0).take(r, 1) * (w.T @ Ww)
        np.add.at(M, (u, v), xs[k])
        return M

    return schur


def ipm_solve(p: SdpProblem) -> CertifiedGram:
    """Primal-dual path-following solve of the relaxation in its free
    variables (`_reduce`): minimize sum(a) subject to F(y) PSD and the LP
    block, with the HKM direction and Mehrotra's predictor-corrector.

    The dual iterate y starts strictly feasible (every a = 1 - 1/dim, every
    other pair 2a - 1) and stays so; the primal (X, x) starts at (I, 1) and
    reaches feasibility along the way. Each step goes gamma of the way to
    the boundary, gamma = 0.9 + 0.09 * the last step (SDPT3's rule).

    Each iterate certifies a bracket on the optimum: the upper end is sum(a)
    at y, whose F(y) passed a Cholesky factorization and whose LP slacks are
    positive; the lower end is the primal objective at (X, x), X having
    passed its own Cholesky, less |r|_1 for the primal residual r, since
    every variable of a PSD matrix with unit diagonal lies in [-1, 1]
    (Jansson, Chaykin & Keil 2007). The solve stops when the bracket is at
    most TAU_GAP wide (converged), after IPM_MAX_ITER steps, or when a
    factorization fails; it returns F(y) of the last certified iterate,
    with the bracket as `bounds`.
    """
    d = p.dim
    if d == 1:
        return CertifiedGram(np.ones((1, 1)), 0.0, 0.0, 0.0, 1.0, 0, True, (0.0, 0.0))
    P, Q, t, r, w, f0, lo = _reduce(p)
    nvar = len(r)
    nv = d - 1
    up, dn = P * d + Q, Q * d + P  # flat indices of each pair in a d x d matrix
    # the LP block: the pairs whose lower box is above -1, which PSD with a
    # unit diagonal does not imply
    lp = np.flatnonzero(lo > -1.0)
    schur = _schur(r, w, t[:, lp])
    lo = lo[lp]
    nu = d + len(lo)
    c = np.zeros(nvar)
    c[:nv] = 1.0
    yz = np.zeros(nvar + 1)  # y, then the 0 that index nvar reads

    def pairs(y):
        """F(y) - F0 on the pairs."""
        yz[:nvar] = y
        return yz.take(t[0]) + yz.take(t[1])

    def adjoint(z):
        """The adjoint of pairs: each variable's sum of z over its pairs."""
        return np.bincount(t[0], z, nvar) + np.bincount(t[1], z, nvar + 1)[:nvar]

    # V = (X, S), v = (x, s) and the direction D = (dX, dS), dv = (dx, ds)
    # are stacked, so that one call factors or step-tests both sides; the
    # diagonals of S and dS stay 1 and 0
    V = np.array([np.eye(d)] * 2)
    D = np.zeros((2, d, d))
    v = np.ones((2, len(lo)))
    dv = np.empty_like(v)
    X, S = V
    x, s = v
    Sf, dSf = S.reshape(-1), D[1].reshape(-1)

    def gram(y):
        """S = F(y) and s = the LP slacks at y."""
        f = pairs(y) + f0
        Sf[up] = Sf[dn] = f
        np.subtract(f.take(lp), lo, out=s)

    def direction(dy, sm, C, cx):
        """HKM direction for the dual step dy: dS = F(dy) - F0, then
        dX = sym(sm S^-1 - X - (X dS + C) S^-1) and dx = (sm - x ds - cx)/s - x."""
        dSf[up] = dSf[dn] = df = pairs(dy)
        df.take(lp, out=dv[1])
        Y = X @ D[1] @ W + C
        D[0] = sm * W - X - (Y + Y.T) / 2.0
        dv[0] = (sm - x * dv[1] - cx) / s - x

    def steps():
        """(primal, dual) steps: gamma times the largest t that keeps
        I + t R D R^T (as R V R^T = I) PSD and v + t dv >= 0, at most 1."""
        rate = np.minimum(np.linalg.eigvalsh(R @ D @ R.transpose(0, 2, 1))[:, 0], (dv / v).min(axis=1, initial=0.0))
        return [1.0 if q >= -gamma else -gamma / q for q in rate.tolist()]

    def bracket(X, x, y):
        # for z = 2 X on the pairs plus x on the LP pairs, A(X) + G^T x is
        # adjoint(z) and the primal objective -(trace(X) + f0 @ z - lo @ x)
        z = 2.0 * X.take(up)
        z[lp] += x
        lower = -float(X.trace() + f0 @ z - lo @ x) - float(np.abs(c - adjoint(z)).sum())
        return lower, float(y[:nv].sum())

    a0 = 1.0 - 1.0 / d
    y = np.full(nvar, 2.0 * a0 - 1.0)
    y[:nv] = a0
    gram(y)
    gamma = 0.9
    it = 0
    while True:
        try:
            R = np.linalg.inv(np.linalg.cholesky(V))  # R X R^T = I and R S R^T = I, side by side
        except np.linalg.LinAlgError:
            break
        if not (v > 0.0).all():
            break
        last = (X.copy(), x.copy(), y, it)
        mu = (float(np.vdot(X, S)) + float(x @ s)) / nu
        if it == IPM_MAX_ITER:
            break
        if nu * mu <= TAU_GAP:  # <X, S> + x @ s is at most the certified gap
            lower, upper = bracket(X, x, y)
            if upper - lower <= TAU_GAP:
                break
        W = R[1].T @ R[1]
        M = schur(X, W, x / s)
        try:
            # predictor: no centring
            dy = np.linalg.solve(M, -c)
            direction(dy, 0.0, 0.0, 0.0)
            tp, td = steps()
            mu_aff = (float(np.vdot(X + tp * D[0], S + td * D[1])) + float((x + tp * dv[0]) @ (s + td * dv[1]))) / nu
            sm = (mu_aff / mu) ** 3 * mu
            # corrector: centring to sm and the second-order terms dX dS, dx ds
            C = D[0] @ D[1] @ W
            cx = dv[0] * dv[1]
            z = 2.0 * sm * W.take(up) - C.take(up) - C.take(dn)
            z[lp] += (sm - cx) / s
            dy = np.linalg.solve(M, adjoint(z) - c)
            direction(dy, sm, C, cx)
            tp, td = steps()
        except np.linalg.LinAlgError:  # a Schur matrix singular to working precision
            break
        if not (tp > 0.0 and td > 0.0):  # NaN from a near-singular one, or a stalled step
            break
        gamma = 0.9 + 0.09 * min(tp, td)
        X += tp * D[0]
        x += tp * dv[0]
        y = y + td * dy
        gram(y)
        it += 1
    X, x, y, it = last
    lower, upper = bracket(X, x, y)
    gram(y)
    F = S.copy()
    converged = upper - lower <= TAU_GAP
    log.debug("ipm_solve dim %d: %d iterations, gap %.3g, bracket [%.12g, %.12g]", d, it, upper - lower, lower, upper)
    r_eq, r_box = _residuals(F, p)
    return CertifiedGram(F, upper, r_eq, r_box, float(np.linalg.eigvalsh(F)[0]), it, converged, (lower, upper))


@dataclass(frozen=True)
class VectorEmbedding:
    """Unit vectors whose pairwise products reproduce a Gram matrix.

    Row 0 is the distinguished vector and row v+1 belongs to vertex v;
    origin[v] is the product of the two.
    """

    vectors: np.ndarray  # dim x dim, row per index
    origin: tuple[float, ...]


def extract_vectors(gs: GramSolution) -> VectorEmbedding:
    """Factor a converged Gram solution into unit vectors.

    Eigendecomposes, clips negative eigenvalues, scales the eigenbasis by the
    square roots, and renormalizes each row to unit length. Raises
    ExtractionError when the renormalized products stray from the Gram
    entries by more than TAU_FACTOR.
    """
    if not gs.converged:
        raise ArgumentError("refusing to factor a nonconverged Gram solution")
    M = (gs.matrix + gs.matrix.T) / 2.0
    d = M.shape[0]
    w, q = np.linalg.eigh(M)
    vectors = q * np.sqrt(np.maximum(w, 0.0))
    norms = np.linalg.norm(vectors, axis=1)
    if not np.all(norms >= 0.5):  # written so that a NaN norm fails too
        raise ExtractionError(f"degenerate row norm {norms.min():.3g}; diagonal should be 1")
    vectors = vectors / norms[:, None]
    err = float(np.max(np.abs(vectors @ vectors.T - M)))
    if not err <= TAU_FACTOR:
        raise ExtractionError(f"reconstruction error {err:.3g} exceeds {TAU_FACTOR:g}")
    # a dot product per row: a matrix-vector product can round differently and flip a 0.5 decision
    return VectorEmbedding(vectors, tuple(float(vectors[0] @ vectors[v + 1]) for v in range(d - 1)))

