"""Semidefinite relaxations of vertex cover and an operator-splitting solver.

The single-graph model has one Gram variable per vertex plus a distinguished
index 0; every edge contributes the equality X[0,i] + X[0,j] - X[i,j] = 1.
The doubled-graph model applies the same equalities to both copies and to
every cross pair, with cross entries boxed to [-1, 1] instead of [0, 1].

The solver splits the feasible set into three blocks (equality subspace, box,
PSD cone) and runs consensus ADMM: each block is an exact projection, the
equality projection reusing a cached Cholesky factor of the constraint normal
matrix, and the PSD projection a full symmetric eigendecomposition with
negative eigenvalues clipped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs

from .errors import ArgumentError, SolverError, VcgapError, check_int, check_keys, check_real, is_real
from .graph_core import DoubledGraph, Graph

TAU_FEAS = 1e-5
TAU_FACTOR = 1e-4
TAU_CMP = 1e-3
TAU_NORM = 1e-6


class ExtractionError(VcgapError):
    """Gram factorization failed to reproduce the matrix within tolerance."""


@dataclass(frozen=True)
class SdpProblem:
    """Edge equalities X[0,i]+X[0,j]-X[i,j]=1 over a boxed PSD matrix.

    con_i/con_j hold the matrix column indices (1-based within the matrix,
    index 0 being the distinguished vertex) of each constraint's pair.
    """

    dim: int
    con_i: np.ndarray
    con_j: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n_constraints(self) -> int:
        return len(self.con_i)


@dataclass(frozen=True)
class SolverConfig:
    tau_feas: float = TAU_FEAS
    tau_obj: float = 1e-6
    max_iter: int = 50000
    step: float | None = None  # initial ADMM penalty; None picks a scale-based default
    over_relax: float = 1.8
    adapt_rho: bool = True
    check_every: int = 25

    def __post_init__(self):
        check_real("tau_feas", self.tau_feas, 0.0)
        check_real("tau_obj", self.tau_obj, 0.0)
        check_int("max_iter", self.max_iter)
        check_int("check_every", self.check_every)
        if self.step is not None:
            check_real("step", self.step, 0.0)
        check_real("over_relax", self.over_relax, 0.0, 2.0)
        if not isinstance(self.adapt_rho, bool):
            raise ArgumentError(f"adapt_rho must be true or false, got {self.adapt_rho!r}")


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
        return json.dumps(
            {
                "dim": self.matrix.shape[0],
                "matrix": [float(x) for x in self.matrix.ravel()],
                "objective_value": self.objective_value,
                "max_equality_violation": self.max_equality_violation,
                "max_box_violation": self.max_box_violation,
                "min_eigenvalue": self.min_eigenvalue,
                "iterations": self.iterations,
                "converged": self.converged,
            }
        )


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
    hi = np.ones((d, d))
    np.fill_diagonal(lo, 1.0)
    return SdpProblem(d, con_i, con_j, lo, hi)


def build_sdp_doubled(dg: DoubledGraph) -> SdpProblem:
    """Relaxation on the doubled graph: the single-graph relaxation of the
    combined graph with the cross block (one index in each copy) widened to
    [-1, 1]. Combined ids are positional, so the first copy is indices 1..n."""
    p = build_sdp_single(dg.combined)
    n = dg.base.n
    p.lo[1 : n + 1, n + 1 :] = -1.0
    p.lo[n + 1 :, 1 : n + 1] = -1.0
    return p


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

    chol: np.ndarray
    potrs: Callable
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
    chol, _ = cho_factor(btb)
    (potrs,) = get_lapack_funcs(("potrs",), (chol,))
    d = p.dim
    return _AffineState(chol, potrs, iv, jv, p.con_i, p.con_j, p.con_i * d + p.con_j, p.con_j * d + p.con_i)


def _project_affine(V: np.ndarray, state: _AffineState | None) -> np.ndarray:
    """Project V onto the equality subspace in place; V must be C-contiguous."""
    if state is None:
        return V
    iv, jv = state.iv, state.jv
    d = V.shape[0]
    nv = d - 1
    flat = V.ravel()
    r = flat[state.row_i] + flat[state.row_j] - flat[state.ij] - 1.0
    t = np.bincount(iv, r, nv) + np.bincount(jv, r, nv)
    # cho_solve minus its per-call finiteness scans of the factor and of t
    y, info = state.potrs(state.chol, t, lower=False, overwrite_b=True)
    if info != 0:
        raise SolverError(f"potrs rejected argument {-info}")
    lam = r - (y[iv] + y[jv])
    c0 = np.bincount(iv, lam, nv) + np.bincount(jv, lam, nv)
    flat[1:d] -= c0
    flat[d::d] -= c0
    # constraint pairs are unique, so fancy assignment has no collisions
    flat[state.ij] += lam
    flat[state.ji] += lam
    return V


def admm_solve(p: SdpProblem, cfg: SolverConfig = SolverConfig()) -> GramSolution:
    """Consensus ADMM over the equality subspace, the box, and the PSD cone.

    The returned matrix is the last PSD-block iterate, so its minimum
    eigenvalue is nonnegative up to roundoff; equality and box violations are
    reported on the same matrix. Hitting max_iter returns the best candidate
    flagged as nonconverged rather than raising.

    The three blocks' iterates and scaled duals are stacked in (3, dim, dim)
    arrays so that each elementwise step is one numpy call; every entry still
    sees the same floating-point operations in the same order as a per-block
    loop would apply.
    """
    d = p.dim
    if d == 1:
        return GramSolution(np.ones((1, 1)), 0.0, 0.0, 0.0, 1.0, 0, True)
    affine = _normal_matrix_factor(p)
    lo, hi = p.lo, p.hi
    C = np.zeros((d, d))
    C[0, 1:] = 0.5
    C[1:, 0] = 0.5
    rho = cfg.step if cfg.step is not None else max(1.0, math.sqrt(d))
    alpha = cfg.over_relax
    one_minus_alpha = 1.0 - alpha
    pull = C / (3.0 * rho)  # objective step; recomputed whenever rho changes
    max_iter, check_every, adapt_rho = cfg.max_iter, cfg.check_every, cfg.adapt_rho

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
        X[1].clip(lo, hi, out=X[1])  # the method skips np.clip's dispatch layers
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
        if adapt_rho and it % 25 == 0:
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
                last_req <= cfg.tau_feas
                and last_rbox <= cfg.tau_feas
                and abs(obj - prev_obj) <= cfg.tau_obj
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
    r_box = float(max(np.max(p.lo - M, initial=0.0), np.max(M - p.hi, initial=0.0)))
    return r_eq, max(r_box, 0.0)


@dataclass(frozen=True)
class VectorEmbedding:
    """Unit vectors whose pairwise products reproduce a Gram matrix.

    Row 0 is the distinguished vector and row v+1 belongs to vertex v;
    origin[v] is the product of the two.
    """

    vectors: np.ndarray  # dim x dim, row per index
    origin: tuple[float, ...]


def extract_vectors(gs: GramSolution, tau_factor: float = TAU_FACTOR) -> VectorEmbedding:
    """Factor a converged Gram solution into unit vectors.

    Eigendecomposes, clips negative eigenvalues, scales the eigenbasis by the
    square roots, and renormalizes each row to unit length. Raises
    ExtractionError when the renormalized products stray from the Gram
    entries by more than tau_factor.
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
    if not err <= tau_factor:
        raise ExtractionError(f"reconstruction error {err:.3g} exceeds {tau_factor:g}")
    # a dot product per row: a matrix-vector product can round differently and flip a 0.5 decision
    return VectorEmbedding(vectors, tuple(float(vectors[0] @ vectors[v + 1]) for v in range(d - 1)))


@dataclass(frozen=True)
class Lemma2Verdict:
    """Margins of the doubled-graph objective against its theoretical bracket."""

    z_single: float
    z_doubled: float
    z_exact: float
    lower_margin: float  # z_doubled - 2*z_single, should be >= -tau
    upper_margin: float  # 2*z_exact - z_doubled, should be >= -tau
    consistent: bool

    def to_dict(self) -> dict:
        return {
            "z_single": self.z_single,
            "z_doubled": self.z_doubled,
            "z_exact": self.z_exact,
            "lower_margin": self.lower_margin,
            "upper_margin": self.upper_margin,
            "consistent": self.consistent,
        }


def check_lemma2_bounds(z4: float, z6: float, z_exact: float, tau_cmp: float = TAU_CMP) -> Lemma2Verdict:
    """Check z6 >= 2*z4 and z6 <= 2*z_exact within tau_cmp; violations are
    reported in the verdict, never raised."""
    lower = z6 - 2.0 * z4
    upper = 2.0 * z_exact - z6
    return Lemma2Verdict(z4, z6, z_exact, lower, upper, lower >= -tau_cmp and upper >= -tau_cmp)
