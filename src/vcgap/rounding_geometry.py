"""Geometry of Gram-vector solutions: product-distribution classification,
threshold rounding, closed-form ratio certificates, the near-half product
band subgraph, and the orthogonality/odd-cycle probes.

All threshold comparisons follow the written inequality directions exactly:
products strictly below one half, strictly above the band top, and band
membership closed on both ends. Probes report raw defect magnitudes rather
than bare verdicts so borderline numerics stay inspectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, check_real
from .graph_core import Bipartition, Graph, OddCycle, find_odd_cycle, induced_subgraph
from .sdp_solve import TAU_NORM, VectorEmbedding


@dataclass(frozen=True)
class Thresholds:
    """Classification constants for the origin-product distribution."""

    below_half_fraction: float = 0.000001
    above_band_fraction: float = 0.01
    epsilon: float = 0.0004

    def __post_init__(self):
        check_real("below_half_fraction", self.below_half_fraction, 0.0, 1.0)
        check_real("above_band_fraction", self.above_band_fraction, 0.0, 1.0)
        check_real("epsilon", self.epsilon)

    @property
    def band_top(self) -> float:
        return 0.5 + self.epsilon


PAPER_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class PropertyReport:
    """Counts of out-of-band origin products and the resulting verdicts.

    holds_1a: fewer than below_half_fraction * n products fall strictly below
    one half. holds_1b: fewer than above_band_fraction * n products rise
    strictly above the band top. Both comparisons are strict against the
    real-valued thresholds, so at desk scale holds_1a means "none at all".
    """

    count_below_half: int
    count_above_band: int
    n: int
    holds_1a: bool
    holds_1b: bool

    @property
    def holds(self) -> bool:
        return self.holds_1a and self.holds_1b

    def to_dict(self) -> dict:
        return {
            "count_below_half": self.count_below_half,
            "count_above_band": self.count_above_band,
            "n": self.n,
            "holds_1a": self.holds_1a,
            "holds_1b": self.holds_1b,
            "holds": self.holds,
        }


def classify_property1(
    emb: VectorEmbedding, vertex_ids: Iterable[int], th: Thresholds = PAPER_THRESHOLDS
) -> PropertyReport:
    """Count origin products strictly below 0.5 and strictly above the band top."""
    products = [emb.origin[v] for v in vertex_ids]
    n = len(products)
    below = sum(1 for p in products if p < 0.5)
    above = sum(1 for p in products if p > th.band_top)
    return PropertyReport(
        count_below_half=below,
        count_above_band=above,
        n=n,
        holds_1a=below < th.below_half_fraction * n,
        holds_1b=above < th.above_band_fraction * n,
    )


def threshold_cut(emb: VectorEmbedding, vertex_ids: Iterable[int], cut: float = 0.5) -> frozenset[int]:
    """The ids whose origin product is not strictly below the cut.

    The result is NOT guaranteed to be a feasible cover; callers must verify
    it against the edge set and repair or fall back when it is not.
    """
    return frozenset(v for v in vertex_ids if not emb.origin[v] < cut)


@dataclass(frozen=True)
class RatioCertificate:
    """Machine-checkable claimed upper bound on cover size over the optimum."""

    claimed_ratio_bound: float
    source: str  # "theorem2" | "theorem3" | "theorem4_lower_bound"
    inputs: dict
    assumptions: tuple[str, ...]

    def __post_init__(self):
        if not self.claimed_ratio_bound < 2.0:
            raise ArgumentError(f"certificate bound {self.claimed_ratio_bound} is not < 2")

    def to_dict(self) -> dict:
        return {
            "claimed_ratio_bound": self.claimed_ratio_bound,
            "source": self.source,
            "inputs": dict(self.inputs),
            "assumptions": list(self.assumptions),
        }


def certify_theorem2(n: int, k: float) -> RatioCertificate:
    """Bound 2k/(k+2), valid whenever the optimum is at least n/2 + n/k."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    return RatioCertificate(
        claimed_ratio_bound=2.0 * k / (k + 2.0),
        source="theorem2",
        inputs={"n": n, "k": k},
        assumptions=(f"optimum >= n/2 + n/k = {n / 2 + n / k}",),
    )


def certify_theorem3(v1_size: int, v0_size: int, n: int) -> RatioCertificate | None:
    """Bound 2k/(k+1) with k = |V1|/|V0|, valid when the optimum is >= n/2.

    Returns None when v0_size is zero: the bound would degenerate to 2 and
    certifies nothing.
    """
    if v0_size < 0 or v1_size < 0:
        raise ArgumentError("set sizes must be nonnegative")
    if v0_size == 0:
        return None
    k = v1_size / v0_size
    return RatioCertificate(
        claimed_ratio_bound=2.0 * k / (k + 1.0),
        source="theorem3",
        inputs={"v1_size": v1_size, "v0_size": v0_size, "n": n, "k": k},
        assumptions=(f"optimum >= n/2 = {n / 2}",),
    )


def theorem4_lower_bound(report: PropertyReport, th: Thresholds = PAPER_THRESHOLDS) -> float:
    """Optimum lower bound when few products sit below half but many exceed
    the band: zero weight on the sub-half fraction, one half on the bulk, the
    band top on the above-band fraction. Paper constants give n/2 + 0.0000035n.
    """
    if not report.holds_1a or report.holds_1b:
        raise ArgumentError(
            "lower bound applies only when the sub-half condition holds and the "
            f"band condition fails (holds_1a={report.holds_1a}, holds_1b={report.holds_1b})"
        )
    n = report.n
    a = th.below_half_fraction
    b = th.above_band_fraction
    return 0.0 * (a * n) + 0.5 * ((1.0 - a - b) * n) + th.band_top * (b * n)


@dataclass(frozen=True)
class EpsilonSubgraph:
    """Vertices whose origin product lies in [0.5, band_top], and their induced graph."""

    v_eps: frozenset[int]
    graph: Graph
    coverage_fraction: float

    def to_dict(self) -> dict:
        return {
            "v_eps": sorted(self.v_eps),
            "n": self.graph.n,
            "m": self.graph.m,
            "coverage_fraction": self.coverage_fraction,
        }


def build_epsilon_subgraph(
    emb: VectorEmbedding, g: Graph, th: Thresholds = PAPER_THRESHOLDS
) -> EpsilonSubgraph:
    """Closed-interval band membership, then the induced subgraph of g."""
    v_eps = frozenset(v for v in g.vertices if 0.5 <= emb.origin[v] <= th.band_top)
    sub = induced_subgraph(g, v_eps)
    fraction = len(v_eps) / g.n if g.n else 1.0
    return EpsilonSubgraph(v_eps, sub, fraction)


@dataclass(frozen=True)
class PerpendicularCompletionReport:
    """Defects of the unique-completion identity for a near-orthonormal quadruple."""

    perpendicularity_defect: float  # max |v_i . v_j| over the quadruple
    product_defect: float  # max |v . v_i - 0.5|
    identity_defect: float  # || v - 0.5 * sum(v_i) ||
    passed: bool

    def to_dict(self) -> dict:
        return {
            "perpendicularity_defect": self.perpendicularity_defect,
            "product_defect": self.product_defect,
            "identity_defect": self.identity_defect,
            "passed": self.passed,
        }


def perpendicular_completion_check(
    quad: Sequence[np.ndarray], v: np.ndarray, tol: float = 1e-4, tau_norm: float = TAU_NORM
) -> PerpendicularCompletionReport:
    """Check that v completes four pairwise-perpendicular unit vectors.

    For exactly orthonormal inputs the unique unit vector with product 0.5
    against all four is half their sum; the report carries how far the given
    configuration is from that identity.
    """
    if len(quad) != 4:
        raise ArgumentError(f"need exactly 4 vectors, got {len(quad)}")
    vecs = [np.asarray(q, dtype=float) for q in quad]
    vv = np.asarray(v, dtype=float)
    dims = {w.shape for w in vecs} | {vv.shape}
    if len(dims) != 1 or len(vv.shape) != 1 or vv.shape[0] < 4:
        raise ArgumentError("vectors must share one dimension >= 4")
    for w in vecs + [vv]:
        if abs(float(w @ w) - 1.0) > max(tau_norm, 2e-6):
            raise ArgumentError(f"non-unit input vector (|v|^2 = {float(w @ w):.8f})")
    perp = max(abs(float(vecs[i] @ vecs[j])) for i in range(4) for j in range(i + 1, 4))
    prod = max(abs(float(vv @ w) - 0.5) for w in vecs)
    ident = float(np.linalg.norm(vv - 0.5 * (vecs[0] + vecs[1] + vecs[2] + vecs[3])))
    return PerpendicularCompletionReport(perp, prod, ident, perp <= tol and prod <= tol and ident <= tol)


@dataclass(frozen=True)
class OddCycleProbe:
    """Numeric trace of the odd-cycle contradiction argument on a band subgraph.

    When the band subgraph is bipartite the probe only records the classes.
    Otherwise it follows the argument along one odd cycle: every cycle edge's
    vector sum should match the completion vector U derived from an anchor
    edge of the other copy, each cycle vector is then forced to half of U,
    and the norm of U should sit at sqrt(2); the contradiction is that the
    collapse makes that norm 2 instead.
    """

    bipartite: bool
    classes: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    cycle: tuple[int, ...] | None = None
    anchor_edge: tuple[int, int] | None = None
    u_norm: float | None = None
    contradiction_magnitude: float | None = None
    per_edge_defects: tuple[float, ...] = ()
    collapse_defects: tuple[float, ...] = ()
    chain_applicable: bool = False
    contradiction_flagged: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "bipartite": self.bipartite,
            "classes": [sorted(c) for c in self.classes] if self.classes else None,
            "cycle": list(self.cycle) if self.cycle else None,
            "anchor_edge": list(self.anchor_edge) if self.anchor_edge else None,
            "u_norm": self.u_norm,
            "contradiction_magnitude": self.contradiction_magnitude,
            "per_edge_defects": list(self.per_edge_defects),
            "collapse_defects": list(self.collapse_defects),
            "chain_applicable": self.chain_applicable,
            "contradiction_flagged": self.contradiction_flagged,
            "note": self.note,
        }


def odd_cycle_probe(
    emb: VectorEmbedding,
    eps_sub: EpsilonSubgraph,
    anchor_edge_other_copy: tuple[int, int] | None,
    tol: float = 0.004,
) -> OddCycleProbe:
    """Evaluate the odd-cycle contradiction chain on a band subgraph.

    The default tolerance is ten times the band width; the argument itself
    fixes no tolerance for its approximations, so raw magnitudes are always
    reported and the headline verdict is taken at 10 * epsilon.
    """
    result = find_odd_cycle(eps_sub.graph)
    if isinstance(result, Bipartition):
        return OddCycleProbe(
            bipartite=True,
            classes=(tuple(sorted(result.left)), tuple(sorted(result.right))),
            note="band subgraph is bipartite; contradiction chain not applicable",
        )
    cycle: OddCycle = result
    if anchor_edge_other_copy is None:
        return OddCycleProbe(
            bipartite=False,
            cycle=cycle.vertices,
            note="odd cycle found but no anchor edge available in the other copy",
        )
    c, d = anchor_edge_other_copy
    vec = emb.vectors  # row v + 1 is vertex v
    u = 2.0 * vec[0] - vec[c + 1] - vec[d + 1]
    u_norm = float(np.linalg.norm(u))
    verts = cycle.vertices
    t = len(verts)
    per_edge = tuple(
        float(np.linalg.norm(vec[verts[i] + 1] + vec[verts[(i + 1) % t] + 1] - u))
        for i in range(t)
    )
    collapse = tuple(float(np.linalg.norm(vec[v + 1] - 0.5 * u)) for v in verts)
    contradiction = abs(u_norm - math.sqrt(2.0))
    applicable = max(per_edge) <= tol
    return OddCycleProbe(
        bipartite=False,
        cycle=verts,
        anchor_edge=(c, d),
        u_norm=u_norm,
        contradiction_magnitude=contradiction,
        per_edge_defects=per_edge,
        collapse_defects=collapse,
        chain_applicable=applicable,
        contradiction_flagged=applicable and contradiction > tol,
        note="",
    )
