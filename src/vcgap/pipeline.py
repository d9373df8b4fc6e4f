"""End-to-end cover construction: relaxation, kernelization, doubled-graph
solve, product-threshold rounding or bipartite fallback, and recombination,
with every decision, certificate, repair, and fallback recorded in a trace.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .bipartite_vc import konig_cover, max_matching, maximal_matching_cover
from .errors import ArgumentError, ContractViolation, check_int
from .exact_oracle import NODE_BUDGET, STATUS_OPTIMAL, ExactResult
from .graph_core import (
    Bipartition,
    Graph,
    duplicate_join,  # not called here: perfbench's LAYER_OF and STAGE_OF still name it
    to_plain,
    verify_cover,
)
from .lp_relax import (
    HalfIntegralDecomposition,
    cover_relaxation,
    nt_decompose,
    recombine,
    simplex_solve,  # not called here: perfbench's LAYER_OF and STAGE_OF still name it
)
from .rounding_geometry import (
    PAPER_THRESHOLDS,
    EpsilonSubgraph,
    OddCycleProbe,
    PropertyReport,
    Thresholds,
    build_epsilon_subgraph,
    certify_theorem2,
    certify_theorem3,
    classify_property1,
    odd_cycle_probe,
    theorem4_lower_bound,
    threshold_cut,
)
from .sdp_solve import GramSolution, VectorEmbedding, admm_solve, build_sdp_doubled, extract_vectors

log = logging.getLogger(__name__)

SCHEMA_VERSION = "1"
TAU_RATIO = 1e-9

STEP_CUT_PRIME = "step4_cut_prime"
STEP_CUT_DOUBLE_PRIME = "step5_cut_doubleprime"
STEP_ARBITRARY_PRIME = "step6_arbitrary"
STEP_ARBITRARY_DOUBLE_PRIME = "step7_arbitrary"
STEP_BIPARTITE = "step8_bipartite"
STEP_SDP_FALLBACK = "sdp_nonconverged_fallback"
STEP_THEOREM6_FALLBACK = "theorem6_violation_fallback"
STEP_EDGELESS = "edgeless_residual"
STEP_BASELINE = "baseline_matching"


@dataclass(frozen=True)
class PipelineConfig:
    thresholds: Thresholds = PAPER_THRESHOLDS
    oracle_budget: int = NODE_BUDGET

    def __post_init__(self):
        if not isinstance(self.thresholds, Thresholds):
            raise ArgumentError(f"thresholds must be a Thresholds, got {self.thresholds!r}")
        check_int("oracle_budget", self.oracle_budget)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "PipelineConfig":
        return config_from_dict(cls, doc)


def config_from_dict(cls, doc, prefix: str = ""):
    """Build the config dataclass `cls` from a parsed JSON object.

    Absent keys keep the field defaults. A field whose default is itself a
    config dataclass is read recursively. Unknown keys and non-objects raise
    ArgumentError naming the dotted key; value checks are left to the
    dataclasses' own constructors.
    """
    if not isinstance(doc, dict):
        raise ArgumentError(f"{prefix.rstrip('.') or 'config'} must be a JSON object, got {doc!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ArgumentError(f"unknown config key '{prefix}{key}'; expected one of {sorted(defaults)}")
        if is_dataclass(defaults[key]):
            value = config_from_dict(type(defaults[key]), value, f"{prefix}{key}.")
        kwargs[key] = value
    return cls(**kwargs)


DEFAULT_CONFIG = PipelineConfig()


@dataclass
class RunTrace:
    """Complete record of one pipeline run; serializes to a flat JSON document."""

    schema_version: str
    graph: Graph
    n: int
    m: int
    step_taken: str
    z_lp: float | None = None
    nt_used: bool = False
    v_one: tuple[int, ...] = ()
    v_zero: tuple[int, ...] = ()
    residual_n: int = 0
    residual_m: int = 0
    z_sdp_doubled: float | None = None
    sdp_converged: bool | None = None
    sdp_iterations: int | None = None
    property_prime: dict | None = None
    property_double_prime: dict | None = None
    certificates: list[dict] = field(default_factory=list)
    repairs: list[dict] = field(default_factory=list)
    theorem6_probe: dict | None = None
    in_cover: tuple[int, ...] = ()
    cover_size: int = 0
    oracle_status: str | None = None
    oracle_optimum: int | None = None
    empirical_ratio: float | None = None
    certificate_violated: bool = False
    flags: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    # The working graph after kernelization and the doubled Gram solved on it,
    # for callers that read them back; left out of to_dict, == and repr.
    residual: Graph | None = field(default=None, compare=False, repr=False, metadata={"json": False})
    gram: GramSolution | None = field(default=None, compare=False, repr=False, metadata={"json": False})

    def to_dict(self) -> dict:
        """Flat JSON-ready document (`to_plain`): the graph in its canonical
        form, every tuple and list as a fresh list (callers append to the
        copied flags)."""
        return to_plain(self)


def _empty_decomposition(g: Graph) -> HalfIntegralDecomposition:
    return HalfIntegralDecomposition(frozenset(), frozenset(g.vertices), frozenset(), g.n / 2.0)


def _finish(
    trace: RunTrace,
    g: Graph,
    decomp: HalfIntegralDecomposition,
    cover_h: frozenset[int],
    t0: float,
) -> RunTrace:
    final = recombine(decomp, cover_h, g)
    trace.in_cover = tuple(sorted(final))
    trace.cover_size = len(final)
    trace.timings["total"] = time.perf_counter() - t0
    return trace


def mahdis_run(g: Graph, cfg: PipelineConfig = DEFAULT_CONFIG) -> RunTrace:
    """Run the full pipeline on one graph and return its trace.

    The relaxation value gates kernelization; the doubled-graph solve feeds
    the product classification; the first copy is preferred for cuts and the
    band subgraph, the second copy only for its own triggered conditions; all
    fallback paths land on the matching 2-approximation so a feasible cover
    always comes out, and that cover is verified on the original graph.
    """
    t0 = time.perf_counter()
    trace = RunTrace(SCHEMA_VERSION, g, g.n, g.m, step_taken="")

    lp = cover_relaxation(g)
    trace.z_lp = lp.objective_value
    trace.timings["lp"] = time.perf_counter() - t0

    # z_lp is an exact multiple of 1/2, so the gate needs no slack
    if lp.objective_value < g.n / 2.0:
        t = time.perf_counter()
        decomp, h = nt_decompose(g, lp)
        trace.nt_used = True
        trace.v_one = tuple(sorted(decomp.v_one))
        trace.v_zero = tuple(sorted(decomp.v_zero))
        trace.timings["kernelize"] = time.perf_counter() - t
    else:
        decomp, h = _empty_decomposition(g), g
    trace.residual = h
    trace.residual_n = h.n
    trace.residual_m = h.m
    log.debug(
        "kernel gate: z_lp=%s, n/2=%s, %s; residual n=%d m=%d",
        lp.objective_value, g.n / 2.0, "fired" if trace.nt_used else "not fired", h.n, h.m,
    )

    if h.m == 0:
        trace.step_taken = STEP_EDGELESS
        return _finish(trace, g, decomp, frozenset(), t0)

    t = time.perf_counter()
    gram = admm_solve(build_sdp_doubled(h))
    trace.gram = gram
    trace.z_sdp_doubled = gram.objective_value
    trace.sdp_converged = gram.converged
    trace.sdp_iterations = gram.iterations
    trace.timings["sdp"] = time.perf_counter() - t

    if not gram.converged:
        trace.step_taken = STEP_SDP_FALLBACK
        trace.flags.append("sdp_nonconverged")
        log.debug("rounding branch: %s; ADMM not converged after %d iterations", STEP_SDP_FALLBACK, gram.iterations)
        return _finish(trace, g, decomp, maximal_matching_cover(h), t0)

    t = time.perf_counter()
    a = analyze_doubled(h, gram, cfg.thresholds)
    trace.property_prime = a.rep_p.to_dict()
    trace.property_double_prime = a.rep_d.to_dict()

    if not a.rep_p.holds_1a:
        cover_h = _cut_copy(trace, STEP_CUT_PRIME, a, 0)
    elif not a.rep_d.holds_1a:
        cover_h = _cut_copy(trace, STEP_CUT_DOUBLE_PRIME, a, 1)
    elif not a.rep_p.holds_1b:
        cover_h = _arbitrary_with_bound(trace, STEP_ARBITRARY_PRIME, a.rep_p, h, cfg.thresholds)
    elif not a.rep_d.holds_1b:
        cover_h = _arbitrary_with_bound(trace, STEP_ARBITRARY_DOUBLE_PRIME, a.rep_d, h, cfg.thresholds)
    else:
        cover_h = _bipartite_step(trace, a, cfg.thresholds)
    trace.timings["rounding"] = time.perf_counter() - t
    log.debug(
        "rounding branch: %s; copy 1 below_half=%d above_band=%d, copy 2 below_half=%d above_band=%d",
        trace.step_taken, a.rep_p.count_below_half, a.rep_p.count_above_band,
        a.rep_d.count_below_half, a.rep_d.count_above_band,
    )
    return _finish(trace, g, decomp, cover_h, t0)


@dataclass(frozen=True)
class DoubledAnalysis:
    """A solved doubled relaxation of h read back: the unit vectors with their
    origin products and the Property-1 report of each copy.

    The embedding's ids are the doubled graph's positional ids: copy k
    (0 for the first, 1 for the second) holds k*n..(k+1)*n - 1, and id c
    copies h's vertex at position c mod n.
    """

    h: Graph
    emb: VectorEmbedding
    rep_p: PropertyReport
    rep_d: PropertyReport

    def copy_ids(self, copy: int) -> range:
        n = self.h.n
        return range(copy * n, (copy + 1) * n)

    def base_id(self, combined_id: int) -> int:
        return self.h.vertices[combined_id % self.h.n]

    def copy_graph(self, copy: int) -> Graph:
        """Copy `copy` of h on its ids: the doubled graph's induced subgraph
        there, built from h's edges alone."""
        pos = {v: i + copy * self.h.n for i, v in enumerate(self.h.vertices)}
        return Graph.build(self.copy_ids(copy), ((pos[u], pos[v]) for u, v in self.h.edges))

    def band_probe(self, th: Thresholds) -> tuple[EpsilonSubgraph, EpsilonSubgraph, OddCycleProbe]:
        """Both copies' band subgraphs and the odd-cycle probe on the first
        copy's, anchored on the second copy's first band edge in edge order
        (none when that band subgraph has no edge)."""
        eps = build_epsilon_subgraph(self.emb, self.copy_graph(0), th)
        eps_other = build_epsilon_subgraph(self.emb, self.copy_graph(1), th)
        anchor = eps_other.graph.edges[0] if eps_other.graph.edges else None
        return eps, eps_other, odd_cycle_probe(self.emb, eps, anchor)


def analyze_doubled(h: Graph, gram: GramSolution, th: Thresholds) -> DoubledAnalysis:
    """Factor the doubled Gram of h into vectors and classify both copies."""
    a = DoubledAnalysis(h, extract_vectors(gram), None, None)
    rep_p, rep_d = (classify_property1(a.emb, a.copy_ids(copy), th) for copy in (0, 1))
    return replace(a, rep_p=rep_p, rep_d=rep_d)


def _cut_copy(trace: RunTrace, step: str, a: DoubledAnalysis, copy: int) -> frozenset[int]:
    """Threshold cut on one copy, verified on the working graph and repaired
    edge-by-edge when infeasible (possible because cross entries may push an
    edge's two products below one half simultaneously)."""
    h, copy_ids = a.h, a.copy_ids(copy)
    cover = frozenset(map(a.base_id, threshold_cut(a.emb, copy_ids)))
    uncovered = verify_cover(h, cover)
    if uncovered:
        products = {a.base_id(c): a.emb.origin[c] for c in copy_ids}
        # the higher-product endpoint of each uncovered edge; none is in the cut yet
        added = {u if (products[u], -u) >= (products[v], -v) else v for u, v in uncovered}
        cover |= added
        uncovered = verify_cover(h, cover)
        if uncovered:
            raise ContractViolation(f"cut repair left edges uncovered: {uncovered[:5]}")
        trace.repairs.append({"step": step, "added": sorted(added)})
        trace.flags.append("cut_repaired")
    trace.step_taken = step
    _certify_theorem3(trace, cover, h, f"relaxation value {h.n / 2.0} >= n/2 certifies the optimum assumption")
    return cover


def _certify_theorem3(trace: RunTrace, cover: frozenset[int], h: Graph, *assumptions: str) -> None:
    """Record the Theorem-3 certificate of a cover of h, with any further
    assumptions, unless the cover takes every vertex and certifies nothing."""
    cert = certify_theorem3(len(cover), h.n - len(cover), h.n)
    if cert is not None:
        trace.certificates.append(to_plain(replace(cert, assumptions=cert.assumptions + assumptions)))


def _arbitrary_with_bound(trace: RunTrace, step: str, report, h: Graph, th: Thresholds) -> frozenset[int]:
    """Many products above the band: the optimum is pushed strictly above n/2,
    so any feasible cover earns a sub-2 bound; output the matching cover."""
    trace.step_taken = step
    delta = th.above_band_fraction * th.epsilon - th.below_half_fraction / 2.0
    if delta <= 0:  # the thresholds leave no margin above n/2 to certify
        trace.flags.append("theorem2_no_margin")
        return maximal_matching_cover(h)
    bound = theorem4_lower_bound(report, th)
    cert = certify_theorem2(h.n, k=1.0 / delta)
    note = (
        "lower bound assumes the band-excess products of the solved relaxation "
        "transfer to the optimum (recorded, not oracle-checked here)"
    )
    inputs = {**cert.inputs, "theorem4_lower_bound": bound}
    trace.certificates.append(to_plain(replace(cert, inputs=inputs, assumptions=cert.assumptions + (note,))))
    return maximal_matching_cover(h)


def _bipartite_step(trace: RunTrace, a: DoubledAnalysis, th: Thresholds) -> frozenset[int]:
    """Both product conditions hold: solve the band subgraph of the first copy
    exactly when bipartite, else record the odd-cycle probe and fall back."""
    h = a.h
    eps, _, probe = a.band_probe(th)
    trace.theorem6_probe = to_plain(probe)

    if not probe.bipartite:
        trace.step_taken = STEP_THEOREM6_FALLBACK
        trace.flags.append("theorem6_violation")
        return maximal_matching_cover(h)

    # the probe's classes are the verified 2-coloring of the band subgraph
    coloring = Bipartition(*map(frozenset, probe.classes))
    matching = max_matching(eps.graph, coloring)
    eps_cover = konig_cover(eps.graph, coloring, matching)
    in_combined = eps_cover | (set(a.copy_ids(0)) - eps.v_eps)
    cover = frozenset(map(a.base_id, in_combined))
    uncovered = verify_cover(h, cover)
    if uncovered:
        raise ContractViolation(f"band-subgraph completion missed edges {uncovered[:5]}")
    trace.step_taken = STEP_BIPARTITE
    _certify_theorem3(trace, cover, h)
    return cover


def evaluate_ratio(trace: RunTrace, oracle_result: ExactResult | None) -> RunTrace:
    """Fill in the measured ratio and check every emitted certificate against it.

    A certificate whose claimed bound falls below the measured ratio, by more
    than TAU_RATIO, is a headline finding, flagged rather than raised.
    """
    if oracle_result is None or oracle_result.status != STATUS_OPTIMAL:
        trace.oracle_status = oracle_result.status if oracle_result else None
        if "oracle_unknown" not in trace.flags:
            trace.flags.append("oracle_unknown")
        return trace
    trace.oracle_status = oracle_result.status
    trace.oracle_optimum = oracle_result.size
    if oracle_result.size == 0:
        trace.empirical_ratio = 1.0 if trace.cover_size == 0 else float("inf")
    else:
        trace.empirical_ratio = trace.cover_size / oracle_result.size
    for cert in trace.certificates:
        if trace.empirical_ratio > cert["claimed_ratio_bound"] + TAU_RATIO:
            trace.certificate_violated = True
            if "certificate_violated" not in trace.flags:
                trace.flags.append("certificate_violated")
    return trace


def two_approx_baseline(g: Graph) -> RunTrace:
    """Matching 2-approximation wrapped in a trace for side-by-side comparison."""
    t0 = time.perf_counter()
    trace = RunTrace(SCHEMA_VERSION, g, g.n, g.m, step_taken=STEP_BASELINE)
    cover = maximal_matching_cover(g)
    trace.in_cover = tuple(sorted(cover))
    trace.cover_size = len(cover)
    trace.timings["total"] = time.perf_counter() - t0
    return trace
