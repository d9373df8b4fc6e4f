"""The odd-cycle finding of README's "Findings" section, checked through
the pipeline's own reading of a solved doubled relaxation.

On the odd cycle C_n the doubled relaxation's symmetric optimum puts every
origin product at 1/(1 + cos(pi/n)). From n = 57 on that is inside the
paper's band [0.5, 0.5 + 0.0004], so Property 1 holds on both copies while
the band subgraph is the whole odd cycle: the Theorem-6 probe fires. On C55
the products sit just above the band, so Property 1b fails on both copies.
"""

import math

import numpy as np

from helpers import cycle_graph, lift_kg
from vcgap.pipeline import analyze_doubled
from vcgap.rounding_geometry import PAPER_THRESHOLDS
from vcgap.sdp_solve import GramSolution, build_sdp_single, ipm_solve


def solve_doubled_kg(g):
    """The doubled relaxation of g solved at dim n+1 as the Kleinberg-Goemans
    SDP (the single relaxation with every off-diagonal box widened to
    [-1, 1]) and lifted to the 2n+1 doubled Gram."""
    p = build_sdp_single(g)
    p.lo[:] = -1.0
    np.fill_diagonal(p.lo, 1.0)
    y = ipm_solve(p)
    assert y.converged
    return GramSolution(lift_kg(y.matrix), g.n + y.objective_value, 0.0, 0.0, 0.0, y.iterations, True)


def test_c57_breaks_theorem6_at_the_paper_thresholds():
    g = cycle_graph(57)
    a = analyze_doubled(g, solve_doubled_kg(g), PAPER_THRESHOLDS)
    product = 1.0 / (1.0 + math.cos(math.pi / 57))
    assert 0.5 < product < PAPER_THRESHOLDS.band_top
    assert max(abs(p - product) for p in a.emb.origin) <= 1e-6
    assert a.rep_p.holds and a.rep_d.holds
    eps, _, probe = a.band_probe(PAPER_THRESHOLDS)
    assert eps.graph.n == 57 and not probe.bipartite and len(probe.cycle) == 57


def test_c55_stays_above_the_band_at_the_paper_thresholds():
    # the other side of the 55/57 threshold: every product sits just above
    # the band top, so Property 1b fails on both copies and step 6 applies
    g = cycle_graph(55)
    a = analyze_doubled(g, solve_doubled_kg(g), PAPER_THRESHOLDS)
    product = 1.0 / (1.0 + math.cos(math.pi / 55))
    assert product > PAPER_THRESHOLDS.band_top
    assert max(abs(p - product) for p in a.emb.origin) <= 1e-6
    for rep in (a.rep_p, a.rep_d):
        assert rep.holds_1a and not rep.holds_1b
