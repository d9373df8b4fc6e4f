"""Benchmark workloads: fixed instance pools, seeded relabelings and orders.

Every workload is a fixed pool of generator specs. The run seed picks one of
RELABELINGS vertex relabelings of the pool (seed modulo RELABELINGS, 0 being
the generator's own labels) and the order of every pass over it. Pipeline
decisions depend on vertex order (greedy matchings, the sequential LP
refinement, tie-breaks in cut repair), so each relabeling is a different
input with its own stored reference decisions, while the pool's solver cost
stays the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vcgap import Graph, generate_graph
from vcgap.graph_core import write_dimacs

RELABELINGS = 16
SIZES = ("full", "tiny")


def _acceptance7_specs() -> list[tuple]:
    """The acceptance-7 corpus: gnp, bipartite_gnp, odd_cycle_rich and
    star_union at n 4..14."""
    specs = [("gnp", 4 + (i % 11), 0.1 + 0.1 * (i % 9), 40_000 + i) for i in range(150)]
    specs += [("bipartite_gnp", 4 + (i % 11), 0.2 + 0.15 * (i % 5), 41_000 + i) for i in range(50)]
    specs += [("odd_cycle_rich", 4 + (i % 11), 0.05 * (i % 4), 42_000 + i) for i in range(50)]
    specs += [("star_union", 4 + (i % 11), 2 + (i % 3), 43_000 + i) for i in range(50)]
    return specs


def _acceptance8_specs(copies: int) -> list[tuple]:
    """The acceptance-8 batch corpus, `copies` times over with fresh seeds."""
    specs = []
    for c in range(copies):
        specs += [("gnp", 10, 0.3, 7 + 100 * c + k) for k in range(4)]
        specs += [("bipartite_gnp", 10, 0.4, 11 + 100 * c + k) for k in range(2)]
        specs += [("odd_cycle_rich", 9, 0.1, 13 + 100 * c + k) for k in range(2)]
        specs += [("star_union", 8, 4, 17 + 100 * c + k) for k in range(2)]
    return specs


# Why each workload exists is recorded in BENCHMARK.json and README.md.
@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # 0: single-instance closed loop; >= 1: run_batch with this many workers
    pools: dict  # size -> tuple of (model, n, parameter, generator seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk30",
            0,
            {"full": (("gnp", 30, 0.3, 777),), "tiny": (("gnp", 8, 0.3, 777),)},
        ),
        Workload(
            "mixed_small",
            0,
            {
                "full": tuple(_acceptance7_specs()[::6]),
                "tiny": (("gnp", 5, 0.5, 1), ("bipartite_gnp", 6, 0.5, 2), ("star_union", 6, 3, 3)),
            },
        ),
        Workload(
            "sparse_kernel",
            0,
            {
                "full": tuple(("gnp", 48, 0.02, 50_000 + k) for k in range(30))
                + tuple(("star_union", 48 + k % 13, 3 + k % 4, 51_000 + k) for k in range(20)),
                "tiny": (("gnp", 10, 0.1, 50_000), ("star_union", 9, 3, 51_000)),
            },
        ),
        Workload(
            "batch_jobs2",
            2,
            {
                "full": tuple(_acceptance8_specs(2)),
                "tiny": (("gnp", 5, 0.5, 1), ("odd_cycle_rich", 5, 0.1, 2), ("star_union", 6, 3, 3)),
            },
        ),
    )
}


def instance_id(spec: tuple) -> str:
    model, n, parameter, seed = spec
    return f"{model}-n{n}-p{parameter:g}-s{seed}"


def relabel(g: Graph, variant: int, index: int) -> Graph:
    """Graph isomorphic to g with vertices permuted; variant 0 is the identity."""
    if variant == 0:
        return g
    perm = np.random.default_rng((variant, index)).permutation(g.n)
    new = {v: int(perm[i]) for i, v in enumerate(g.vertices)}
    return Graph.build(range(g.n), [(new[u], new[v]) for u, v in g.edges])


def build_instances(w: Workload, size: str, seed: int, generate=generate_graph) -> list[tuple[str, Graph]]:
    """The workload's pool under the seed's relabeling, as (instance id, graph)."""
    variant = seed % RELABELINGS
    return [
        (instance_id(spec), relabel(generate(*spec), variant, k))
        for k, spec in enumerate(w.pools[size])
    ]


def write_corpus(instances: list[tuple[str, Graph]], out_dir: Path) -> list[dict]:
    """DIMACS files for a batch corpus; returns the corpus entries naming them.

    The ids are kept so batch rows sort the same way for every seed; DIMACS
    renumbers vertices 1..n, which preserves the relabeled vertex order.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = []
    for iid, g in instances:
        path = out_dir / f"{iid}.dimacs"
        path.write_text(write_dimacs(g))
        corpus.append({"file": str(path), "id": iid})
    return corpus
