"""E2 — Theorem 2 across topologies: the cross-topology comparison table.

Paper context: the related work derives optimal diffusion parameters on
mesh, torus and hypercube [19] and proves dimension-exchange results on
the hypercube [6]; PPLB claims topology-independent convergence
(Theorem 2 never references a topology).

Reproduced artifact: a table of (final CoV, rounds to quiesce, total
traffic) per algorithm × topology. The 12-run grid goes through the
parallel runner (see ``_harness.run_grid_specs``): serial by default,
``PPLB_WORKERS=4`` fans it across 4 processes with identical
results.

Expected shape: PPLB converges on every topology; richer topologies
(torus > mesh; hypercube > torus) converge faster for every gradient-
driven algorithm because hotspot outflow capacity grows with degree and
diameter shrinks.
"""

from repro.analysis import format_table
from repro.network import hypercube, mesh, random_connected, torus
from repro.runner import RunSpec

from _harness import emit, once, run_grid_specs

#: scenario name -> (scenario size kwargs, topology for the diam column)
SETTINGS = {
    "mesh-hotspot": ({"side": 8}, lambda: mesh(8, 8)),
    "torus-hotspot": ({"side": 8}, lambda: torus(8, 8)),
    "hypercube-hotspot": ({"dim": 6}, lambda: hypercube(6)),
    "random-hotspot": (
        {"n_nodes": 64, "avg_degree": 4.0, "graph_seed": 1},
        lambda: random_connected(64, 4.0, seed=1),
    ),
}
ALGORITHMS = ["pplb", "diffusion", "gradient-model"]


def _grid():
    return [
        RunSpec(
            scenario=scenario,
            algorithm=algorithm,
            seed=0,
            max_rounds=600,
            scenario_kwargs={**kwargs, "n_tasks": 512},
        )
        for scenario, (kwargs, _topo) in SETTINGS.items()
        for algorithm in ALGORITHMS
    ]


def test_e2_cross_topology_table(benchmark):
    outcomes = once(benchmark, lambda: run_grid_specs(_grid()))
    diameters = {name: make() for name, (_kw, make) in SETTINGS.items()}

    rows = [
        {
            "topology": diameters[o.spec.scenario].name,
            "diam": diameters[o.spec.scenario].diameter,
            "algorithm": o.result.balancer_name,
            "converged_round": o.result.converged_round,
            "final_cov": round(o.result.final_cov, 3),
            "migrations": o.result.total_migrations,
            "traffic": round(o.result.total_traffic, 1),
        }
        for o in outcomes
    ]
    emit(
        "E2_topologies",
        format_table(rows, title="E2 — 512-task hotspot across topologies"),
    )

    by = {(o.spec.scenario, o.spec.algorithm): o.result for o in outcomes}
    # Theorem 2: PPLB converges to near balance on every topology.
    for scenario in SETTINGS:
        res = by[(scenario, "pplb")]
        assert res.converged, f"PPLB failed to quiesce on {scenario}"
        assert res.final_cov < 0.35, f"PPLB poor balance on {scenario}"
    # Degree/diameter effect: hypercube quiesces no later than mesh.
    assert (
        by[("hypercube-hotspot", "pplb")].converged_round
        <= by[("mesh-hotspot", "pplb")].converged_round
    )
