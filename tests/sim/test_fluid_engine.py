"""Unit tests for repro.sim.engine.FluidSimulator.

Includes the engine's dedicated regression suite: record parity
through the shared simulation kernel (the fluid driver produces the
same record shape/fields as the task engines) and a convergence-rate
regression pinning the optimal-α diffusion run against the spectral
prediction ``γ = max |1 − α·λ|``.
"""

import numpy as np
import pytest

from repro.analysis.convergence import fit_convergence_rate, spectral_gamma
from repro.baselines import FluidDiffusion
from repro.baselines.diffusion import optimal_alpha
from repro.exceptions import ConfigurationError, SimulationError
from repro.interfaces import FluidBalancer
from repro.network import builders
from repro.runner.registry import FLUID_FACTORIES, make_balancer
from repro.sim import FluidSimulator
from repro.sim.engine import ConvergenceCriteria


class ConstantFlow(FluidBalancer):
    name = "constant-flow"

    def __init__(self, flow):
        self.flow = flow

    def fluid_step(self, h, ctx):
        return self.flow


class TestValidation:
    def test_shape_checked(self, mesh4):
        with pytest.raises(ConfigurationError):
            FluidSimulator(mesh4, np.ones(5), FluidDiffusion())

    def test_negative_initial_rejected(self, mesh4):
        h = np.ones(16)
        h[0] = -1.0
        with pytest.raises(ConfigurationError):
            FluidSimulator(mesh4, h, FluidDiffusion())

    def test_flow_shape_checked(self, mesh4):
        sim = FluidSimulator(mesh4, np.ones(16), ConstantFlow(np.zeros(3)))
        with pytest.raises(SimulationError):
            sim.run(max_rounds=1)

    def test_oversupply_flow_rejected(self, mesh4):
        # Demand 100 units out of node 0 which holds 1.
        flow = np.zeros(mesh4.n_edges)
        flow[mesh4.edge_id(0, 1)] = 100.0
        sim = FluidSimulator(mesh4, np.ones(16), ConstantFlow(flow))
        with pytest.raises(SimulationError):
            sim.run(max_rounds=1)


class TestBehaviour:
    def test_initial_loads_copied(self, mesh4):
        h0 = np.ones(16)
        sim = FluidSimulator(mesh4, h0, FluidDiffusion())
        sim.run(max_rounds=3)
        np.testing.assert_allclose(h0, 1.0)  # caller's array untouched

    def test_traffic_is_flow_times_cost(self, mesh4):
        flow = np.zeros(mesh4.n_edges)
        flow[mesh4.edge_id(0, 1)] = 0.5
        sim = FluidSimulator(mesh4, np.ones(16), ConstantFlow(flow))
        res = sim.run(max_rounds=1)
        assert res.records[0].traffic_work == pytest.approx(0.5)

    def test_convergence_criterion(self, mesh4):
        h0 = np.zeros(16)
        h0[0] = 16.0
        sim = FluidSimulator(
            mesh4, h0, FluidDiffusion("optimal"),
            criteria=ConvergenceCriteria(spread_tol=1e-3),
        )
        res = sim.run(max_rounds=3000)
        assert res.converged
        assert res.final_spread <= 1e-3

    def test_negative_flow_moves_reverse(self, mesh4):
        flow = np.zeros(mesh4.n_edges)
        flow[mesh4.edge_id(0, 1)] = -0.5  # move from node 1 to node 0
        sim = FluidSimulator(mesh4, np.ones(16), ConstantFlow(flow))
        sim.run(max_rounds=1)
        assert sim.h[0] == pytest.approx(1.5)
        assert sim.h[1] == pytest.approx(0.5)


class TestPerRoundConservation:
    """Every fluid balancer only moves load: after every round the total
    is the initial one and no node is negative."""

    @pytest.mark.parametrize("algorithm", sorted(FLUID_FACTORIES))
    @pytest.mark.parametrize(
        "topology", [builders.mesh(6), builders.torus(5), builders.hypercube(4)],
        ids=lambda t: t.name,
    )
    def test_sum_and_sign_after_every_round(self, algorithm, topology):
        h0 = np.random.default_rng(7).exponential(3.0, topology.n_nodes)
        h0[0] += 10.0 * topology.n_nodes
        total = float(h0.sum())
        sim = FluidSimulator(topology, h0, make_balancer(algorithm))
        play_round = sim.play_round
        checked = []

        def checked_play_round(round_index):
            stats = play_round(round_index)
            assert float(sim.h.sum()) == pytest.approx(total, rel=1e-9, abs=0.0)
            assert sim.h.min() >= -1e-9
            checked.append(round_index)
            return stats

        sim.play_round = checked_play_round
        res = sim.run(max_rounds=150)
        assert checked == list(range(res.n_rounds)) and res.n_rounds > 1


class TestKernelRecordParity:
    """The fluid driver speaks the same record dialect as task engines."""

    def test_record_fields_through_the_kernel(self, mesh4):
        h0 = np.zeros(16)
        h0[0] = 16.0
        sim = FluidSimulator(mesh4, h0, FluidDiffusion())
        res = sim.run(max_rounds=5)
        for i, r in enumerate(res.records):
            assert r.round_index == i
            # Fluid mode has no tasks, wire or clocks: those record
            # fields are identically zero, never junk.
            assert r.in_flight == 0 and r.blocked == 0
            assert r.n_tasks == 0 and r.asleep == 0
            assert r.heat == 0.0
            assert r.spread == pytest.approx(r.max_load - r.min_load)
        assert res.balancer_name == "diffusion-uniform"

    def test_series_and_totals_agree_with_records(self, mesh4):
        h0 = np.zeros(16)
        h0[0] = 16.0
        res = FluidSimulator(mesh4, h0, FluidDiffusion()).run(max_rounds=20)
        np.testing.assert_array_equal(
            res.series("traffic_work"),
            np.asarray([r.traffic_work for r in res.records]),
        )
        assert res.total_traffic == pytest.approx(
            sum(r.traffic_work for r in res.records)
        )

    def test_spread_series_is_monotone_under_diffusion(self, mesh8):
        h0 = np.zeros(64)
        h0[0] = 64.0
        res = FluidSimulator(mesh8, h0, FluidDiffusion("optimal")).run(
            max_rounds=200
        )
        spread = res.series("spread")
        assert (np.diff(spread) <= 1e-9).all()


class TestConvergenceRegression:
    """Optimal-α diffusion must contract at the spectral rate.

    A regression anchor for the whole fluid pipeline (engine → kernel →
    recorder → series → rate fit): if any stage corrupts the per-round
    spread series, the fitted γ drifts off the eigenvalue prediction.
    """

    def test_measured_rate_matches_spectral_prediction(self, mesh8):
        alpha = optimal_alpha(mesh8)
        predicted = spectral_gamma(mesh8.laplacian, alpha)
        h0 = np.zeros(64)
        h0[0] = 64.0
        res = FluidSimulator(
            mesh8, h0, FluidDiffusion("optimal"),
            criteria=ConvergenceCriteria(spread_tol=1e-9),
        ).run(max_rounds=3000)
        assert res.converged
        # Fit on the geometric tail (skip the non-asymptotic opening).
        series = res.series("spread")[20:400]
        gamma, _ = fit_convergence_rate(series)
        assert gamma == pytest.approx(predicted, rel=0.05)
        assert gamma < 1.0

    def test_convergence_round_is_stable(self, mesh8):
        # The exact converged_round is deterministic; pin it so silent
        # changes to the kernel's convergence bookkeeping surface here.
        h0 = np.zeros(64)
        h0[0] = 64.0
        runs = [
            FluidSimulator(
                mesh8, h0, FluidDiffusion("optimal"),
                criteria=ConvergenceCriteria(spread_tol=1e-6),
            ).run(max_rounds=5000)
            for _ in range(2)
        ]
        assert runs[0].converged and runs[1].converged
        assert runs[0].converged_round == runs[1].converged_round
        assert runs[0].log == runs[1].log
