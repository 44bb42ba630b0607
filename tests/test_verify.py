import numpy as np
import pytest

from dyngame import (feedback_nash, feedback_stackelberg, openloop_nash,
                     openloop_stackelberg, verify)
from dyngame.errors import InvalidGameError
from dyngame.game import AffineLaw, GameSpec, Player, StageData, constant_game
from dyngame.solvers import SOLVERS

from conftest import random_game, random_x0, rng_for, scalar_unit_two_player


def zero_cost_game(T=2):
    stage = StageData(A=np.eye(1), B=(np.eye(1), np.eye(1)), s=np.zeros(1),
                      Q=(np.zeros((1, 1)), np.zeros((1, 1))),
                      R=((np.zeros((1, 1)), np.zeros((1, 1))),
                         (np.zeros((1, 1)), np.zeros((1, 1)))),
                      x_target=(np.zeros(1), np.zeros(1)),
                      u_target=((np.zeros(1), np.zeros(1)),
                                (np.zeros(1), np.zeros(1))))
    players = (Player(1, "a"), Player(1, "b"))
    return GameSpec(horizon=T, state_dim=1, players=players,
                    stages=tuple(stage for _ in range(T)))


class TestStationarity:
    def test_open_loop_equilibrium_residual_small(self):
        spec = scalar_unit_two_player()
        sol = openloop_nash.solve(spec, np.array([1.0]))
        res = verify.stationarity(spec, sol, verify.OPEN_LOOP, h=1e-5)
        assert max(res.values()) <= 1e-6

    def test_shifted_control_shows_linear_gradient(self):
        # the stage Hessian of each player is 2, so a +0.1 shift gives
        # gradient 0.2 in that player's component
        spec = scalar_unit_two_player()
        sol = openloop_nash.solve(spec, np.array([1.0]))
        shifted = [u.copy() for u in sol.trajectory.controls]
        shifted[0] = shifted[0] + 0.1
        shifted_traj = type(sol.trajectory)(
            states=sol.trajectory.states, controls=tuple(shifted),
            stage_costs=sol.trajectory.stage_costs,
            total_costs=sol.trajectory.total_costs)
        bad = type(sol)(spec=spec, x0=sol.x0, trajectory=shifted_traj, laws=sol.laws,
                        M=sol.M, m=sol.m, Phi=sol.Phi, phi=sol.phi)
        res = verify.stationarity(spec, bad, verify.OPEN_LOOP, h=1e-5)
        assert res[0] >= 0.05
        assert res[0] == pytest.approx(0.2, rel=1e-4)

    def test_zero_cost_game_zero_residual(self):
        spec = zero_cost_game()
        x0 = np.array([1.0])
        # hand-built "solution": zero controls, no costs anywhere
        from dyngame.game import rollout
        traj = rollout(spec, [np.zeros((2, 1)), np.zeros((2, 1))], x0)
        sol = openloop_nash.OpenLoopNashSolution(
            spec=spec, x0=x0, trajectory=traj,
            M=np.zeros((2, 3, 1, 1)), m=np.zeros((2, 3, 1)),
            Phi=np.zeros((2, 1, 1)), phi=np.zeros((2, 1)),
            laws=(AffineLaw(np.zeros((2, 1, 1)), np.zeros((2, 1))),) * 2)
        res = verify.stationarity(spec, sol, verify.OPEN_LOOP, h=1e-5)
        assert max(res.values()) == 0.0

    def test_feedback_residual_small(self):
        spec = random_game(601, n_players=2)
        sol = feedback_nash.solve(spec)
        res = verify.stationarity(spec, sol, verify.FEEDBACK, h=1e-5,
                                  x0=random_x0(601, spec))
        assert max(res.values()) <= 1e-6

    def test_feedback_stackelberg_leader_residual_small(self):
        spec = random_game(603, n_players=2)
        sol = feedback_stackelberg.solve(spec)
        res = verify.stationarity(spec, sol, verify.FEEDBACK, h=1e-5,
                                  x0=random_x0(603, spec))
        assert max(res.values()) <= 1e-6

    def test_open_loop_stackelberg_leader_residual_small(self):
        spec = random_game(605, n_players=2)
        sol = openloop_stackelberg.solve(spec, random_x0(605, spec))
        res = verify.stationarity(spec, sol, verify.OPEN_LOOP, h=1e-5)
        assert max(res.values()) <= 1e-6

    def test_pattern_mismatch_rejected(self):
        spec = scalar_unit_two_player()
        fb = feedback_nash.solve(spec)
        with pytest.raises(InvalidGameError):
            verify.stationarity(spec, fb, verify.OPEN_LOOP)
        ol = openloop_nash.solve(spec, np.array([1.0]))
        with pytest.raises(InvalidGameError):
            verify.stationarity(spec, ol, verify.FEEDBACK)


class TestDeviationGap:
    def test_feedback_nash_gap_nonnegative(self):
        spec = scalar_unit_two_player()
        sol = feedback_nash.solve(spec)
        gap = verify.deviation_gap(spec, sol, verify.FEEDBACK, player=0,
                                   samples=100, magnitude=1e-2, seed=61,
                                   x0=np.array([1.0]))
        assert gap >= -1e-8

    def test_corrupted_gain_detected(self):
        spec = scalar_unit_two_player()
        sol = feedback_nash.solve(spec)
        bad_laws = (AffineLaw(sol.laws[0].G + 0.2, sol.laws[0].g), sol.laws[1])
        bad = feedback_nash.FeedbackNashSolution(
            spec=spec, laws=bad_laws, Z=sol.Z, zeta=sol.zeta, n_const=sol.n_const)
        gap = verify.deviation_gap(spec, bad, verify.FEEDBACK, player=0,
                                   samples=100, magnitude=1e-2, seed=61,
                                   x0=np.array([1.0]))
        assert gap < -1e-4

    def test_zero_cost_game_zero_gap(self):
        spec = zero_cost_game()
        from dyngame.game import rollout
        x0 = np.array([1.0])
        traj = rollout(spec, [np.zeros((2, 1)), np.zeros((2, 1))], x0)
        sol = openloop_nash.OpenLoopNashSolution(
            spec=spec, x0=x0, trajectory=traj,
            M=np.zeros((2, 3, 1, 1)), m=np.zeros((2, 3, 1)),
            Phi=np.zeros((2, 1, 1)), phi=np.zeros((2, 1)),
            laws=(AffineLaw(np.zeros((2, 1, 1)), np.zeros((2, 1))),) * 2)
        gap = verify.deviation_gap(spec, sol, verify.OPEN_LOOP, player=0,
                                   samples=25, magnitude=1e-2, seed=0)
        assert gap == 0.0

    def test_open_loop_gap_nonnegative(self):
        spec = random_game(607, n_players=2)
        sol = openloop_nash.solve(spec, random_x0(607, spec))
        for i in range(2):
            gap = verify.deviation_gap(spec, sol, verify.OPEN_LOOP, player=i,
                                       samples=50, magnitude=1e-3, seed=62 + i)
            assert gap >= -1e-8


class TestLeaderGap:
    def test_open_loop_equilibrium(self):
        spec = scalar_unit_two_player()
        sol = openloop_stackelberg.solve(spec, np.array([1.0]))
        gap = verify.leader_gap(spec, sol, verify.OPEN_LOOP, samples=50, seed=71)
        assert gap >= -1e-8

    def test_nash_control_is_worse_for_leader(self):
        # J1(-0.2) = 0.1 vs J1(-1/3) = 1/9 with the follower re-reacting
        spec = scalar_unit_two_player()
        x0 = np.array([1.0])
        cost_st = verify.leader_cost_open_loop(spec, np.array([[-0.2]]), x0)
        cost_na = verify.leader_cost_open_loop(spec, np.array([[-1.0 / 3.0]]), x0)
        assert cost_st == pytest.approx(0.1, abs=1e-12)
        assert cost_na == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert cost_na > cost_st

    def test_feedback_leader_gap(self):
        spec = random_game(609, n_players=2)
        sol = feedback_stackelberg.solve(spec)
        gap = verify.leader_gap(spec, sol, verify.FEEDBACK, samples=40,
                                seed=72, x0=random_x0(609, spec))
        assert gap >= -1e-8

    def test_followers_irrelevant_reduces_to_single_player(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]], [[0.0]]],
                             Q=[[[1.0]], [[1.0]]],
                             R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=2)
        sol = openloop_stackelberg.solve(spec, np.array([1.0]))
        gap = verify.leader_gap(spec, sol, verify.OPEN_LOOP, samples=30, seed=73)
        assert gap >= -1e-8

    def test_requires_stackelberg_solution(self):
        spec = scalar_unit_two_player()
        nash = openloop_nash.solve(spec, np.array([1.0]))
        with pytest.raises(InvalidGameError):
            verify.leader_gap(spec, nash, verify.OPEN_LOOP)


class TestSettingsWithoutEvidence:
    @pytest.mark.parametrize("samples", [0, -5])
    def test_deviation_samples_below_one_rejected(self, samples):
        spec = scalar_unit_two_player()
        sol = openloop_nash.solve(spec, np.array([1.0]))
        with pytest.raises(InvalidGameError, match="samples"):
            verify.deviation_gap(spec, sol, verify.OPEN_LOOP, player=0, samples=samples)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_leader_samples_below_one_rejected(self, samples):
        spec = scalar_unit_two_player()
        x0 = np.array([1.0])
        sol = feedback_stackelberg.solve(spec)
        with pytest.raises(InvalidGameError, match="samples"):
            verify.run_verification(spec, sol, verify.FEEDBACK, "feedback-stackelberg",
                                    x0=x0, samples=5, leader_samples=samples)

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.inf, np.nan])
    def test_fd_step_must_be_finite_and_positive(self, h):
        spec = scalar_unit_two_player()
        sol = feedback_nash.solve(spec)
        with pytest.raises(InvalidGameError, match="finite-difference step"):
            verify.stationarity(spec, sol, verify.FEEDBACK, h=h, x0=np.array([1.0]))

    @pytest.mark.parametrize("magnitude", [0.0, -1e-3])
    def test_magnitude_must_be_positive(self, magnitude):
        spec = scalar_unit_two_player()
        ol = openloop_stackelberg.solve(spec, np.array([1.0]))
        with pytest.raises(InvalidGameError, match="magnitude"):
            verify.deviation_gap(spec, ol, verify.OPEN_LOOP, player=1, magnitude=magnitude)
        with pytest.raises(InvalidGameError, match="magnitude"):
            verify.leader_gap(spec, ol, verify.OPEN_LOOP, magnitude=magnitude)


class TestTimeConsistency:
    def test_feedback_nash_is_stc(self):
        spec = random_game(611, n_players=2, horizon=4)
        sol = feedback_nash.solve(spec)
        tc = verify.time_consistency(spec, sol, verify.FEEDBACK)
        assert tc.verdict == "STC"
        assert tc.tail_deviation <= 1e-10

    def test_open_loop_nash_is_wtc(self):
        spec = random_game(81, n_players=2, horizon=4)
        sol = openloop_nash.solve(spec, random_x0(81, spec))
        tc = verify.time_consistency(spec, sol, verify.OPEN_LOOP)
        assert tc.verdict == "WTC"
        assert tc.tail_deviation <= 1e-9
        assert tc.mu_reset_deviation is None

    def test_open_loop_stackelberg_reports_reset_drift(self):
        spec = random_game(81, n_players=2, horizon=4)
        sol = openloop_stackelberg.solve(spec, random_x0(81, spec))
        tc = verify.time_consistency(spec, sol, verify.OPEN_LOOP)
        assert tc.tail_deviation <= 1e-9
        assert tc.mu_reset_deviation is not None
        assert tc.mu_reset_deviation > 1e-3


class TestDefinitenessMonitor:
    def test_feedback_z_asserted_psd(self):
        spec = random_game(91, n_players=2)
        log = verify.definiteness_monitor(feedback_nash.solve(spec))
        assert log.ok
        assert all(e.asserted for e in log.entries)
        assert min(e.min_eigenvalue for e in log.entries) >= -1e-9

    def test_zero_state_cost_all_zero(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[0.0]]], R=[[[[1.0]]]], T=3)
        sol = feedback_nash.solve(spec)
        log = verify.definiteness_monitor(sol)
        assert all(abs(e.min_eigenvalue) <= 1e-15 for e in log.entries)

    def test_scalar_unit_nash_z0_positive(self):
        sol = feedback_nash.solve(scalar_unit_two_player())
        log = verify.definiteness_monitor(sol)
        z0 = [e for e in log.entries if e.stage == 0]
        assert all(e.min_eigenvalue > 0 for e in z0)

    def test_single_player_open_loop_asserted(self):
        spec = random_game(93, n_players=1)
        sol = openloop_nash.solve(spec, random_x0(93, spec))
        log = verify.definiteness_monitor(sol)
        assert all(e.asserted for e in log.entries)
        assert log.ok

    def test_multiplayer_open_loop_recorded_not_asserted(self):
        spec = random_game(95, n_players=3, state_dim=2)
        sol = openloop_nash.solve(spec, random_x0(95, spec))
        log = verify.definiteness_monitor(sol)
        assert not any(e.asserted for e in log.entries)


class TestStepHalving:
    def test_central_difference_error_contracts_quadratically(self):
        rng = rng_for(99)
        a = rng.standard_normal(6)
        z = rng.standard_normal(6) * 0.3

        def f(v):
            return float(np.exp(a @ v) + np.sin(v).sum())

        exact = np.exp(a @ z) * a + np.cos(z)

        def err(h):
            return np.abs(verify.central_gradient(f, z, h) - exact).max()

        ratio = err(1e-3) / err(5e-4)
        assert 3.5 <= ratio <= 4.5

    def test_exact_on_quadratics(self):
        H = np.diag([1.0, 2.0])

        def f(v):
            return float(0.5 * v @ H @ v)

        z = np.array([0.3, -0.7])
        g = verify.central_gradient(f, z, 1e-5)
        assert np.abs(g - H @ z).max() <= 1e-10


class TestRunVerification:
    def test_full_report_passes_on_equilibrium(self):
        spec = random_game(613, n_players=2, horizon=3)
        x0 = random_x0(613, spec)
        sol = openloop_stackelberg.solve(spec, x0)
        rep = verify.run_verification(spec, sol, verify.OPEN_LOOP,
                                      "openloop-stackelberg", x0=x0,
                                      samples=30, leader_samples=15, seed=1)
        assert rep.passed, rep.failures
        doc = rep.as_dict()
        import json
        json.dumps(doc)
        assert doc["passed"] is True

    @pytest.mark.parametrize("name", ["feedback-nash", "feedback-stackelberg"])
    def test_nan_evidence_fails(self, name):
        # Q = 0 leaves the state x_t = 1e10^t unsteered; it overflows at
        # t = 31, so every residual and gap below is NaN, and a NaN must
        # fail its gate rather than slip past a comparison.
        spec = constant_game(A=[[1e10]], B=[[[1e-8]], [[1e-8]]], Q=[[[0.0]], [[0.0]]],
                             R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=40)
        sol = SOLVERS[name].solve(spec, None)
        with np.errstate(all="ignore"):
            rep = verify.run_verification(spec, sol, verify.FEEDBACK, name, x0=np.ones(1))
        assert np.isnan(list(rep.stationarity.values())).all()
        assert np.isnan(list(rep.deviation_gaps.values())).all()
        assert rep.passed is False
        assert len(rep.failures) >= 4

    def test_report_flags_corrupted_solution(self):
        spec = scalar_unit_two_player()
        sol = feedback_nash.solve(spec)
        bad_laws = (AffineLaw(sol.laws[0].G - 0.2, sol.laws[0].g), sol.laws[1])
        bad = feedback_nash.FeedbackNashSolution(
            spec=spec, laws=bad_laws, Z=sol.Z, zeta=sol.zeta, n_const=sol.n_const)
        rep = verify.run_verification(spec, bad, verify.FEEDBACK,
                                      "feedback-nash", x0=np.array([1.0]),
                                      samples=50, seed=2)
        assert not rep.passed
