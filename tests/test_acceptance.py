"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py`` (the criterion lines bypass
output capture).  Tolerances are pinned here, not configurable: scalar
closed forms at 1e-10, cross-notation equivalences at 1e-10, KKT residual
families at 1e-9 (Nash) / 1e-8 (Stackelberg), sampled deviation gaps at
-1e-8, strong/weak time consistency at 1e-10/1e-9, monitored spectra at
-1e-9.

Random families: 50 seeded instances each with p <= 3, m_i <= 2, n <= 3,
T <= 5.  Expensive artifacts (solutions per solver) are cached per module.
"""

import numpy as np
import pytest

from dyngame import (feedback_nash, feedback_stackelberg, lqr, openloop_nash,
                     openloop_stackelberg, verify)
from dyngame.game import rollout, single_player_view

import reference_formulations as ref
from conftest import psd_matrix, random_game, random_x0, rng_for, \
    scalar_unit_lqr, scalar_unit_two_player

N_INSTANCES = 50
FD_STEP = 1e-5
STATIONARITY_TOL = 1e-6
GAP_TOL = -1e-8
DEVIATION_SAMPLES = 100
LEADER_SAMPLES = 50


# ---------------------------------------------------------------------------
# Cached instance families and solutions


@pytest.fixture(scope="module")
def general_family():
    """Mixed games (n = 1..3) for the Nash-pattern solvers."""
    out = []
    for k in range(N_INSTANCES):
        spec = random_game(1000 + k)
        out.append((spec, random_x0(1000 + k, spec)))
    return out


@pytest.fixture(scope="module")
def hierarchical_family():
    """Games with n >= 2 for the Stackelberg solvers."""
    out = []
    for k in range(N_INSTANCES):
        n = 2 + (k % 2)
        spec = random_game(2000 + k, n_players=n)
        out.append((spec, random_x0(2000 + k, spec)))
    return out


@pytest.fixture(scope="module")
def single_player_family():
    out = []
    for k in range(N_INSTANCES):
        spec = random_game(3000 + k, n_players=1, targets=False)
        out.append((spec, random_x0(3000 + k, spec)))
    return out


@pytest.fixture(scope="module")
def two_player_lq_family():
    out = []
    for k in range(N_INSTANCES):
        spec = random_game(4000 + k, n_players=2, affine=False, targets=False,
                           identity_own_weights=True)
        out.append((spec, random_x0(4000 + k, spec)))
    return out


@pytest.fixture(scope="module")
def frozen_follower_family():
    """n >= 2 games whose followers cannot influence the state."""
    out = []
    for k in range(N_INSTANCES):
        n = 2 + (k % 2)
        spec = random_game(5000 + k, n_players=n, zero_follower_inputs=True)
        out.append((spec, random_x0(5000 + k, spec)))
    return out


@pytest.fixture(scope="module")
def lq_family():
    """Linear-quadratic games (zero drift and targets), mixed n."""
    out = []
    for k in range(N_INSTANCES):
        spec = random_game(6000 + k, affine=False, targets=False)
        out.append((spec, random_x0(6000 + k, spec)))
    return out


@pytest.fixture(scope="module")
def nash_solutions(general_family):
    out = []
    for spec, x0 in general_family:
        out.append((spec, x0, feedback_nash.solve(spec),
                    openloop_nash.solve(spec, x0)))
    return out


@pytest.fixture(scope="module")
def stackelberg_solutions(hierarchical_family):
    out = []
    for spec, x0 in hierarchical_family:
        out.append((spec, x0, feedback_stackelberg.solve(spec),
                    openloop_stackelberg.solve(spec, x0)))
    return out


# ---------------------------------------------------------------------------
# Criterion 1: scalar closed-form games


def test_criterion_1_scalar_closed_forms(announce):
    with announce(1, "scalar closed-form games match hand-derived equilibria"):
        tol = 1e-10
        x0 = np.array([1.0])

        spec2 = scalar_unit_two_player()
        nash = feedback_nash.solve(spec2)
        assert abs(nash.laws[0].G[0][0, 0] + 1.0 / 3.0) <= tol
        assert abs(nash.laws[1].G[0][0, 0] + 1.0 / 3.0) <= tol
        assert abs(nash.value(x0, 0) - 1.0 / 9.0) <= tol
        assert abs(nash.value(x0, 1) - 1.0 / 9.0) <= tol

        stack = feedback_stackelberg.solve(spec2)
        assert abs(stack.laws[0].G[0][0, 0] + 0.2) <= tol
        assert abs(stack.laws[1].G[0][0, 0] + 0.4) <= tol

        ol_nash = openloop_nash.solve(spec2, x0)
        for i in range(2):
            assert abs(ol_nash.trajectory.controls[i][0, 0] + 1.0 / 3.0) <= tol
        ol_stack = openloop_stackelberg.solve(spec2, x0)
        assert abs(ol_stack.trajectory.controls[0][0, 0] + 0.2) <= tol
        assert abs(ol_stack.trajectory.controls[1][0, 0] + 0.4) <= tol

        # single-stage collapse onto the feedback counterparts
        fb_nash_traj = rollout(spec2, nash.laws, x0)
        fb_stack_traj = rollout(spec2, stack.laws, x0)
        for i in range(2):
            assert np.abs(ol_nash.trajectory.controls[i]
                          - fb_nash_traj.controls[i]).max() <= tol
            assert np.abs(ol_stack.trajectory.controls[i]
                          - fb_stack_traj.controls[i]).max() <= tol

        ctrl = lqr.solve_control(scalar_unit_lqr())
        assert abs(ctrl.laws[0].G[0][0, 0] + 0.5) <= tol
        assert abs(ctrl.value(x0) - 0.25) <= tol


# ---------------------------------------------------------------------------
# Criterion 2: reduction identities


def test_criterion_2_reduction_identities(announce, single_player_family,
                                          frozen_follower_family, lq_family):
    with announce(2, "reduction identities (n=1 -> control; frozen followers; "
                     "LQ zero offsets)"):
        # n = 1 feedback Nash coincides with the control recursion
        for spec, x0 in single_player_family:
            nash = feedback_nash.solve(spec)
            ctrl = lqr.solve_control(spec)
            for t in range(spec.horizon):
                assert np.abs(nash.laws[0].G[t] - ctrl.laws[0].G[t]).max() <= 1e-10
                assert np.abs(nash.laws[0].g[t] - ctrl.laws[0].g[t]).max() <= 1e-10

        # followers without input channels leave the leader with its own
        # single-player problem, in both information patterns
        for spec, x0 in frozen_follower_family:
            solo = single_player_view(spec, 0)
            solo_fb = feedback_nash.solve(solo)
            fb = feedback_stackelberg.solve(spec)
            for t in range(spec.horizon):
                assert np.abs(fb.laws[0].G[t] - solo_fb.laws[0].G[t]).max() <= 1e-9
                assert np.abs(fb.laws[0].g[t] - solo_fb.laws[0].g[t]).max() <= 1e-9
            ol = openloop_stackelberg.solve(spec, x0)
            solo_ol = openloop_nash.solve(solo, x0)
            assert np.abs(ol.trajectory.controls[0]
                          - solo_ol.trajectory.controls[0]).max() <= 1e-9

        # linear-quadratic games have exactly-linear equilibria
        for spec, x0 in lq_family:
            fb = feedback_nash.solve(spec)
            for t in range(spec.horizon):
                for i in range(spec.n_players):
                    assert np.abs(fb.laws[i].g[t]).max(initial=0.0) <= 1e-12
            ol = openloop_nash.solve(spec, x0)
            for t in range(spec.horizon):
                for i in range(spec.n_players):
                    assert np.abs(ol.laws[i].g[t]).max(initial=0.0) <= 1e-12
            if spec.n_players >= 2:
                fs = feedback_stackelberg.solve(spec)
                os_ = openloop_stackelberg.solve(spec, x0)
                for t in range(spec.horizon):
                    for i in range(spec.n_players):
                        assert np.abs(fs.laws[i].g[t]).max(initial=0.0) <= 1e-12
                    assert np.abs(os_.alpha[t]).max(initial=0.0) <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 3: cross-notation equivalences


def test_criterion_3_cross_notation_equivalences(announce, general_family,
                                                 single_player_family,
                                                 two_player_lq_family):
    with announce(3, "independent formulations agree to 1e-10 "
                     "(regression for the corrected closed forms)"):
        for spec, x0 in general_family:
            a = feedback_nash.solve(spec)
            b = ref.feedback_nash_solve_alt(spec)
            assert ref.law_deviation(a, b) <= 1e-10
            c = openloop_nash.solve(spec, x0)
            d = ref.openloop_nash_solve_alt(spec, x0)
            assert ref.control_deviation(c, d) <= 1e-10

        for spec, _ in single_player_family:
            assert ref.lqr_crosscheck_premultiplied(spec) <= 1e-10

        for spec, x0 in two_player_lq_family:
            assert ref.feedback_stackelberg_crosscheck_two_player_lq(spec) <= 1e-10
            assert ref.openloop_stackelberg_crosscheck_two_player_lq(spec, x0) <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 4: optimality-condition residuals


def test_criterion_4a_stationarity(announce, nash_solutions, stackelberg_solutions):
    with announce("4a", f"finite-difference stationarity <= {STATIONARITY_TOL} "
                        f"at h = {FD_STEP} for every solver"):
        for spec, x0, fb, ol in nash_solutions:
            res = verify.stationarity(spec, fb, verify.FEEDBACK, h=FD_STEP, x0=x0)
            assert max(res.values()) <= STATIONARITY_TOL
            res = verify.stationarity(spec, ol, verify.OPEN_LOOP, h=FD_STEP)
            assert max(res.values()) <= STATIONARITY_TOL
        for spec, x0, fb, ol in stackelberg_solutions:
            res = verify.stationarity(spec, fb, verify.FEEDBACK, h=FD_STEP, x0=x0)
            assert max(res.values()) <= STATIONARITY_TOL
            res = verify.stationarity(spec, ol, verify.OPEN_LOOP, h=FD_STEP)
            assert max(res.values()) <= STATIONARITY_TOL


def test_criterion_4b_kkt_residuals(announce, nash_solutions, stackelberg_solutions):
    with announce("4b", "costate/KKT residual families (1e-9 Nash, 1e-8 Stackelberg)"):
        for spec, x0, _, ol in nash_solutions:
            res = openloop_nash.kkt_residuals(ol)
            assert max(res.values()) <= 1e-9, res
        for spec, x0, _, ol in stackelberg_solutions:
            res = openloop_stackelberg.kkt_residuals(ol)
            assert max(res.values()) <= 1e-8, res


def test_criterion_4c_deviation_gaps(announce, nash_solutions, stackelberg_solutions):
    with announce("4c", f"sampled deviation gaps >= {GAP_TOL} "
                        f"({DEVIATION_SAMPLES} samples per player)"):
        for idx, (spec, x0, fb, ol) in enumerate(nash_solutions):
            for i in range(spec.n_players):
                gap = verify.deviation_gap(spec, fb, verify.FEEDBACK, i,
                                           samples=DEVIATION_SAMPLES,
                                           seed=9000 + idx, x0=x0)
                assert gap >= GAP_TOL
                gap = verify.deviation_gap(spec, ol, verify.OPEN_LOOP, i,
                                           samples=DEVIATION_SAMPLES,
                                           seed=9100 + idx)
                assert gap >= GAP_TOL
        for idx, (spec, x0, fb, ol) in enumerate(stackelberg_solutions):
            for i in range(1, spec.n_players):
                gap = verify.deviation_gap(spec, fb, verify.FEEDBACK, i,
                                           samples=DEVIATION_SAMPLES,
                                           seed=9200 + idx, x0=x0)
                assert gap >= GAP_TOL
                gap = verify.deviation_gap(spec, ol, verify.OPEN_LOOP, i,
                                           samples=DEVIATION_SAMPLES,
                                           seed=9300 + idx)
                assert gap >= GAP_TOL


def test_criterion_4d_leader_gaps(announce, stackelberg_solutions):
    with announce("4d", f"leader gaps >= {GAP_TOL} with followers "
                        f"re-best-responding ({LEADER_SAMPLES} samples)"):
        for idx, (spec, x0, fb, ol) in enumerate(stackelberg_solutions):
            gap = verify.leader_gap(spec, fb, verify.FEEDBACK,
                                    samples=LEADER_SAMPLES, seed=9400 + idx, x0=x0)
            assert gap >= GAP_TOL
            gap = verify.leader_gap(spec, ol, verify.OPEN_LOOP,
                                    samples=LEADER_SAMPLES, seed=9500 + idx)
            assert gap >= GAP_TOL


# ---------------------------------------------------------------------------
# Criterion 5: time consistency


def test_criterion_5_time_consistency(announce, nash_solutions, stackelberg_solutions):
    with announce(5, "feedback STC <= 1e-10; open-loop Nash WTC <= 1e-9; "
                     "multiplier reset breaks an open-loop Stackelberg tail"):
        for spec, x0, fb, ol in nash_solutions:
            tc = verify.time_consistency(spec, fb, verify.FEEDBACK)
            assert tc.verdict == "STC" and tc.tail_deviation <= 1e-10
            tc = verify.time_consistency(spec, ol, verify.OPEN_LOOP)
            assert tc.verdict == "WTC" and tc.tail_deviation <= 1e-9

        reset_drifts = []
        for spec, x0, fb, ol in stackelberg_solutions:
            tc = verify.time_consistency(spec, fb, verify.FEEDBACK)
            assert tc.verdict == "STC" and tc.tail_deviation <= 1e-10
            tc = verify.time_consistency(spec, ol, verify.OPEN_LOOP)
            assert tc.tail_deviation <= 1e-9  # with inherited multipliers
            if tc.mu_reset_deviation is not None and spec.horizon > 1:
                reset_drifts.append(tc.mu_reset_deviation)
        # documented expected-negative: resetting the multipliers re-opens
        # the leader's commitment and moves the tail on generic instances
        assert max(reset_drifts) > 1e-3


# ---------------------------------------------------------------------------
# Criterion 6: numerics self-tests


def test_criterion_6_numerics_self_tests(announce):
    with announce(6, "push-through identities, congruence PD property, "
                     "FD step-halving ratio"):
        rng = rng_for(2026)
        for _ in range(100):
            q = int(rng.integers(1, 5))
            r = int(rng.integers(1, 5))
            A = psd_matrix(rng, q, shift=0.3)
            B = rng.standard_normal((q, r))
            r1, r2 = ref.pushthrough_residuals(A, B)
            assert r1 <= 1e-10 and r2 <= 1e-10

        for _ in range(100):
            q = int(rng.integers(1, 5))
            r = int(rng.integers(1, 5))
            A = psd_matrix(rng, q, shift=0.3)
            Bm = psd_matrix(rng, r)
            C = rng.standard_normal((r, q))
            d = ref.classify_definiteness(A + C.T @ Bm @ C)
            assert d.classification == "PD"

        a = rng.standard_normal(5)
        z = rng.standard_normal(5) * 0.3
        exact = np.exp(a @ z) * a + np.cos(z)

        def f(v):
            return float(np.exp(a @ v) + np.sin(v).sum())

        def err(h):
            return np.abs(verify.central_gradient(f, z, h) - exact).max()

        ratio = err(1e-3) / err(5e-4)
        assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# Criterion 7: definiteness monitors


def test_criterion_7_definiteness_monitors(announce, nash_solutions,
                                           stackelberg_solutions):
    with announce(7, "monitored value-matrix spectra stay PSD (>= -1e-9); "
                     "non-symmetric costate spectra recorded"):
        recorded = 0
        for spec, x0, fb, ol in nash_solutions + stackelberg_solutions:
            log = verify.definiteness_monitor(fb)
            assert log.ok, log.violations()
            # every feedback value matrix is monitored and asserted
            assert all(e.asserted for e in log.entries)
            log_ol = verify.definiteness_monitor(ol)
            assert log_ol.ok, log_ol.violations()
            recorded += sum(1 for e in log_ol.entries if not e.asserted)
        # the multi-player open-loop costate matrices are recorded (their
        # symmetric parts are generally indefinite; no assertion applies)
        assert recorded > 0
