"""Solver-independent verification oracles.

Every check here judges a solution only through its output object (laws or
control sequences) plus the plain game machinery: rollout, stage costs,
re-solves of reduced or truncated games.  None of them re-uses the
internal recursion of the solver under test to certify itself.

Randomness is reproducible across platforms: all sampling uses numpy's
PCG64 generator (64-bit state) seeded explicitly, via
``np.random.Generator(np.random.PCG64(seed))``.

The sampling checks run batched: every deviation, leader-gap and
finite-difference sample of one check goes through a single rollout over
a sample axis.  The open-loop Stackelberg leader's checks, whose objective
re-solves the followers' game for each leader sequence, batch that
re-solve too: the followers' games of all samples differ only in their
drifts, so one drift-batched :func:`dyngame.openloop_nash.solve` answers
all of them (see :func:`leader_cost_open_loop`).  The feedback
stationarity check rolls its probes out in chunks of at most
``_FEEDBACK_ROWS`` sample-stages, which bounds its memory at long horizons
and leaves each probe's arithmetic as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import openloop_nash, solvers
from .errors import InvalidGameError
from .feedback_nash import FeedbackNashSolution
from .game import (AffineLaw, GameSpec, StageArrays, _stage_costs, drop_player, folded_drifts,
                   rollout, truncate)
from .lqr import ControlSolution
from .openloop_nash import OpenLoopNashSolution
from .openloop_stackelberg import OpenLoopStackelbergSolution
from .numerics import asymmetry
from .solvers import FEEDBACK, OPEN_LOOP

# Default acceptance thresholds for the assembled report.
STATIONARITY_TOL = 1e-6
DEVIATION_TOL = -1e-8
STC_TOL = 1e-10
WTC_TOL = 1e-9
PSD_TOL = -1e-9

#: Sample-stage rows the feedback stationarity check rolls out at once.
#: Its memory grows with samples times stages, and its samples with the
#: horizon, so the probes go through in chunks under this budget.
_FEEDBACK_ROWS = 8192


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def central_gradient(f, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, component-wise.

    Truncation error is O(h^2); exact (up to roundoff) on quadratics.
    """
    z = np.asarray(z, dtype=float)
    grad = np.empty_like(z)
    for k in range(z.size):
        zp = z.copy(); zp[k] += h
        zm = z.copy(); zm[k] -= h
        grad[k] = (f(zp) - f(zm)) / (2.0 * h)
    return grad


def _solver_row(solution, pattern: str) -> solvers.Solver:
    """The table row of the solver behind ``solution``, checked against the
    information pattern the caller names."""
    if pattern not in (OPEN_LOOP, FEEDBACK):
        raise InvalidGameError(f"unknown information pattern {pattern!r}")
    row = solvers.solver_of(solution)
    if row.pattern != pattern:
        raise InvalidGameError(f"pattern {pattern!r} given a solution of pattern {row.pattern!r}")
    return row


def _require_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise InvalidGameError(f"{name} must be finite and > 0, got {value}")


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise InvalidGameError(f"samples must be >= 1, got {samples}")


# ---------------------------------------------------------------------------
# Stationarity


def stationarity(spec: GameSpec, solution, pattern: str, h: float = 1e-5,
                 x0: np.ndarray | None = None) -> dict[int, float]:
    """Per-player max first-order residual, by central finite differences.

    Open loop: the residual of player i differentiates its total cost over
    the whole control sequence, the other sequences held fixed; for a
    Stackelberg leader the followers re-best-respond inside the
    differentiated map (that is the leader's actual objective).
    Feedback: per-stage derivatives of the cost-to-go along the
    equilibrium path, other players acting through their laws, with the
    Stackelberg leader differentiated through the followers' stage
    reactions.  All probes of one call share one rollout (feedback: one
    per chunk of ``_FEEDBACK_ROWS`` sample-stages); the open-loop
    Stackelberg leader's 2*T*m probes share one drift-batched re-solve of
    the followers' game, whose paths price the leader.
    """
    row = _solver_row(solution, pattern)
    _require_positive("finite-difference step", h)
    if pattern == OPEN_LOOP:
        return _stationarity_open_loop(spec, solution, h, row.stackelberg)
    return _stationarity_feedback(spec, solution, h, x0, row.stackelberg)


def _stationarity_open_loop(spec, sol, h, stackelberg):
    n = spec.n_players
    controls = list(sol.trajectory.controls)
    x0 = sol.x0

    out: dict[int, float] = {}
    if stackelberg:
        # The leader's objective re-solves the followers' game: one batched
        # re-solve over a +h/-h sample pair per leader control entry, with
        # central_gradient's arithmetic.
        u = controls[0]
        P = u.size
        batch = np.repeat(u.reshape(1, P), 2 * P, axis=0)
        batch[np.arange(P), np.arange(P)] += h
        batch[np.arange(P) + P, np.arange(P)] -= h
        f = leader_cost_open_loop(spec, batch.reshape(2 * P, *u.shape), x0)
        out[0] = float(np.abs((f[:P] - f[P:]) / (2.0 * h)).max(initial=0.0))

    # Every other player: one rollout over a +h/-h sample pair per control
    # entry, the other players' sequences held fixed.
    players = range(1 if stackelberg else 0, n)
    who = np.concatenate([np.full(controls[i].size, i) for i in players])
    entry = np.concatenate([np.arange(controls[i].size) for i in players])
    P = who.size
    for i in players:
        probe = np.flatnonzero(who == i)
        batch = np.repeat(controls[i][None], 2 * P, axis=0).reshape(2 * P, -1)
        batch[probe, entry[probe]] += h
        batch[probe + P, entry[probe]] -= h
        controls[i] = batch.reshape(2 * P, *controls[i].shape)
    f = rollout(spec, controls, x0).total_costs[np.arange(2 * P), np.tile(who, 2)]
    grad = (f[:P] - f[P:]) / (2.0 * h)
    for i in players:
        out[i] = float(np.abs(grad[who == i]).max(initial=0.0))
    return out


def _stationarity_feedback(spec, sol, h, x0, stackelberg):
    if x0 is None:
        raise InvalidGameError("feedback stationarity needs an initial state x0")
    x0 = np.asarray(x0, dtype=float)
    T, n, dims = spec.horizon, spec.n_players, spec.control_dims

    # One +h/-h sample pair per (stage t, player i, control entry k): the
    # stage-t control of player i moves by +-h e_k, every other stage-t
    # control and every later stage follows the laws, and the residual
    # differentiates player i's cost of stages t..T-1.  Stages before t
    # follow the laws too, so each sample reaches the on-path x_t.
    probes = np.array([(t, i, k) for t in range(T) for i in range(n) for k in range(dims[i])])
    chunk = max(1, _FEEDBACK_ROWS // (2 * T))
    grad = np.concatenate([_feedback_probe_gradients(spec, sol, h, x0, stackelberg,
                                                     probes[c:c + chunk])
                           for c in range(0, len(probes), chunk)])
    return {i: float(grad[probes[:, 1] == i].max(initial=0.0)) for i in range(n)}


def _feedback_probe_gradients(spec, sol, h, x0, stackelberg, probes):
    """|central difference| of each (t, i, k) probe, its +h and -h samples
    rolled out together."""
    T, n = spec.horizon, spec.n_players
    laws = sol.laws
    P = len(probes)
    t_of, i_of, k_of = np.tile(probes, (2, 1)).T  # samples P.. repeat the probes
    step = np.repeat([h, -h], P)
    G = [law.G for law in laws]
    g = [np.repeat(law.g[None], 2 * P, axis=0) for law in laws]
    for i in range(n):
        rows = np.flatnonzero(i_of == i)
        g[i][rows, t_of[rows], k_of[rows]] += step[rows]
    if stackelberg:
        # A moved leader control meets the followers' stage reactions:
        # their stage-t laws become W + rbar G1, w + rbar (g1 +- h e_k).
        folded = _leader_played(sol.reactions, AffineLaw(G[0], g[0]))
        at = ((i_of == 0)[:, None] & (np.arange(T) == t_of[:, None]))[:, :, None]
        for k in range(1, n):
            G[k] = np.where(at[..., None], folded[k].G, G[k])
            g[k] = np.where(at, folded[k].g, g[k])

    costs = rollout(spec, [AffineLaw(Gi, gi) for Gi, gi in zip(G, g)], x0).stage_costs
    tail = np.where(np.arange(T) >= t_of[:, None], costs[np.arange(2 * P), i_of], 0.0)
    f = tail.sum(axis=1)
    return np.abs(f[:P] - f[P:]) / (2.0 * h)


# ---------------------------------------------------------------------------
# Sampled deviation gaps


def deviation_gap(spec: GameSpec, solution, pattern: str, player: int,
                  samples: int = 100, magnitude: float = 1e-3, seed: int = 0,
                  x0: np.ndarray | None = None) -> float:
    """Min over random unilateral deviations of (deviated - equilibrium) cost.

    Negative values beyond tolerance are the failure signal: the player
    found an improvement.  Open loop perturbs the committed sequence;
    feedback perturbs the player's law coefficients and re-rolls the
    trajectory (all other players keep acting through their laws).
    """
    _solver_row(solution, pattern)
    _require_samples(samples)
    _require_positive("magnitude", magnitude)
    rng = _rng(seed)
    if pattern == OPEN_LOOP:
        return _deviation_open_loop(spec, solution, player, samples, magnitude, rng)
    return _deviation_feedback(spec, solution, player, samples, magnitude, rng, x0)


def _unit_rows(rng, samples, size):
    """``samples`` random unit directions of length ``size``, one per row.

    One draw of shape (samples, size) gives the same numbers, bit for bit,
    as ``samples`` draws of ``size`` in turn, and each row's norm is its
    own dot product, as ``np.linalg.norm`` computes it for that row alone,
    so the sample set of a seed does not depend on the batching.
    """
    d = rng.standard_normal((samples, size))
    norm = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    return d / np.where(norm == 0, 1.0, norm)[:, None]


def _sequence_perturbations(u, samples, magnitude, rng):
    """``samples`` random perturbations of a control sequence, (samples,
    T, m), each of norm ``magnitude`` times the sequence's norm (at least
    1)."""
    scale = magnitude * max(1.0, np.linalg.norm(u))
    return u + scale * _unit_rows(rng, samples, u.size).reshape(samples, *u.shape)


def _law_perturbations(law, samples, magnitude, rng):
    """``samples`` random perturbations of one player's law sequence, as a
    law sequence with a sample axis: one unit direction over all gain and
    offset entries per sample, scaled by ``magnitude`` times the largest
    gain entry (at least 1)."""
    G, g = law.G, law.g
    scale = magnitude * max(1.0, np.abs(G).max(initial=0.0))
    flat = _unit_rows(rng, samples, G.size + g.size) * scale
    return AffineLaw(G + flat[:, :G.size].reshape(samples, *G.shape),
                     g + flat[:, G.size:].reshape(samples, *g.shape))


def _deviation_open_loop(spec, sol, player, samples, magnitude, rng):
    controls = list(sol.trajectory.controls)
    controls[player] = _sequence_perturbations(controls[player], samples, magnitude, rng)
    costs = rollout(spec, controls, sol.x0).total_costs[:, player]
    return float((costs - sol.trajectory.total_costs[player]).min())


def _deviation_feedback(spec, sol, player, samples, magnitude, rng, x0):
    if x0 is None:
        raise InvalidGameError("feedback deviation sampling needs an initial state x0")
    x0 = np.asarray(x0, dtype=float)
    laws = list(sol.laws)
    base_cost = rollout(spec, laws, x0).total_costs[player]
    laws[player] = _law_perturbations(laws[player], samples, magnitude, rng)
    costs = rollout(spec, laws, x0).total_costs[:, player]
    return float((costs - base_cost).min())


def leader_gap(spec: GameSpec, solution, pattern: str, samples: int = 50,
               magnitude: float = 1e-3, seed: int = 0,
               x0: np.ndarray | None = None) -> float:
    """Min leader-cost gap over random leader deviations, followers
    re-best-responding.

    Open loop: each deviated leader sequence is folded into the drift and
    the followers' open-loop Nash game is re-solved; the base sequence and
    all samples share one drift-batched re-solve, whose paths price them.
    Feedback: the deviated leader law is played with followers reacting
    stagewise through the solution's reaction maps.
    """
    if not _solver_row(solution, pattern).stackelberg:
        raise InvalidGameError("leader gap needs a Stackelberg solution")
    _require_samples(samples)
    _require_positive("magnitude", magnitude)
    rng = _rng(seed)
    if pattern == OPEN_LOOP:
        return _leader_gap_open_loop(spec, solution, samples, magnitude, rng)
    return _leader_gap_feedback(spec, solution, samples, magnitude, rng, x0)


def leader_cost_open_loop(spec: GameSpec, u_leader: np.ndarray, x0: np.ndarray) -> float | np.ndarray:
    """Leader's cost for a committed sequence, followers re-best-responding
    (their open-loop Nash game with the leader's controls folded into the
    drift).

    ``u_leader`` is one sequence (T, m), whose cost is a float, or S of
    them (S, T, m), whose costs are an (S,) array.  The followers' games of
    all S sequences share every matrix and differ only in their drifts
    s_t + B_t^0 u_t, so the followers' game is built once and one
    drift-batched open-loop Nash solve answers all S of them.  The leader's
    controls enter that solve through the drift, so its paths are the full
    game's paths, on which the leader's stage costs are then priced.
    """
    u = np.atleast_2d(np.asarray(u_leader, dtype=float))
    batch = u if u.ndim == 3 else u[None]
    path = openloop_nash.solve(drop_player(spec, 0), x0,
                               drifts=folded_drifts(spec, 0, batch)).trajectory
    controls = np.concatenate([batch, *path.controls], axis=-1)
    costs = _stage_costs(StageArrays.of(spec), path.states, controls)[:, 0].sum(axis=-1)
    return costs if u.ndim == 3 else float(costs[0])


def _leader_gap_open_loop(spec, sol, samples, magnitude, rng):
    u1 = sol.trajectory.controls[0]
    costs = leader_cost_open_loop(
        spec, np.concatenate([u1[None], _sequence_perturbations(u1, samples, magnitude, rng)]), sol.x0)
    return float((costs[1:] - costs[0]).min())


def _leader_played(reactions, leader):
    """Every player's law sequence when the leader plays ``leader`` and
    each follower reacts stagewise through its reaction map
    r = W x + rbar u_leader + w, which folds into the follower law
    W + rbar G1, w + rbar g1."""
    return [leader] + [AffineLaw(W + rbar @ leader.G, w + (rbar @ leader.g[..., None])[..., 0])
                       for W, rbar, w in zip(reactions.W, reactions.rbar, reactions.w)]


def _leader_gap_feedback(spec, sol, samples, magnitude, rng, x0):
    if x0 is None:
        raise InvalidGameError("feedback leader gap needs an initial state x0")
    x0 = np.asarray(x0, dtype=float)
    leader = sol.laws[0]
    base = rollout(spec, _leader_played(sol.reactions, leader), x0).total_costs[0]
    deviated = _law_perturbations(leader, samples, magnitude, rng)
    costs = rollout(spec, _leader_played(sol.reactions, deviated), x0).total_costs[:, 0]
    return float((costs - base).min())


# ---------------------------------------------------------------------------
# Time consistency


@dataclass(frozen=True)
class TimeConsistency:
    """Outcome of truncate-and-re-solve checks.

    ``verdict`` is the property the solution class is expected to satisfy:
    feedback solutions are strongly time consistent (tail laws match for
    *any* truncation state), open-loop Nash weakly so (tail matches when
    re-solved from the on-path state), and open-loop Stackelberg only
    consistent when the truncation inherits the multiplier state --
    ``mu_reset_deviation`` records how far a zero-multiplier re-solve
    drifts (reported, not asserted)."""

    verdict: str                      # "STC" or "WTC"
    tail_deviation: float
    mu_reset_deviation: float | None = None


def time_consistency(spec: GameSpec, solution, pattern: str) -> TimeConsistency:
    """Re-solve every tail game (stages s..T-1, s >= 1) with the solver that
    produced ``solution`` and measure how far its laws (feedback) or
    controls (open loop, re-solved from the on-path state x_s) drift from
    the solution's tail."""
    row = _solver_row(solution, pattern)
    worst = 0.0
    if pattern == FEEDBACK:
        for s in range(1, spec.horizon):
            tail = row.solve(truncate(spec, s), None)
            worst = max(worst, _law_gap(tail.laws, solution.laws, s))
        return TimeConsistency(verdict="STC", tail_deviation=float(worst))

    traj = solution.trajectory
    reset = None if row.resume is None else 0.0
    for s in range(1, spec.horizon):
        tail_spec = truncate(spec, s)
        tail_u = [u[s:] for u in traj.controls]
        plain = _control_gap(row.solve(tail_spec, traj.states[s]), tail_u)
        if row.resume is None:
            worst = max(worst, plain)
        else:
            worst = max(worst, _control_gap(row.resume(tail_spec, solution, s), tail_u))
            reset = max(reset, plain)
    return TimeConsistency(verdict="WTC", tail_deviation=float(worst),
                           mu_reset_deviation=None if reset is None else float(reset))


def _law_gap(tail_laws, laws, s) -> float:
    """Max entrywise gap between tail law sequences and stages s.. of
    ``laws``."""
    return max(max(np.abs(a.G - b.G[s:]).max(initial=0.0),
                   np.abs(a.g - b.g[s:]).max(initial=0.0))
               for a, b in zip(tail_laws, laws))


def _control_gap(tail, controls) -> float:
    """Max entrywise gap between a tail solution's controls and ``controls``."""
    return max(np.abs(u - v).max(initial=0.0)
               for u, v in zip(tail.trajectory.controls, controls))


# ---------------------------------------------------------------------------
# Definiteness monitoring


@dataclass(frozen=True)
class MonitorEntry:
    stage: int
    name: str
    min_eigenvalue: float
    symmetric: bool
    asserted: bool  # part of the PSD assertion, or recorded only


@dataclass(frozen=True)
class DefinitenessLog:
    entries: tuple[MonitorEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.min_eigenvalue >= PSD_TOL for e in self.entries if e.asserted)

    def violations(self) -> list[MonitorEntry]:
        return [e for e in self.entries if e.asserted and not e.min_eigenvalue >= PSD_TOL]


def definiteness_monitor(solution) -> DefinitenessLog:
    """Record the spectra of the solution's quadratic coefficient sequences.

    The PSD assertion covers the matrices with a structural symmetry and
    semidefiniteness guarantee: feedback value coefficients Z^i (any n,
    given PSD cross weights) and the single-player open-loop costate
    coefficient.  Multi-player open-loop costate matrices are genuinely
    non-symmetric (the transition operator mixes all players' costates)
    and carry no definiteness guarantee; their symmetric-part spectra are
    recorded for inspection only.
    """
    entries: list[MonitorEntry] = []

    def record(mat, stage, name, asserted):
        symmetric = not asymmetry(mat, 1e-9)[1]
        eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
        entries.append(MonitorEntry(stage=stage, name=name, min_eigenvalue=eig,
                                    symmetric=symmetric, asserted=bool(asserted and symmetric)))

    if isinstance(solution, ControlSolution):
        for t in range(solution.Z.shape[0]):
            record(solution.Z[t], t, "Z", asserted=True)
    elif isinstance(solution, FeedbackNashSolution):
        n, horizon = solution.Z.shape[0], solution.Z.shape[1] - 1
        for i in range(n):
            for t in range(horizon + 1):
                record(solution.Z[i, t], t, f"Z[{i}]", asserted=True)
    elif isinstance(solution, OpenLoopNashSolution):
        n, horizon = solution.M.shape[0], solution.M.shape[1] - 1
        for i in range(n):
            for t in range(horizon + 1):
                record(solution.M[i, t], t, f"M[{i}]", asserted=(n == 1))
    elif isinstance(solution, OpenLoopStackelbergSolution):
        p = solution.spec.state_dim
        for t, K_t in enumerate(solution.K):
            record(K_t[:p, :p], t, "L_x", asserted=False)
            for k in range(1, solution.spec.n_players):
                record(K_t[k * p:(k + 1) * p, :p], t, f"M_x[{k - 1}]", asserted=False)
    else:
        raise InvalidGameError(f"cannot monitor solution type {type(solution).__name__}")
    return DefinitenessLog(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Assembled report


@dataclass
class VerificationReport:
    solver: str
    pattern: str
    seed: int
    samples: int
    fd_step: float
    magnitude: float
    stationarity: dict[int, float] = field(default_factory=dict)
    deviation_gaps: dict[int, float] = field(default_factory=dict)
    leader_gap: float | None = None
    time_consistency: TimeConsistency | None = None
    definiteness: DefinitenessLog | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        tc = self.time_consistency
        dlog = self.definiteness
        return {
            "solver": self.solver,
            "pattern": self.pattern,
            "seed": self.seed,
            "samples": self.samples,
            "fd_step": self.fd_step,
            "magnitude": self.magnitude,
            "stationarity": {str(k): v for k, v in sorted(self.stationarity.items())},
            "deviation_gaps": {str(k): v for k, v in sorted(self.deviation_gaps.items())},
            "leader_gap": self.leader_gap,
            "time_consistency": None if tc is None else {
                "verdict": tc.verdict,
                "tail_deviation": tc.tail_deviation,
                "mu_reset_deviation": tc.mu_reset_deviation,
            },
            "definiteness": None if dlog is None else {
                "ok": dlog.ok,
                "entries": [
                    {"stage": e.stage, "name": e.name,
                     "min_eigenvalue": e.min_eigenvalue,
                     "symmetric": e.symmetric, "asserted": e.asserted}
                    for e in dlog.entries
                ],
            },
            "failures": list(self.failures),
            "passed": self.passed,
        }


def _failure(value: float, name: str, message: str) -> str:
    """``message`` for a value that failed its gate; for a NaN or infinite
    value, which compares as no number does, the plain fact that ``name``
    is not finite."""
    return message if np.isfinite(value) else f"{name} is not finite"


def run_verification(spec: GameSpec, solution, pattern: str, solver_name: str,
                     x0: np.ndarray | None = None, samples: int = 100,
                     leader_samples: int = 50, fd_step: float = 1e-5,
                     magnitude: float = 1e-3, seed: int = 0) -> VerificationReport:
    """Run the full oracle battery on one solution and collect a report."""
    report = VerificationReport(solver=solver_name, pattern=pattern, seed=seed,
                                samples=samples, fd_step=fd_step, magnitude=magnitude)
    is_stackelberg = _solver_row(solution, pattern).stackelberg

    report.stationarity = stationarity(spec, solution, pattern, h=fd_step, x0=x0)
    for i, r in report.stationarity.items():
        if not r <= STATIONARITY_TOL:
            report.failures.append(_failure(
                r, f"stationarity residual of player {i}",
                f"stationarity residual of player {i} is {r:.3e} > {STATIONARITY_TOL:.0e}"))

    for i in range(spec.n_players):
        if is_stackelberg and i == 0:
            continue
        gap = deviation_gap(spec, solution, pattern, i, samples=samples,
                            magnitude=magnitude, seed=seed + i, x0=x0)
        report.deviation_gaps[i] = gap
        if not gap >= DEVIATION_TOL:
            report.failures.append(_failure(
                gap, f"deviation gap of player {i}",
                f"player {i} improved by {-gap:.3e} under a sampled deviation"))

    if is_stackelberg:
        report.leader_gap = leader_gap(spec, solution, pattern,
                                       samples=leader_samples, magnitude=magnitude,
                                       seed=seed + spec.n_players, x0=x0)
        if not report.leader_gap >= DEVIATION_TOL:
            report.failures.append(_failure(
                report.leader_gap, "leader gap",
                f"leader improved by {-report.leader_gap:.3e} under a sampled deviation"))

    report.time_consistency = time_consistency(spec, solution, pattern)
    tc = report.time_consistency
    tol = STC_TOL if tc.verdict == "STC" else WTC_TOL
    if not tc.tail_deviation <= tol:
        report.failures.append(_failure(
            tc.tail_deviation, f"{tc.verdict} tail deviation",
            f"{tc.verdict} tail deviation {tc.tail_deviation:.3e} > {tol:.0e}"))

    report.definiteness = definiteness_monitor(solution)
    for e in report.definiteness.violations():
        report.failures.append(
            f"{e.name} at stage {e.stage} has min eigenvalue {e.min_eigenvalue:.3e}")

    return report
