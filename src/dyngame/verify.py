"""Solver-independent verification oracles.

Every check here judges a solution only through its output object (laws or
control sequences, and a feedback Stackelberg solution's stage reactions)
plus the plain game machinery: the stage data, rollouts, stage costs and
re-solves of reduced games.  None of them re-uses the internal recursion of
the solver under test to certify itself, but one: the open-loop Stackelberg
``WTC`` entry replays one re-solve by :func:`dyngame.openloop_stackelberg.sweep`,
so its "tail" half is a reproduction check of that solver, not a certificate.

Randomness is reproducible across platforms: all sampling uses numpy's
PCG64 generator (64-bit state) seeded explicitly, via
``np.random.Generator(np.random.PCG64(seed))``.

The first-order checks are exact certificates, one O(T) pass each:
stationarity a costate pass along the played path, for every solver, and
feedback STC the cost-to-go recursion over all states (see
:func:`stationarity` and :func:`time_consistency`).  The sampling checks run
batched: every deviation and leader-gap sample of one check goes through a
single state loop over a sample axis, and each check prices only the player
under test, the leader checks only the leader.  The open-loop Stackelberg
leader's checks, whose objective re-solves the followers' game for each
leader sequence, batch that re-solve too: the followers' games of all
samples differ only in their drifts, so one drift-batched
:func:`dyngame.openloop_nash.sweep` answers all of them, and one walk of its
path laws plays them (see :func:`leader_cost_open_loop`).  The stationarity
certificate replays the path in its own costate pass, apart from that walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import openloop_nash, openloop_stackelberg, solvers
from .errors import InvalidGameError
from .feedback_nash import FeedbackNashSolution
from .game import (AffineLaw, GameSpec, StageArrays, _stage_costs, _walk, _walk_rules, folded_drifts,
                   initial_state, is_integer, require_index, require_real, require_valid)
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


def _rng(seed: int) -> np.random.Generator:
    require_index("seed", seed, np.inf)  # PCG64 takes no negative seed
    return np.random.Generator(np.random.PCG64(seed))


def _solver_row(spec: GameSpec, solution, pattern: str) -> solvers.Solver:
    """The table row of the solver behind ``solution``, checked against the
    information pattern the caller names, and the solution's game against
    ``spec``: the same horizon, state dimension and control dimensions."""
    if pattern not in (OPEN_LOOP, FEEDBACK):
        raise InvalidGameError(f"unknown information pattern {pattern!r}")
    row = solvers.solver_of(solution)
    if row.pattern != pattern:
        raise InvalidGameError(f"pattern {pattern!r} given a solution of pattern {row.pattern!r}")
    theirs, ours = ((g.horizon, g.state_dim, g.control_dims) for g in (solution.spec, spec))
    if theirs != ours:
        raise InvalidGameError(f"the solution is of another game: (horizon, state_dim, control_dims) "
                               f"{theirs}, the game's {ours}")
    return row


def _require_positive(name: str, value: float) -> None:
    if not require_real(name, value) > 0:
        raise InvalidGameError(f"{name} must be finite and > 0, got {value}")


def _require_samples(name: str, value: int) -> None:
    if is_integer(value) and value < 1:
        raise InvalidGameError(f"{name} must be >= 1, got {value}")
    require_index(name, value, np.inf)


def _require_drawable(samples: int, spec: GameSpec, pattern: str, players) -> None:
    """Refuse a count of samples of some player's T m_i sequence entries, or
    T m_i (p + 1) law entries, whose draw numpy cannot shape: more bytes,
    and so more values, than ``np.intp`` counts."""
    size = (spec.horizon * (1 if pattern == OPEN_LOOP else spec.state_dim + 1)
            * max(spec.control_dims[i] for i in players))
    if int(samples) * size * 8 > np.iinfo(np.intp).max:
        raise InvalidGameError(f"cannot draw {samples} samples of {size} entries: "
                               "more than numpy can index")


# ---------------------------------------------------------------------------
# Stationarity certificates


def stationarity(spec: GameSpec, solution, pattern: str,
                 x0: np.ndarray | None = None) -> dict[int, float]:
    """Per-player largest first-order residual, exactly, from one costate
    pass along the played path (:func:`_path_gradients`).  Open loop: the
    gradient of player i's total cost in its controls, on the path from
    the solution's x0; the Stackelberg leader's through the followers' best
    response, one drift-batched sweep of their game over its T*m_0 control
    entries.  Feedback: the derivative of player i's cost-to-go in its
    stage-t control, later stages acting through their laws, at each x_t
    of the path from ``x0``; the leader's through the followers' reactions."""
    row = _solver_row(spec, solution, pattern)
    view = StageArrays.of(spec)
    if pattern == FEEDBACK:
        if x0 is None:
            raise InvalidGameError("feedback stationarity needs an initial state x0")
        x0 = initial_state(spec, x0)
    grad = _path_gradients(view, *_played(view, solution, pattern, x0))[0]
    own, m0 = view.own(grad, lead=1), view.blocks[0].stop
    if row.stackelberg:
        own[:, :m0] = (_through_reactions(grad[..., None], solution)[..., 0] if pattern == FEEDBACK
                       else _leader_gradient(spec, solution.x0, grad[:, 0]).reshape(-1, m0))
    return {i: float(r) for i, r in enumerate(_by_player(own, view.blocks).max(axis=0))}


def _played(view: StageArrays, sol, pattern: str, x0):
    """The played path (x0, G (T, M, p), g (T, M)) of u_t = G_t x_t + g_t: an
    open-loop solution's x0 and controls as zero gains, or a feedback one's laws."""
    T, p, M = view.B.shape
    if pattern == OPEN_LOOP:
        return sol.x0, np.zeros((T, M, p)), np.concatenate(sol.trajectory.controls, axis=-1)
    return (x0, np.concatenate([law.G for law in sol.laws], axis=1),
            np.concatenate([law.g for law in sol.laws], axis=1))


def _path_gradients(view: StageArrays, x0, G, g) -> tuple[np.ndarray, np.ndarray]:
    """Every player's gradient of its cost from stage t on in every stage-t
    control row, later stages acting through their laws, (T, n, M), by one
    costate pass along the path x (T+1, p) of u_t = G_t x_t + g_t from x0,
    x_{t+1} = (A + BG)_t x_t + B_t g_t + s_t, and that path; with G = 0,
    the gradient of the total cost in the controls g.  lam_{t+1} = Q_t
    (x_{t+1} - xt_t) + G_{t+1}'R_{t+1} (u_{t+1} - ut_{t+1}) + (A +
    BG)_{t+1}' lam_{t+2}, the gradient in x_{t+1} of the costs of stages
    t..T-1, gives the gradient R_t (u_t - ut_t) + B_t' lam_{t+1} in u_t."""
    T, p = view.s.shape
    F, Bg = view.A + view.B @ G, (view.B @ g[..., None])[..., 0]
    x = np.empty((T + 1, p))
    x[0] = x0
    for t in range(T):
        x[t + 1] = F[t] @ x[t] + Bg[t] + view.s[t]
    u = (G @ x[:-1, :, None])[..., 0] + g
    RDu = (view.R @ (u[:, None] - view.ut)[..., None])[..., 0]  # (T, n, M)
    lam = (view.Q @ (x[1:, None] - view.xt)[..., None])[..., 0]  # (T, n, p), row form
    lam[:-1] += RDu[1:] @ G[1:]
    for t in range(T - 2, -1, -1):
        lam[t] += lam[t + 1] @ F[t + 1]
    return RDu + lam @ view.B, x


def _costate_scale(view: StageArrays, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The scale of each control row's own open-loop gradient along states x
    and controls u, (T, M): the costate pass on absolute values, Lam_{t+1} =
    |Q_t|(|x_{t+1}| + |xt_t|) + |A_{t+1}|' Lam_{t+2}, and |R_t|(|u_t| +
    |ut_t|) + |B_t|' Lam_{t+1}, the size of the terms that cancel."""
    Lam = (np.abs(view.Q) @ (np.abs(x[1:, None]) + np.abs(view.xt))[..., None])[..., 0]
    absA = np.abs(view.A)
    for t in range(len(u) - 2, -1, -1):
        Lam[t] += Lam[t + 1] @ absA[t + 1]
    return view.own((np.abs(view.R) @ (np.abs(u[:, None]) + np.abs(view.ut))[..., None])[..., 0]
                    + Lam @ np.abs(view.B), lead=1)


def _by_player(X: np.ndarray, blocks) -> np.ndarray:
    """The largest |entry| of each player's rows of X (T, M, ...) at each
    stage, (T, n); NaN wherever a row holds one."""
    rows = np.abs(X.reshape(X.shape[0], X.shape[1], -1)).max(axis=2)
    return np.maximum.reduceat(rows, [b.start for b in blocks], axis=1)


def _relative(res: np.ndarray, scale: np.ndarray, blocks) -> np.ndarray:
    """Each player's largest residual at each stage over the largest entry
    of its componentwise scale, (T, n); 0 where the scale is 0, which
    makes every term, and so the residual, exactly 0."""
    den = _by_player(scale, blocks)
    return _by_player(res, blocks) / np.where(den > 0, den, 1.0)


def _through_reactions(X: np.ndarray, sol, absolute: bool = False) -> np.ndarray:
    """The feedback Stackelberg leader's rows of X (T, n, M, k) through D =
    [I; rbar_t] of the followers' stage reactions, (T, m_0, k); through
    |rbar_t| if ``absolute``, for a scale."""
    rbar = np.concatenate(sol.reactions.rbar, axis=1).swapaxes(1, 2)  # (T, m0, M - m0)
    m0 = rbar.shape[1]
    return X[:, 0, :m0] + (np.abs(rbar) if absolute else rbar) @ X[:, 0, m0:]


def _feedback_residuals(view: StageArrays, sol, stackelberg: bool):
    """The STC certificate: every player's stage first-order residuals
    under the solution's laws as maps of (x, 1) over all states, stacked
    over the control rows, res (T, M, p+1), and their scale, shaped as res.
    With the laws (u, 1) = L~ (x, 1), the closed loop F~ and player i's
    maps Du = L~ - [0 | ut^i] and Dx = F~[:p] - [0 | xt^i], its cost-to-go
    from stage t is 1/2 (x, 1)' P~_t (x, 1), P~_T = 0 and P~_t =
    F~'P~_{t+1}F~ + Dx'Q Dx + Du'R Du.  Its residual is its own rows of
    B'(Q Dx + P~_{t+1}[:p]F~) + R Du, the leader's through the reactions.
    The scale forms the same products of absolute values, each
    difference's inputs added: the size of the terms that cancel."""
    T, p, M = view.B.shape
    L = np.concatenate([np.concatenate([w.G, w.g[..., None]], axis=2) for w in sol.laws], axis=1)
    F, Dx, Du = _closed_loop(view.A, view.s, view.B, L, -view.xt, -view.ut)
    QDx, RDu = view.Q @ Dx, view.R @ Du
    C = Dx.swapaxes(-1, -2) @ QDx + Du.swapaxes(-1, -2) @ RDu
    P = np.zeros((T + 1,) + C.shape[1:])
    for t in range(T - 1, -1, -1):
        P[t] = F[t].T @ P[t + 1] @ F[t] + C[t]
    res = view.B.swapaxes(1, 2)[:, None] @ (QDx + P[1:, :, :p] @ F[:, None]) + RDu
    absB = np.abs(view.B)
    Fs, Xs, Us = _closed_loop(np.abs(view.A), np.abs(view.s), absB, np.abs(L),
                              np.abs(view.xt), np.abs(view.ut))
    scale = (absB.swapaxes(1, 2)[:, None] @ (np.abs(view.Q) @ Xs
                                             + np.abs(P[1:, :, :p]) @ Fs[:, None])
             + np.abs(view.R) @ Us)
    own_res, own_scale = view.own(res, lead=1), view.own(scale, lead=1)
    if stackelberg:
        own_res[:, :view.blocks[0].stop] = _through_reactions(res, sol)
        own_scale[:, :view.blocks[0].stop] = _through_reactions(scale, sol, absolute=True)
    return own_res, own_scale


def _closed_loop(A, s, B, L, xt, ut):
    """The closed loop F~ = [[A + BL_x, s + BL_1], [0, 1]] (T, p+1, p+1) of
    the stacked laws L~ (T, M, p+1), and every player's state and control
    maps of (x, 1) shifted by the targets, Dx = F~[:p] + [0 | xt^i] (T, n,
    p, p+1) and Du = L~ + [0 | ut^i] (T, n, M, p+1), targets xt (T, n, p)
    and ut (T, n, M) given with the sign they are added with."""
    T, p = s.shape
    F = np.zeros((T, p + 1, p + 1))
    F[:, :p, :p], F[:, :p, p] = A, s
    F[:, :p] += B @ L
    F[:, p, p] = 1.0
    Dx = np.repeat(F[:, None, :p], xt.shape[1], axis=1)
    Dx[..., p] += xt
    Du = np.repeat(L[:, None], ut.shape[1], axis=1)
    Du[..., p] += ut
    return F, Dx, Du


def _leader_gradient(spec: GameSpec, x0: np.ndarray, grad0: np.ndarray) -> np.ndarray:
    """The open-loop Stackelberg leader's gradient in its sequence (T*m_0,),
    the followers re-best-responding, from its gradient in every control
    row with the followers' controls held, grad0 (T, M).  The followers'
    response is affine in the leader's controls: a change e moves it by the
    followers' open-loop Nash controls with drift B^0 e, initial state 0
    and no targets, one drift-batched sweep, walked from 0, for all T*m_0 entries e."""
    view = require_valid(spec)
    T, m0 = spec.horizon, view.blocks[0].stop
    followers = view.select(range(1, spec.n_players))
    tangent = replace(followers, xt=np.zeros_like(followers.xt), ut=np.zeros_like(followers.ut))
    s = np.einsum("tpm,stm->stp", view.B[:, :, :m0], np.eye(T * m0).reshape(T * m0, T, m0))
    GT, g = openloop_nash.sweep(tangent, s)[4:]
    du = _walk(tangent, np.zeros(spec.state_dim), GT, g, s, len(s))[1]
    return grad0[:, :m0].ravel() + np.einsum("stk,tk->s", du, grad0[:, m0:])


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
    _solver_row(spec, solution, pattern)
    require_index("player", player, spec.n_players - 1)
    _require_samples("samples", samples)
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
    try:
        d = rng.standard_normal((samples, size))
    except (ValueError, MemoryError) as exc:
        raise InvalidGameError(f"cannot draw {samples} samples of {size} entries: {exc}") from exc
    norm = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    return d / np.where(norm == 0, 1.0, norm)[:, None]


def _sequence_perturbations(u, samples, magnitude, rng):
    """``samples`` random perturbations of a control sequence, (samples,
    T, m), each of norm ``magnitude`` times the sequence's norm (at least
    1)."""
    scale = magnitude * max(1.0, np.linalg.norm(u))
    return u + scale * _unit_rows(rng, samples, u.size).reshape(samples, *u.shape)


def _law_perturbations(law, samples, magnitude, rng):
    """One player's law sequence as sample 0, then ``samples`` random
    perturbations of it, as a law sequence with a sample axis, so that one
    state loop plays the base path and the deviations: one unit direction
    over all gain and offset entries per sample, scaled by ``magnitude``
    times the largest gain entry (at least 1)."""
    G, g = law.G, law.g
    scale = magnitude * max(1.0, np.abs(G).max(initial=0.0))
    flat = _unit_rows(rng, samples, G.size + g.size) * scale
    return AffineLaw(np.concatenate([G[None], G + flat[:, :G.size].reshape(samples, *G.shape)]),
                     np.concatenate([g[None], g + flat[:, G.size:].reshape(samples, *g.shape)]))


def _player_costs(spec, rules, x0, player):
    """``player``'s total costs (S,), priced alone, on the S paths :func:`dyngame.game.rollout` plays."""
    view, states, u, _ = _walk_rules(spec, rules, x0)
    return _stage_costs(view, states, u, [player])[:, 0].sum(axis=-1)


def _deviation_open_loop(spec, sol, player, samples, magnitude, rng):
    controls = list(sol.trajectory.controls)
    controls[player] = _sequence_perturbations(controls[player], samples, magnitude, rng)
    costs = _player_costs(spec, controls, sol.x0, player)
    return float((costs - sol.trajectory.total_costs[player]).min())


def _deviation_feedback(spec, sol, player, samples, magnitude, rng, x0):
    if x0 is None:
        raise InvalidGameError("feedback deviation sampling needs an initial state x0")
    laws = list(sol.laws)
    laws[player] = _law_perturbations(laws[player], samples, magnitude, rng)
    costs = _player_costs(spec, laws, x0, player)
    return float((costs[1:] - costs[0]).min())


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
    if not _solver_row(spec, solution, pattern).stackelberg:
        raise InvalidGameError("leader gap needs a Stackelberg solution")
    _require_samples("samples", samples)
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
    s_t + B_t^0 u_t, so one drift-batched open-loop Nash sweep on the
    followers' blocks of the game's checked view answers all S of them,
    and one walk of its path laws under those drifts plays them.  The
    leader's controls enter it through the drift, so its paths are the
    full game's paths, on which the same view prices the leader alone.
    """
    view = require_valid(spec)
    if spec.n_players < 2:
        raise InvalidGameError("a leader cost needs a leader and at least one follower")
    x0 = initial_state(spec, x0)
    try:
        u = np.atleast_2d(np.asarray(u_leader, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidGameError(f"leader controls are not a numeric array: {exc}") from exc
    shape = (spec.horizon, spec.control_dims[0])
    if u.ndim > 3 or u.shape[-2:] != shape or not u.size:
        raise InvalidGameError(f"leader controls have shape {u.shape}, expected {shape} or "
                               f"(samples, {shape[0]}, {shape[1]}) with at least one sample")
    batch = u if u.ndim == 3 else u[None]
    s = folded_drifts(view, 0, batch)
    if not np.isfinite(s).all():
        raise InvalidGameError("leader controls must be finite and fold into finite drifts")
    followers = view.select(range(1, spec.n_players))
    GT, g = openloop_nash.sweep(followers, s)[4:]
    states, u_f = _walk(followers, x0, GT, g, s, len(s))
    costs = _stage_costs(view, states, np.concatenate([batch, u_f], axis=-1), [0])[:, 0].sum(axis=-1)
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
    played = _leader_played(sol.reactions, _law_perturbations(sol.laws[0], samples, magnitude, rng))
    costs = _player_costs(spec, played, x0, 0)
    return float((costs[1:] - costs[0]).min())


# ---------------------------------------------------------------------------
# Time consistency


@dataclass(frozen=True)
class TimeConsistency:
    """Outcome of the time-consistency check.

    ``verdict`` is the property the solution class is expected to satisfy:
    feedback solutions are strongly time consistent (every stage is an
    equilibrium of its subgame from *any* state), open-loop Nash weakly so
    (every tail from its on-path state), and open-loop Stackelberg only
    with the multiplier state inherited -- ``mu_reset_deviation`` records
    how far a zero-multiplier re-solve drifts (reported, not asserted)."""

    verdict: str                      # "STC" or "WTC"
    tail_deviation: float
    mu_reset_deviation: float | None = None


def time_consistency(spec: GameSpec, solution, pattern: str) -> TimeConsistency:
    """How far the solution is from an equilibrium of every subgame it claims.

    Feedback (STC): the largest stage residual r_t^i of every player's
    cost-to-go over all states, relative to the size of its terms, over
    stages 0..T-1; 0 when every stage is an equilibrium of its subgame from
    every state.  Open-loop Nash (WTC): the largest relative gradient of
    :func:`stationarity`'s costate pass over stages 1..T-1, the tail games'
    gradients from the on-path states.  Open-loop Stackelberg (WTC): the
    largest control gap of the tails from every on-path (x_s, mu_s),
    s >= 1, and of the reset from (x_s, 0), replayed from one re-solve.
    """
    row = _solver_row(spec, solution, pattern)
    if pattern == FEEDBACK:
        view = StageArrays.of(spec)
        res, scale = _feedback_residuals(view, solution, row.stackelberg)
        return TimeConsistency("STC", float(_relative(res, scale, view.blocks).max()))
    if not row.stackelberg:
        view = StageArrays.of(spec)
        x0, G, u = _played(view, solution, OPEN_LOOP, None)
        grad, x = _path_gradients(view, x0, G, u)
        rel = _relative(view.own(grad, lead=1), _costate_scale(view, x, u), view.blocks)
        return TimeConsistency(verdict="WTC", tail_deviation=float(np.max(rel[1:], initial=0.0)))
    gaps = _stackelberg_replays(require_valid(spec), solution) if spec.horizon > 1 else {}
    tail, reset = (float(np.max(gaps.get(name, ()), initial=0.0)) for name in ("tail", "reset"))
    return TimeConsistency(verdict="WTC", tail_deviation=tail, mu_reset_deviation=reset)


def _stackelberg_replays(view: StageArrays, sol) -> dict[str, np.ndarray]:
    """The largest control gap at each stage 1..T-1 of the open-loop
    Stackelberg tails from the inherited multipliers ("tail") and from zero
    ones ("reset"), replayed from one re-solve of the whole game with the
    products of the sweep's own forward pass; the tail from s starts from
    row s-1 of the states."""
    d = sol.K.shape[1]
    Xi, P = openloop_stackelberg.sweep(view, np.hstack([sol.x0, sol.initial_mu.ravel()]))[5:]
    controls = np.concatenate(sol.trajectory.controls, axis=-1)
    x = sol.trajectory.states[1:-1]
    mu = sol.mu[:, 1:-1].swapaxes(0, 1).reshape(len(x), -1)
    gaps = {}
    for name, z in (("tail", np.hstack([x, mu])), ("reset", np.hstack([x, np.zeros_like(mu)]))):
        gaps[name] = np.empty(len(controls) - 1)
        for t in range(1, len(controls)):
            u = np.einsum("ij,lj->li", P[t, :, :d], z[:t]) + P[t, :, d]
            z[:t] = (Xi[t, :, :d] @ z[:t, :, None])[..., 0] + Xi[t, :, d]
            gaps[name][t - 1] = np.abs(u - controls[t]).max()
    return gaps


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

    The entries run player by player, then stage by stage; for open-loop
    Stackelberg, stage by stage, L_x and then each M_x[k].  All monitored
    matrices go through one stacked symmetry test
    (:func:`dyngame.numerics.asymmetry`) and one ``eigvalsh`` of their
    symmetric parts, formed from halves, 0.5 M + 0.5 M', which do not
    overflow for finite entries near the float range.
    """
    if isinstance(solution, OpenLoopStackelbergSolution):
        p, n = solution.spec.state_dim, solution.spec.n_players
        K = solution.K
        mats = K[:, :n * p, :p].reshape(len(K), n, p, p)
        names = ["L_x"] + [f"M_x[{k}]" for k in range(n - 1)]
        where = [(t, name) for t in range(len(K)) for name in names]
        asserted = False
    else:
        if isinstance(solution, ControlSolution):
            mats, names, asserted = solution.Z[None], ["Z"], True
        elif isinstance(solution, FeedbackNashSolution):
            mats = solution.Z
            names, asserted = [f"Z[{i}]" for i in range(len(mats))], True
        elif isinstance(solution, OpenLoopNashSolution):
            mats = solution.M
            names, asserted = [f"M[{i}]" for i in range(len(mats))], len(mats) == 1
        else:
            raise InvalidGameError(f"cannot monitor solution type {type(solution).__name__}")
        where = [(t, name) for name in names for t in range(mats.shape[1])]
    mats = mats.reshape(-1, *mats.shape[-2:])
    symmetric = ~asymmetry(mats, 1e-9)[1]
    eig = np.linalg.eigvalsh(0.5 * mats + 0.5 * mats.swapaxes(1, 2)).min(axis=1)
    return DefinitenessLog(entries=tuple(
        MonitorEntry(stage=t, name=name, min_eigenvalue=float(e), symmetric=bool(sym),
                     asserted=bool(asserted and sym))
        for (t, name), e, sym in zip(where, eig, symmetric)))


# ---------------------------------------------------------------------------
# Assembled report


@dataclass
class VerificationReport:
    solver: str
    pattern: str
    seed: int
    samples: int
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
            "magnitude": self.magnitude,
            "stationarity": {str(k): v for k, v in sorted(self.stationarity.items())},
            "deviation_gaps": {str(k): v for k, v in sorted(self.deviation_gaps.items())},
            "leader_gap": self.leader_gap,
            "time_consistency": None if tc is None else dict(vars(tc)),
            "definiteness": None if dlog is None else {
                "ok": dlog.ok, "entries": [dict(vars(e)) for e in dlog.entries]},
            "failures": list(self.failures),
            "passed": self.passed,
        }


def _failure(value: float, name: str, message: str) -> str:
    """``message`` for a value that failed its gate; for a NaN or infinite
    value, which compares as no number does, the plain fact that ``name``
    is not finite."""
    return message if np.isfinite(value) else f"{name} is not finite"


def run_verification(spec: GameSpec, solution, pattern: str, solver_name: str,
                     x0: np.ndarray | None = None, samples: int = 100, leader_samples: int = 50,
                     magnitude: float = 1e-3, seed: int = 0) -> VerificationReport:
    """Run the full oracle battery on one solution and collect a report.

    Every argument an oracle would refuse is refused before any oracle
    runs, a sample count whose draw numpy cannot shape too; a count it can
    shape but not allocate, such as 10**14, is refused where it is drawn."""
    # Checks draw from seed + i, so a negative seed could pass some of them.
    require_index("seed", seed, np.inf)
    is_stackelberg = _solver_row(spec, solution, pattern).stackelberg
    _require_samples("samples", samples)
    _require_drawable(samples, spec, pattern, range(is_stackelberg, spec.n_players))
    if is_stackelberg:
        _require_samples("leader_samples", leader_samples)
        _require_drawable(leader_samples, spec, pattern, [0])
    _require_positive("magnitude", magnitude)
    report = VerificationReport(solver=solver_name, pattern=pattern, seed=seed,
                                samples=samples, magnitude=magnitude)

    report.stationarity = stationarity(spec, solution, pattern, x0=x0)
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
