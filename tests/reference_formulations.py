"""Alternate formulations kept only to cross-check the library.

Fifteen kinds live here.  The per-sample loop formulations of the sampling
oracles draw their random directions one sample at a time and roll out one
trajectory, or sum one tail of stage costs, per sample or finite-difference
probe, exactly as the library did before its oracles ran over a sample
axis.  Costs come from :func:`dyngame.game.stage_cost`, stage by stage, so
they do not share the batched rollout's vectorised cost pass.  The
open-loop Stackelberg leader's cost folds each leader sequence into the
drift on its own and re-solves the followers' game once per sample or
probe, as the library did before it batched those re-solves over drifts.

The independent solver formulations (criterion 3 of the acceptance suite)
re-derive each equilibrium through another grouping of the same algebra:
feedback Nash by the direct-law recursion, open-loop Nash by the shifted
costate coefficients, single-player control by the pre-multiplied kernel,
and both two-player linear-quadratic Stackelberg solutions by closed
forms.  Each must agree with its library solver to roundoff.

The one-player control sweep is the hand-written n = 1 recursion that
:func:`dyngame.lqr.solve_control` ran before it became the one-player case
of :func:`dyngame.feedback_nash.sweep`: the same algebra on the single
player's blocks, with its own stage system.  Its laws and value
coefficients, on the game and on each tail game, must agree with the
library's to roundoff.

The per-matrix game validation checks every stage and every matrix on its
own, as the library did before it checked stacks; its violations must equal
the library's exactly.

The per-follower open-loop Stackelberg solver is the library's solver as
it was before it moved to the stacked (x, mu) layout: the same backward
induction with every coefficient split into per-follower blocks and
per-follower sums.  Every control, multiplier and costate block of the
library's solution must equal it to roundoff.

The per-player stage formulations are the feedback Nash, feedback
Stackelberg and open-loop Nash solvers as they were before the library
read its games through the stacked stage arrays
(:class:`dyngame.game.StageArrays`): the same recursions, with every
stage system assembled block by block from each player's StageData
entries and every value update summed player by player.  The library's
laws, value coefficients, reactions and open-loop paths must equal them
to roundoff.

The batched finite-difference stationarity is the library's
stationarity check as it was before its exact certificates: central
differences with every probe of one call in one rollout (one drift-batched
re-solve for the open-loop Stackelberg leader).  Acceptance criterion 4a
runs it, and it must agree with the certificates wherever its roundoff,
about eps*|J|/h, is small.

The cost-to-go feedback stationarity is the library's feedback
certificate as it was before it took one costate pass along the played
path: every player's cost-to-go recursion over all states, read along the
path of the laws.  The library's entries must agree with it to roundoff.

The per-tail time-consistency check re-solves each tail game on its own,
with the solver's own entry point on the truncated game, and compares
stages 1..T-1.  The library's open-loop Stackelberg check must equal it
exactly: it re-solves the whole game once and replays that re-solve's
path maps from each tail's start.  For the other solvers the library's
check is a certificate, which must give the same verdict wherever the
re-solve can see a fault, at stages 1..T-1.

The transition residuals check that an open-loop solution's stored path
follows its own affine transition maps, and the self-check identities
(push-through inverses, feedback Stackelberg reaction consistency) test
algebra the solvers rely on; nothing in the library needs them, nor the
definiteness classification and symmetrization they and the per-matrix
validation use.  Nor does it need the central-difference gradient, the
fold of one player's controls into the drift, or the StageData rebuilds
of a game for some of its players, which the loop formulations and their
own tests use; the library selects players on its stage view instead,
and ``reorder_players`` selects them on the game's checked stacks, where
it rebuilt every StageData before.
The drift-batched leader cost on the rebuilt followers' game is the
library's form from before that selection, which the selection must equal
bit for bit.

The open-loop minimum-principle residuals rebuild an open-loop solution's
costates from its own sweep coefficients (M and m for Nash; K, k, N and
nv for Stackelberg) and measure the adjoint, stationarity, multiplier,
cocontrol and state conditions along its path, as the library did beside
:func:`dyngame.verify.stationarity` before that costate pass, which reads
only the game and the controls, became its one first-order certificate.
Acceptance criterion 4b runs them.

The per-matrix definiteness monitor records each monitored matrix with
its own symmetry test and ``eigvalsh`` call, and forms its symmetric part
as 0.5 (M + M'), as the library did before it tested them as one stack
from halves; its log must equal the library's exactly wherever that sum
does not overflow.

The drift-batched open-loop Nash solve is the ``drifts`` option that
``openloop_nash.solve`` had before the library kept drift batching to
:func:`dyngame.openloop_nash.sweep` alone: one sweep over S drift
sequences, its path laws walked from x0 by ``game._walk``, wrapped as one
solution with a sample axis.

The eager stage checks test each stage solve of a sweep when it is made,
through :func:`solve_dense`, and wrap its failure as the sweeps did
before they tested all their solves after the stage loop.  Installed in
place of :class:`dyngame.numerics.Checks`, they must give every solution
bit for bit and every failure word for word.
"""

import contextlib
from dataclasses import dataclass, fields, replace

import numpy as np

from dyngame import (feedback_stackelberg, game, lqr, openloop_nash, openloop_stackelberg,
                     verify)
from dyngame.errors import DynGameError, InvalidGameError, SingularSystemError
from dyngame.feedback_nash import FeedbackNashSolution
from dyngame.feedback_stackelberg import FeedbackStackelbergSolution, ReactionCoefficients
from dyngame.game import (AffineLaw, GameSpec, StageArrays, Trajectory, ValidationReport,
                          Violation, _priced, _walk, folded_drifts, initial_state, require_valid,
                          rollout, stage_cost, truncate)
from dyngame.numerics import SYMMETRY_RTOL, Checks, asymmetry
from dyngame.openloop_nash import OpenLoopNashSolution
from dyngame.openloop_stackelberg import OpenLoopStackelbergSolution
from dyngame.solvers import FEEDBACK, OPEN_LOOP, solver_of
from dyngame.verify import DefinitenessLog, MonitorEntry

from conftest import act


def solve_dense(A, B, context=None):
    """A @ X = B for a square A or a stack of them, tested at once: a
    :class:`dyngame.numerics.Checks` of one call."""
    checks = Checks()
    X = checks.solve(A, B, context)
    checks.check()
    return X


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


def with_drifts(spec: GameSpec, drifts: np.ndarray) -> GameSpec:
    """The game with stage t's drift replaced by ``drifts[t]``."""
    return replace(spec, stages=tuple(replace(st, s=d) for st, d in zip(spec.stages, drifts)))


@dataclass(frozen=True)
class SweptOpenLoopNash(OpenLoopNashSolution):
    """An open-loop Nash solution with the arrays of its sweep that the
    library's solution does not hold: the costate offsets m (n, T+1, p) and
    the transition pair Phi (T, p, p) and phi (T, p), m and phi with a
    leading sample axis where the solution has one."""

    m: np.ndarray
    Phi: np.ndarray
    phi: np.ndarray


def swept(sol: OpenLoopNashSolution) -> SweptOpenLoopNash:
    """A library open-loop Nash solution with m, Phi and phi of the sweep
    that solved it, one :func:`dyngame.openloop_nash.sweep` of its game."""
    view = StageArrays.of(sol.spec)
    _, m, Phi, phi = openloop_nash.sweep(view, view.s[None])[:4]
    return SweptOpenLoopNash(**{f.name: getattr(sol, f.name) for f in fields(sol)},
                             m=m[0], Phi=Phi, phi=phi[0])


def drift_batched_solve(spec: GameSpec, x0: np.ndarray,
                        drifts: np.ndarray) -> SweptOpenLoopNash:
    """The S open-loop Nash equilibria of ``spec`` with its stage drifts
    replaced by each of ``drifts`` (S, T, p) in turn, from one
    :func:`dyngame.openloop_nash.sweep` on the game's checked view, its
    path laws walked from x0 under those drifts by ``game._walk``, as
    ``openloop_nash.solve`` gave them before it lost its ``drifts``
    option: one solution whose drift-dependent fields (the law offsets,
    the trajectory, ``m`` and ``phi``) carry a leading sample axis S."""
    view = require_valid(spec)
    x0 = initial_state(spec, x0)
    s = np.asarray(drifts, dtype=float)
    M, m, Phi, phi, GT, g = openloop_nash.sweep(view, s)
    return SweptOpenLoopNash(spec=spec, x0=x0,
                             trajectory=_priced(view, *_walk(view.A, view.B, x0, GT, g, s, len(s)), True),
                             laws=tuple(AffineLaw(GT[:, :, b].swapaxes(1, 2), g[..., b])
                                        for b in view.blocks),
                             M=M, m=m, Phi=Phi, phi=phi)


def fold_player_controls(spec: GameSpec, player: int, controls: np.ndarray) -> GameSpec:
    """Freeze one player's control sequence into the drift and drop the player.

    The remaining players face the same dynamics with
    ``s_t <- s_t + B_t^player u_t`` and keep their own cost blocks.  Cost
    terms that depend only on the frozen sequence are dropped; they shift
    cost values but not the remaining players' equilibrium controls.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if controls.ndim != 2:
        raise InvalidGameError(f"controls have shape {controls.shape}, expected "
                               f"{(spec.horizon, spec.control_dims[player])}")
    return with_drifts(drop_player(spec, player),
                       folded_drifts(StageArrays.of(spec), player, controls))


def _player_subgame(spec: GameSpec, keep) -> GameSpec:
    """The game restricted to players ``keep``, in that order, every cost
    block kept; stages that share a StageData object share its restriction."""
    def restricted(st):
        return replace(st, B=tuple(st.B[i] for i in keep), Q=tuple(st.Q[i] for i in keep),
                       R=tuple(tuple(st.R[i][j] for j in keep) for i in keep),
                       x_target=tuple(st.x_target[i] for i in keep),
                       u_target=tuple(tuple(st.u_target[i][j] for j in keep) for i in keep))

    built = {key: restricted(st) for key, st in {id(st): st for st in spec.stages}.items()}
    return GameSpec(horizon=spec.horizon, state_dim=spec.state_dim,
                    players=tuple(spec.players[i] for i in keep),
                    stages=tuple(built[id(st)] for st in spec.stages))


def drop_player(spec: GameSpec, player: int) -> GameSpec:
    """The game of every player but one, rebuilt as StageData, its stage
    drifts unchanged: the followers' game of the open-loop leader checks as
    the library built it before it selected players on the stage view."""
    return _player_subgame(spec, [i for i in range(spec.n_players) if i != player])


def single_player_view(spec: GameSpec, player: int) -> GameSpec:
    """The one-player control problem a player faces when all other control
    channels are absent (B^j = 0 is the caller's responsibility to check)."""
    return _player_subgame(spec, [player])


def unit(rng, shape):
    d = rng.standard_normal(shape)
    norm = np.linalg.norm(d)
    return d if norm == 0 else d / norm


def sequence_perturbations(u, samples, magnitude, rng):
    scale = magnitude * max(1.0, np.linalg.norm(u))
    for _ in range(samples):
        yield u + scale * unit(rng, u.shape)


def law_perturbations(law, samples, magnitude, rng):
    """Perturbations of one player's law sequence, one sample at a time."""
    T, m, p = law.G.shape
    scale = magnitude * max(1.0, max(np.abs(G_t).max(initial=0.0) for G_t in law.G))
    for _ in range(samples):
        flat = unit(rng, T * (m * p + m)) * scale
        yield AffineLaw(law.G + flat[:T * m * p].reshape(T, m, p),
                        law.g + flat[T * m * p:].reshape(T, m))


def played_cost(spec, player, t, x, controls_at):
    """Player's cost of stages t..T-1 from pre-decision state x, with every
    player's stage-tau controls given by ``controls_at(tau, x_tau)``."""
    total = 0.0
    for tau in range(t, spec.horizon):
        st = spec.stages[tau]
        us = controls_at(tau, x)
        x_next = st.A @ x + st.s
        for j in range(spec.n_players):
            x_next = x_next + st.B[j] @ us[j]
        total += stage_cost(spec, player, tau, x_next, us)
        x = x_next
    return total


def tail_cost(spec, laws, t, x, player, stage_controls):
    return played_cost(spec, player, t, x, lambda tau, xx: stage_controls if tau == t
                       else [act(law, tau, xx) for law in laws])


def stationarity(spec, sol, h, x0=None):
    stackelberg = solver_of(sol).stackelberg
    if solver_of(sol).pattern == OPEN_LOOP:
        return _stationarity_open_loop(spec, sol, h, stackelberg)
    return _stationarity_feedback(spec, sol, h, np.asarray(x0, dtype=float), stackelberg)


def _stationarity_open_loop(spec, sol, h, stackelberg):
    T, n = spec.horizon, spec.n_players
    controls = [u.copy() for u in sol.trajectory.controls]
    out = {}
    for i in range(n):
        if stackelberg and i == 0:
            def cost(u_flat):
                return leader_cost_open_loop(spec, u_flat.reshape(T, spec.control_dims[0]), sol.x0)
        else:
            def cost(u_flat, i=i):
                us = [controls[j] if j != i else u_flat.reshape(T, spec.control_dims[i])
                      for j in range(n)]
                return rollout(spec, us, sol.x0).total_costs[i]
        grad = central_gradient(cost, controls[i].ravel(), h)
        out[i] = float(np.abs(grad).max(initial=0.0))
    return out


def _stationarity_feedback(spec, sol, h, x0, stackelberg):
    T, n = spec.horizon, spec.n_players
    laws = sol.laws
    states = rollout(spec, laws, x0).states
    out = {i: 0.0 for i in range(n)}
    for t in range(T):
        x = states[t]
        base = [act(laws[j], t, x) for j in range(n)]
        for i in range(n):
            if stackelberg and i == 0:
                def cost(u1, t=t, x=x):
                    us = [np.asarray(u1)] + sol.stage_reaction(t, x, u1)
                    return tail_cost(spec, laws, t, x, 0, us)
            else:
                def cost(ui, t=t, x=x, i=i, base=base):
                    us = [base[j] if j != i else np.asarray(ui) for j in range(n)]
                    return tail_cost(spec, laws, t, x, i, us)
            grad = central_gradient(cost, base[i], h)
            out[i] = max(out[i], float(np.abs(grad).max(initial=0.0)))
    return out


def batched_stationarity(spec, sol, h, x0=None):
    """Per-player max first-order residual by central finite differences,
    every probe of one call in one rollout, as :func:`dyngame.verify.stationarity`
    computed it before its exact certificates: the open-loop Stackelberg
    leader's 2*T*m probes share one drift-batched re-solve of the
    followers' game, and every feedback probe moves one law offset at one
    stage.  Its roundoff is about eps*|J|/h."""
    row = solver_of(sol)
    if row.pattern == OPEN_LOOP:
        return _batched_open_loop(spec, sol, h, row.stackelberg)
    return _batched_feedback(spec, sol, h, np.asarray(x0, dtype=float), row.stackelberg)


def _batched_open_loop(spec, sol, h, stackelberg):
    n = spec.n_players
    controls = list(sol.trajectory.controls)
    x0 = sol.x0
    out = {}
    if stackelberg:
        u = controls[0]
        P = u.size
        batch = np.repeat(u.reshape(1, P), 2 * P, axis=0)
        batch[np.arange(P), np.arange(P)] += h
        batch[np.arange(P) + P, np.arange(P)] -= h
        f = verify.leader_cost_open_loop(spec, batch.reshape(2 * P, *u.shape), x0)
        out[0] = float(np.abs((f[:P] - f[P:]) / (2.0 * h)).max(initial=0.0))
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


def _batched_feedback(spec, sol, h, x0, stackelberg):
    # One +h/-h sample pair per (stage t, player i, control entry k): the
    # stage-t control of player i moves by +-h e_k, every other stage-t
    # control and every later stage follows the laws, and the residual
    # differentiates player i's cost of stages t..T-1.
    T, n, dims = spec.horizon, spec.n_players, spec.control_dims
    probes = np.array([(t, i, k) for t in range(T) for i in range(n) for k in range(dims[i])])
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
        folded = verify._leader_played(sol.reactions, AffineLaw(G[0], g[0]))
        at = ((i_of == 0)[:, None] & (np.arange(T) == t_of[:, None]))[:, :, None]
        for k in range(1, n):
            G[k] = np.where(at[..., None], folded[k].G, G[k])
            g[k] = np.where(at, folded[k].g, g[k])
    costs = rollout(spec, [AffineLaw(Gi, gi) for Gi, gi in zip(G, g)], x0).stage_costs
    tail = np.where(np.arange(T) >= t_of[:, None], costs[np.arange(2 * P), i_of], 0.0)
    f = tail.sum(axis=1)
    grad = np.abs(f[:P] - f[P:]) / (2.0 * h)
    return {i: float(grad[probes[:, 1] == i].max(initial=0.0)) for i in range(n)}


def feedback_stationarity_by_cost_to_go(spec, sol, x0):
    """Per-player largest feedback stage residual along the path of the
    laws from x0, as :func:`dyngame.verify.stationarity` computed it before
    its costate pass along the path: every player's cost-to-go recursion
    P~ on (x, 1) over all states, whose stage residual maps r_t^i are then
    read at the on-path (x_t, 1).

    With the laws (u, 1) = L~ (x, 1), the closed loop F~ and player i's
    maps Du = L~ - [0 | ut^i] and Dx = F~[:p] - [0 | xt^i], P~_T = 0 and
    P~_t = F~'P~_{t+1}F~ + Dx'Q Dx + Du'R Du; the residual maps are the own
    rows of B'(Q Dx + P~_{t+1}[:p]F~) + R Du, the Stackelberg leader's
    through D = [I; rbar_t]."""
    view = StageArrays.of(spec)
    T, p, M = view.B.shape
    n = spec.n_players
    L = np.empty((T, M, p + 1))
    L[..., :p] = np.concatenate([law.G for law in sol.laws], axis=1)
    L[..., p] = np.concatenate([law.g for law in sol.laws], axis=1)
    F = np.zeros((T, p + 1, p + 1))
    F[:, :p, :p], F[:, :p, p] = view.A, view.s
    F[:, :p] += view.B @ L
    F[:, p, p] = 1.0
    Dx = np.repeat(F[:, None, :p], n, axis=1)
    Dx[..., p] -= view.xt
    Du = np.repeat(L[:, None], n, axis=1)
    Du[..., p] -= view.ut
    QDx, RDu = view.Q @ Dx, view.R @ Du
    C = Dx.swapaxes(-1, -2) @ QDx + Du.swapaxes(-1, -2) @ RDu
    P = np.zeros((T + 1, n, p + 1, p + 1))
    for t in range(T - 1, -1, -1):
        P[t] = F[t].T @ P[t + 1] @ F[t] + C[t]
    res = view.B.swapaxes(1, 2)[:, None] @ (QDx + P[1:, :, :p] @ F[:, None]) + RDu
    own = view.own(res, lead=1)
    if solver_of(sol).stackelberg:
        m0 = view.blocks[0].stop
        rbar = np.concatenate(sol.reactions.rbar, axis=1).swapaxes(1, 2)
        own[:, :m0] = res[:, 0, :m0] + rbar @ res[:, 0, m0:]
    x, along = np.append(initial_state(spec, x0), 1.0), np.empty((T, M))
    for t in range(T):
        along[t], x = own[t] @ x, F[t] @ x
    return {i: float(np.abs(along[:, b]).max()) for i, b in enumerate(view.blocks)}


def deviation_gap(spec, sol, player, samples, magnitude, seed, x0=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = np.inf
    if solver_of(sol).pattern == OPEN_LOOP:
        controls = sol.trajectory.controls
        base = sol.trajectory.total_costs[player]
        for dev in sequence_perturbations(controls[player], samples, magnitude, rng):
            us = [controls[j] if j != player else dev for j in range(spec.n_players)]
            worst = min(worst, rollout(spec, us, sol.x0).total_costs[player] - base)
        return float(worst)
    laws = sol.laws
    base = rollout(spec, laws, x0).total_costs[player]
    for dev in law_perturbations(laws[player], samples, magnitude, rng):
        dev_laws = list(laws)
        dev_laws[player] = dev
        worst = min(worst, rollout(spec, dev_laws, x0).total_costs[player] - base)
    return float(worst)


def leader_cost_open_loop(spec, u_leader, x0):
    """Leader's cost for one committed sequence: the sequence folded into
    the drift, the followers' open-loop Nash game re-solved for it alone."""
    reaction = openloop_nash.solve(fold_player_controls(spec, 0, u_leader), x0)
    return float(rollout(spec, [u_leader, *reaction.trajectory.controls], x0).total_costs[0])


def leader_cost_on_rebuilt_game(spec, u_leader, x0):
    """:func:`dyngame.verify.leader_cost_open_loop` as the library formed it
    before it selected the followers on the game's stage view: the
    followers' game rebuilt by :func:`drop_player` and solved, validation
    included, by :func:`drift_batched_solve` with every leader sequence
    folded into the drifts, and the leader priced on a second view of the
    game."""
    u = np.atleast_2d(np.asarray(u_leader, dtype=float))
    batch = u if u.ndim == 3 else u[None]
    view = StageArrays.of(spec)
    path = drift_batched_solve(drop_player(spec, 0), x0, folded_drifts(view, 0, batch)).trajectory
    controls = np.concatenate([batch, *path.controls], axis=-1)
    costs = game._stage_costs(view, path.states, controls)[:, 0].sum(axis=-1)
    return costs if u.ndim == 3 else float(costs[0])


def leader_gap_open_loop(spec, sol, samples, magnitude, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = sol.trajectory.controls[0]
    base = leader_cost_open_loop(spec, u1, sol.x0)
    worst = np.inf
    for dev in sequence_perturbations(u1, samples, magnitude, rng):
        worst = min(worst, leader_cost_open_loop(spec, dev, sol.x0) - base)
    return float(worst)


def leader_cost_feedback(spec, sol, leader_law, x0):
    """Leader's realized cost when it plays ``leader_law`` and followers
    react stagewise through the solution's reaction maps."""
    def controls_at(t, x):
        u1 = act(leader_law, t, x)
        return [u1] + sol.stage_reaction(t, x, u1)
    return played_cost(spec, 0, 0, np.asarray(x0, dtype=float), controls_at)


def leader_gap_feedback(spec, sol, samples, magnitude, seed, x0):
    rng = np.random.Generator(np.random.PCG64(seed))
    base_law = sol.laws[0]
    base = leader_cost_feedback(spec, sol, base_law, x0)
    worst = np.inf
    for dev in law_perturbations(base_law, samples, magnitude, rng):
        worst = min(worst, leader_cost_feedback(spec, sol, dev, x0) - base)
    return float(worst)


# ---------------------------------------------------------------------------
# Per-tail time consistency


def tail_solution(spec, solution, s, reset=False):
    """The tail game of stages s..T-1 solved on its own by the solver that
    produced ``solution``: open loop from the solution's state x_s, and
    for open-loop Stackelberg with the solution's multipliers there, or
    with zero multipliers when ``reset``."""
    row = solver_of(solution)
    tail = truncate(spec, s)
    if row.pattern == FEEDBACK:
        return row.solve(tail, None)
    x = solution.trajectory.states[s]
    if row.stackelberg and not reset:
        return openloop_stackelberg.solve(tail, x, initial_mu=solution.mu[:, s])
    return row.solve(tail, x)


def time_consistency(spec, solution, pattern):
    """The time-consistency check as a loop of separate tail solves.  Every
    gap goes into one ``np.max``, so a NaN gap gives a NaN deviation."""
    row = solver_of(solution)
    starts = range(1, spec.horizon)
    if pattern == FEEDBACK:
        gaps = []
        for s in starts:
            for a, b in zip(tail_solution(spec, solution, s).laws, solution.laws):
                gaps += [np.abs(a.G - b.G[s:]).max(initial=0.0),
                         np.abs(a.g - b.g[s:]).max(initial=0.0)]
        return verify.TimeConsistency(verdict="STC", tail_deviation=float(np.max(gaps, initial=0.0)))

    def worst(reset):
        gaps = []
        for s in starts:
            tail = tail_solution(spec, solution, s, reset)
            gaps += [np.abs(u - v[s:]).max(initial=0.0)
                     for u, v in zip(tail.trajectory.controls, solution.trajectory.controls)]
        return float(np.max(gaps, initial=0.0))

    return verify.TimeConsistency(verdict="WTC", tail_deviation=worst(False),
                                  mu_reset_deviation=worst(True) if row.stackelberg else None)


# ---------------------------------------------------------------------------
# Independent solver formulations


def law_deviation(a, b) -> float:
    """Max entrywise gap between two solutions' laws (gains and offsets)."""
    return float(max(max(np.abs(la.G - lb.G).max(initial=0.0),
                         np.abs(la.g - lb.g).max(initial=0.0))
                     for la, lb in zip(a.laws, b.laws)))


def control_deviation(a, b) -> float:
    """Max entrywise gap between two solutions' control sequences and paths."""
    worst = max(
        np.abs(ua - ub).max(initial=0.0)
        for ua, ub in zip(a.trajectory.controls, b.trajectory.controls)
    )
    return float(max(worst, np.abs(a.trajectory.states - b.trajectory.states).max(initial=0.0)))


def openloop_nash_transition_residual(sol) -> float:
    """Max gap between an open-loop Nash solution's stored states and the
    (Phi, phi) recursion of its sweep."""
    x, sw = sol.trajectory.states, swept(sol)
    worst = 0.0
    for t in range(sol.spec.horizon):
        worst = max(worst, np.abs(x[t + 1] - (sw.Phi[t] @ x[t] + sw.phi[t])).max(initial=0.0))
    return float(worst)


def openloop_stackelberg_transition_residual(sol) -> float:
    """Max gap of an open-loop Stackelberg solution's stored (x, mu) paths
    against the extended-state transitions z_{t+1} = Xi_t z_t + xi_t of its
    sweep, rebuilt from the path laws on the extended system: [Xi | xi] =
    [Az | sz] + Bz [P | alpha]."""
    T = sol.spec.horizon
    GT, g, terms = openloop_stackelberg.sweep(StageArrays.of(sol.spec))[3:]
    Xi = terms.Az + terms.Bz @ GT.swapaxes(1, 2)
    xi = terms.sz + np.einsum("tij,tj->ti", terms.Bz, g)
    z = np.hstack([sol.trajectory.states, sol.mu.transpose(1, 0, 2).reshape(T + 1, -1)])
    worst = 0.0
    for t in range(T):
        worst = max(worst, np.abs(z[t + 1] - (Xi[t] @ z[t] + xi[t])).max(initial=0.0))
    return float(worst)


def openloop_nash_costates(sol: OpenLoopNashSolution) -> np.ndarray:
    """Adjoint sequences p_0^i .. p_T^i reconstructed from the solution's M
    and its sweep's m.

    p_t^i = (M_t^i - W_t^i) x_t* + m_t^i with W_t^i the state weight
    absorbed into M_t^i; p_T^i = 0 exactly.  The backward adjoint
    recursion holds along the trajectory (see :func:`openloop_nash_kkt_residuals`).
    """
    Q = StageArrays.of(sol.spec).Q
    W = np.concatenate([np.zeros_like(Q[:1]), Q]).swapaxes(0, 1)
    return np.einsum("itpq,tq->itp", sol.M - W, sol.trajectory.states) + swept(sol).m


def openloop_nash_kkt_residuals(sol: OpenLoopNashSolution) -> dict[str, float]:
    """Max-norm residuals of the minimum-principle conditions on the path.

    * ``adjoint``:       p_t^i = A_t'[p_{t+1}^i + Q_t^i (x_{t+1}* - xt_i)]
    * ``stationarity``:  R^ii(u_t^i - ut_ii) + B^i'[Q^i(x_{t+1}* - xt_i) + p_{t+1}^i] = 0
    * ``state``:         x_{t+1}* = A x_t* + sum B u + s
    """
    view = StageArrays.of(sol.spec)
    x = sol.trajectory.states
    u = np.concatenate(sol.trajectory.controls, axis=-1)
    pvec = openloop_nash_costates(sol).swapaxes(0, 1)  # (T+1, n, p)
    # Every player's costate p_{t+1} + Q_t (x_{t+1} - xt), (T, n, p).
    lam = pvec[1:] + np.einsum("tipq,tiq->tip", view.Q, x[1:, None] - view.xt)
    rows = view.rows
    grad = (np.einsum("tkl,tl->tk", view.R[:, view.owner, rows], u - view.ut[:, view.owner, rows])
            + np.einsum("tpk,tkp->tk", view.B, lam[:, view.owner]))
    res = {
        "adjoint": pvec[:-1] - np.einsum("tqp,tiq->tip", view.A, lam),
        "stationarity": grad,
        "state": x[1:] - (np.einsum("tpq,tq->tp", view.A, x[:-1]) + view.s
                          + np.einsum("tpk,tk->tp", view.B, u)),
    }
    return {key: float(np.abs(r).max(initial=0.0)) for key, r in res.items()}


def openloop_stackelberg_kkt_residuals(sol: OpenLoopStackelbergSolution) -> dict[str, float]:
    """Max-norm residuals of the leader's minimum-principle system along
    the path: stationarity of both sides, costate and multiplier
    recursions, cocontrol consistency, and the state equation.

    The multipliers are read off the stacked coefficients at the path
    values, the solution's K and its sweep's k, N and nv: costates
    (K_t - W_t) z_t + k_t, so lambda_T and p_T^i vanish exactly, and
    cocontrols v_t = N_t (x_{t+1}, mu_t) + nv_t.
    """
    view = StageArrays.of(sol.spec)
    T, p, n = sol.spec.horizon, sol.spec.state_dim, sol.spec.n_players
    f = slice(view.blocks[0].stop, None)
    rows = view.rows
    x = sol.trajectory.states
    u = np.concatenate(sol.trajectory.controls, axis=-1)
    mu = sol.mu.swapaxes(0, 1)  # (T+1, n-1, p)
    z = np.hstack([x, mu.reshape(T + 1, -1)])
    W = np.zeros_like(sol.K)
    W[1:, :, :p] = view.Q.reshape(T, n * p, p)
    k, N = openloop_stackelberg.sweep(view)[1:3]
    costates = (np.einsum("tij,tj->ti", sol.K - W, z) + k).reshape(T + 1, n, p)
    v = np.einsum("tij,tj->ti", N[..., :-1], np.hstack([x[1:], z[:T, p:]])) + N[..., -1]

    # Every player's p_{t+1} + Q_t (x_{t+1} - xt), the multipliers as their
    # recursion carries them, and the leader's costate with every
    # follower's multiplier weighted in.
    lam = costates[1:] + np.einsum("tipq,tiq->tip", view.Q, x[1:, None] - view.xt)
    mu_next = (np.einsum("tpq,tlq->tlp", view.A, mu[:-1])
               + np.einsum("tpk,tk,kl->tlp", view.B[:, :, f], v, np.eye(n - 1)[view.owner[f] - 1]))
    c0 = lam[:, 0] + np.einsum("tlpq,tlq->tp", view.Q[:, 1:], mu_next)
    R_own = view.R[:, view.owner, rows]
    # Leader stationarity in its own controls, cocontrol consistency in
    # the followers'.
    leader = (np.einsum("tpk,tp->tk", view.B, c0)
              + np.einsum("tkl,tl->tk", view.R[:, 0], u - view.ut[:, 0]))
    leader[:, f] += np.einsum("tkl,tl->tk", R_own[:, f, f], v)
    follower = (np.einsum("tkl,tl->tk", R_own[:, f, f], u[:, f] - view.ut[:, view.owner, rows][:, f])
                + np.einsum("tpk,tkp->tk", view.B[:, :, f], lam[:, view.owner[f]]))
    res = {
        "leader_stationarity": leader[:, :f.start],
        "cocontrol": leader[:, f],
        "leader_costate": np.vstack([costates[:T, 0] - np.einsum("tqp,tq->tp", view.A, c0),
                                     costates[T:, 0]]),
        "multiplier": mu[1:] - mu_next,
        "follower_stationarity": follower,
        "follower_costate": np.concatenate([
            costates[:T, 1:] - np.einsum("tqp,tlq->tlp", view.A, lam[:, 1:]), costates[T:, 1:]]),
        "state": x[1:] - (np.einsum("tpq,tq->tp", view.A, x[:-1]) + view.s
                          + np.einsum("tpk,tk->tp", view.B, u)),
    }
    return {key: float(np.abs(r).max(initial=0.0)) for key, r in res.items()}


def feedback_nash_solve_alt(spec) -> FeedbackNashSolution:
    """Feedback Nash through the direct-law formulation.

    Solves for the laws u = G x + g directly (no sign flip), propagating
    H (= Z) and the shifted linear coefficient h instead of zeta.  A pure
    renaming of :func:`dyngame.feedback_nash.solve` algebraically, written
    as an independent code path so the two can be compared.
    """
    require_valid(spec)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    dims = spec.control_dims

    H = np.empty((n, T + 1, p, p))
    h = np.zeros((n, T + 1, p))
    for i in range(n):
        H[i, T] = spec.stages[T - 1].Q[i]
        h[i, T] = spec.stages[T - 1].Q[i] @ spec.stages[T - 1].x_target[i]

    # Value constants are not part of the rewrite; rebuilt with the shared
    # closed-loop update so the returned object still evaluates values.
    Z = np.empty((n, T + 1, p, p))
    zeta = np.zeros((n, T + 1, p))
    n_const = np.zeros((n, T + 1))
    for i in range(n):
        Z[i, T] = spec.stages[T - 1].Q[i]

    all_players = list(range(n))
    G_seq = [np.empty((T, m, p)) for m in dims]
    g_seq = [np.empty((T, m)) for m in dims]

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        H_next = [H[i, t + 1] for i in range(n)]
        C = stacked_stage_operator(st.B, H_next, st.R, all_players)
        rhs_G = np.vstack([-(st.B[i].T @ H_next[i] @ st.A) for i in range(n)])
        v = [st.B[i].T @ (H_next[i] @ st.s - h[i, t + 1]) - st.R[i][i] @ st.u_target[i][i]
             for i in range(n)]
        rhs_g = np.concatenate([-v[i] for i in range(n)])
        sol = solve_dense(C, np.hstack([rhs_G, rhs_g[:, None]]),
                          context=f"stage {t} direct-law system")
        blocks = _split(sol, dims)
        G = [blk[:, :p] for blk in blocks]
        g = [blk[:, p] for blk in blocks]
        for i in range(n):
            G_seq[i][t], g_seq[i][t] = G[i], g[i]

        K = st.A + sum(st.B[j] @ G[j] for j in range(n))
        k_vec = st.s + sum(st.B[j] @ g[j] for j in range(n))
        for i in range(n):
            Ht = (K.T @ H_next[i] @ K
                  + sum(G[j].T @ st.R[i][j] @ G[j] for j in range(n))
                  + spec.prev_state_weight(t, i))
            H[i, t] = 0.5 * (Ht + Ht.T)
            prev_xt = (spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p))
            h[i, t] = (spec.prev_state_weight(t, i) @ prev_xt
                       - K.T @ (H_next[i] @ k_vec - h[i, t + 1])
                       + sum(G[j].T @ st.R[i][j] @ (st.u_target[i][j] - g[j])
                             for j in range(n)))

        _update_quadratics(spec, t, [-Gi for Gi in G], [-gi for gi in g], Z, zeta, n_const)

    return FeedbackNashSolution(spec=spec, laws=tuple(map(AffineLaw, G_seq, g_seq)),
                                Z=Z, zeta=zeta, n_const=n_const)


def openloop_nash_solve_alt(spec, x0) -> SweptOpenLoopNash:
    """Open-loop Nash via the shifted costate coefficients (H, h).

    Rewrites m^i as h^i + Q^i xt_i and expresses the controls directly
    through the *next* state, u_t^i = ut_ii - (R^ii)^{-1} B^i'(H_{t+1}^i
    x_{t+1}* + h_{t+1}^i).  Must agree with
    :func:`dyngame.openloop_nash.solve` to ~1e-10.
    """
    require_valid(spec)
    x0 = np.asarray(x0, dtype=float)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players

    H = np.empty((n, T + 1, p, p))
    h = np.zeros((n, T + 1, p))
    for i in range(n):
        Qterm = spec.stages[T - 1].Q[i]
        H[i, T] = Qterm
        h[i, T] = -Qterm @ spec.stages[T - 1].x_target[i]
    Lam = np.empty((T, p, p))
    eta = np.empty((T, p))

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        L = np.eye(p)
        e = st.s.copy()
        for j in range(n):
            RinvBt = solve_dense(st.R[j][j], st.B[j].T, context=f"stage {t} control weight")
            L = L + st.B[j] @ RinvBt @ H[j, t + 1]
            e = e + st.B[j] @ (st.u_target[j][j] - RinvBt @ h[j, t + 1])
        Lam[t] = L
        eta[t] = e
        core = solve_dense(L, np.hstack([st.A, e[:, None]]),
                           context=f"stage {t} rewritten transition operator")
        for i in range(n):
            H[i, t] = spec.prev_state_weight(t, i) + st.A.T @ H[i, t + 1] @ core[:, :p]
            prev_xt = spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p)
            h[i, t] = (-spec.prev_state_weight(t, i) @ prev_xt
                       + st.A.T @ (H[i, t + 1] @ core[:, p] + h[i, t + 1]))

    controls = [np.empty((T, mm)) for mm in spec.control_dims]
    G = [np.empty((T, mm, p)) for mm in spec.control_dims]
    g = [np.empty((T, mm)) for mm in spec.control_dims]
    x = x0.copy()
    for t in range(T):
        st = spec.stages[t]
        packed = solve_dense(Lam[t], np.hstack([st.A, eta[t][:, None]]),
                             context=f"stage {t} state update")
        Phi_t, phi_t = packed[:, :p], packed[:, p]
        x_next = Phi_t @ x + phi_t
        for i in range(n):
            RinvBt = solve_dense(st.R[i][i], st.B[i].T, context=f"stage {t} control weight")
            controls[i][t] = st.u_target[i][i] - RinvBt @ (H[i, t + 1] @ x_next + h[i, t + 1])
            # Path-law form for parity with the library solver.
            G[i][t] = -RinvBt @ H[i, t + 1] @ Phi_t
            g[i][t] = st.u_target[i][i] - RinvBt @ (H[i, t + 1] @ phi_t + h[i, t + 1])
        x = x_next

    traj = rollout(spec, controls, x0)
    # Convert (H, h) back to (M, m) so the returned object is uniform.
    M = H.copy()
    m = np.zeros((n, T + 1, p))
    for i in range(n):
        for t in range(T + 1):
            if t == T:
                xt = spec.stages[T - 1].x_target[i]
                m[i, t] = h[i, t] + spec.stages[T - 1].Q[i] @ xt
            else:
                prev_xt = spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p)
                m[i, t] = h[i, t] + spec.prev_state_weight(t, i) @ prev_xt
    Phi = np.empty((T, p, p))
    phi = np.empty((T, p))
    for t in range(T):
        st = spec.stages[t]
        Phi[t] = solve_dense(Lam[t], st.A, context=f"stage {t} state update")
        phi[t] = solve_dense(Lam[t], eta[t], context=f"stage {t} state update")
    return SweptOpenLoopNash(spec=spec, x0=x0, trajectory=traj,
                             laws=tuple(map(AffineLaw, G, g)), M=M, m=m, Phi=Phi, phi=phi)


def lqr_crosscheck_premultiplied(spec) -> float:
    """Max deviation between :func:`dyngame.lqr.solve_control` and the
    pre-multiplied rewrite.

    The rewrite factors the gain as (R + B'SB)^{-1} B' applied to S A and
    to (S s + sigma); it is the same algebra in a different grouping and a
    regression guard for the value-recursion constants.  Expected ~1e-12.
    """
    main = lqr.solve_control(spec)
    law = main.laws[0]
    T, p = spec.horizon, spec.state_dim

    S = np.empty((T + 1, p, p))
    sigma = np.zeros((T + 1, p))
    q_const = np.zeros(T + 1)
    S[T] = spec.stages[T - 1].Q[0]

    worst = 0.0
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B, s, R = st.A, st.B[0], st.s, st.R[0][0]
        # Pre-multiplied kernel: K = (R + B'SB)^{-1} B'
        K = solve_dense(R + B.T @ S[t + 1] @ B, B.T, context=f"stage {t} rewrite kernel")
        P = K @ S[t + 1] @ A
        alpha = K @ (S[t + 1] @ s + sigma[t + 1])

        G_dev = np.abs((-P) - law.G[t]).max(initial=0.0)
        g_dev = np.abs((-alpha) - law.g[t]).max(initial=0.0)
        worst = max(worst, G_dev, g_dev)

        F = A - B @ P
        d = s - B @ alpha
        St = F.T @ S[t + 1] @ F + P.T @ R @ P + spec.prev_state_weight(t, 0)
        S[t] = 0.5 * (St + St.T)
        sigma[t] = F.T @ (sigma[t + 1] + S[t + 1] @ d) + P.T @ R @ alpha
        q_const[t] = (q_const[t + 1] + 0.5 * d @ S[t + 1] @ d
                      + sigma[t + 1] @ d + 0.5 * alpha @ R @ alpha)

    worst = max(worst, np.abs(S[0] - main.Z[0]).max(initial=0.0),
                np.abs(sigma[0] - main.zeta[0]).max(initial=0.0),
                abs(q_const[0] - main.n_const[0]))
    return float(worst)


def lqr_sweep(view: StageArrays):
    """The backward recursion of a validated one-player view with zero
    targets, written out for one player: the law G (T, m, p) and g (T, m)
    and the coefficients Z (T+1, p, p), zeta (T+1, p) and n (T+1)."""
    T, p, m = view.B.shape
    Z = np.empty((T + 1, p, p))
    zeta = np.zeros((T + 1, p))
    n_const = np.zeros(T + 1)
    Z[T] = view.Q[T - 1, 0]
    G = np.zeros((T, m, p))
    g = np.zeros((T, m))

    for t in range(T - 1, -1, -1):
        A, B, s, R = view.A[t], view.B[t], view.s[t], view.R[t, 0]
        Zn, zn = Z[t + 1], zeta[t + 1]
        H = R + B.T @ Zn @ B                      # stage Hessian, PD
        rhs = np.concatenate([B.T @ Zn @ A, (B.T @ (Zn @ s + zn))[:, None]], axis=1)
        packed = solve_dense(H, rhs, context=f"stage {t} control gain/offset system")
        P, alpha = packed[:, :p], packed[:, p]
        G[t], g[t] = -P, -alpha

        F = A - B @ P
        d = s - B @ alpha
        Zt = F.T @ Zn @ F + P.T @ R @ P
        if t:  # absorbs the stage t-1 weight, none on the initial state
            Zt += view.Q[t - 1, 0]
        Z[t] = 0.5 * (Zt + Zt.T)
        zeta[t] = F.T @ (zn + Zn @ d) + P.T @ R @ alpha
        n_const[t] = n_const[t + 1] + 0.5 * d @ Zn @ d + zn @ d + 0.5 * alpha @ R @ alpha
    return G, g, Z, zeta, n_const


def require_two_player_lq(spec) -> None:
    """Refuse games outside the closed forms: two players, zero drift and
    targets, identity own-control weights."""
    if spec.n_players != 2:
        raise InvalidGameError("cross-check requires exactly two players")
    for t, st in enumerate(spec.stages):
        if np.any(st.s):
            raise InvalidGameError(f"stage {t}: cross-check requires zero drift")
        for i in range(2):
            if np.any(st.x_target[i]) or any(np.any(u) for u in st.u_target[i]):
                raise InvalidGameError(f"stage {t}: cross-check requires zero targets")
            if not np.allclose(st.R[i][i], np.eye(spec.control_dims[i]), atol=1e-12):
                raise InvalidGameError(
                    f"stage {t}: cross-check requires identity own-control weights"
                )


def feedback_stackelberg_crosscheck_two_player_lq(spec) -> float:
    """Two-player linear-quadratic cross-check via push-through closed forms.

    With n = 2, zero drift and targets, and identity own-control weights,
    the leader gain is expressible in closed form with the push-through
    inverse identities (no reaction coefficients appear); returns the max
    gain deviation from :func:`dyngame.feedback_stackelberg.solve`.  This
    guards the exact closed-form expression, which is easy to get wrong.
    """
    require_two_player_lq(spec)
    main = feedback_stackelberg.solve(spec)
    T, p = spec.horizon, spec.state_dim

    n = 2
    L = np.empty((n, T + 1, p, p))
    for i in range(n):
        L[i, T] = spec.stages[T - 1].Q[i]

    worst = 0.0
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B1, B2 = st.A, st.B[0], st.B[1]
        R12 = st.R[0][1]
        L1, L2 = L[0, t + 1], L[1, t + 1]
        m2 = B2.shape[1]

        # Push-through forms: with E = (I + B2 B2' L2)^{-1},
        # B1 + B2 rbar = E B1 and A + B2 W = E A.
        E = np.linalg.inv(np.eye(p) + B2 @ B2.T @ L2)
        core = np.linalg.inv(np.eye(m2) + B2.T @ L2 @ B2)
        cross = L2 @ B2 @ core @ R12 @ core @ B2.T @ L2
        S1 = np.linalg.solve(
            B1.T @ E.T @ L1 @ E @ B1 + B1.T @ cross @ B1 + np.eye(B1.shape[1]),
            B1.T @ (E.T @ L1 @ E + cross) @ A,
        )
        S2 = np.linalg.solve(np.eye(m2) + B2.T @ L2 @ B2,
                             B2.T @ L2 @ (A - B1 @ S1))

        # S^i is the recursion's P^i = -G^i.
        worst = max(worst,
                    np.abs(S1 + main.laws[0].G[t]).max(initial=0.0),
                    np.abs(S2 + main.laws[1].G[t]).max(initial=0.0))

        F = A - B1 @ S1 - B2 @ S2
        for i, (Si, Sj, Rij) in enumerate(((S1, S2, st.R[0][1]), (S2, S1, st.R[1][0]))):
            Lt = (F.T @ L[i, t + 1] @ F + Si.T @ Si + Sj.T @ Rij @ Sj
                  + spec.prev_state_weight(t, i))
            L[i, t] = 0.5 * (Lt + Lt.T)
    return float(worst)


def openloop_stackelberg_crosscheck_two_player_lq(spec, x0) -> float:
    """Two-player linear-quadratic open-loop Stackelberg cross-check with
    identity own weights.

    With one follower the stacked cocontrol system collapses to inverting
    B2'(Q2 + Lmu)B2 + I - R12 B2' Mmu B2, and every coefficient map has a
    closed scalar-block form.  Runs the whole specialized recursion and
    forward pass independently; returns the max control/state deviation
    from :func:`dyngame.openloop_stackelberg.solve`.
    """
    require_two_player_lq(spec)
    main = openloop_stackelberg.solve(spec, x0)
    T, p = spec.horizon, spec.state_dim
    m2 = spec.control_dims[1]

    MxS = spec.stages[T - 1].Q[1].copy()
    MmuS = np.zeros((p, p))
    LxS = spec.stages[T - 1].Q[0].copy()
    LmuS = np.zeros((p, p))

    seq = []
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B1, B2, R12, Q1, Q2 = st.A, st.B[0], st.B[1], st.R[0][1], st.Q[0], st.Q[1]
        core = B2.T @ (Q2 + LmuS) @ B2 + np.eye(m2) - R12 @ B2.T @ MmuS @ B2
        Nx = -np.linalg.solve(core, B2.T @ LxS - R12 @ B2.T @ MxS)
        Nmu = -np.linalg.solve(core, (B2.T @ (Q2 + LmuS) - R12 @ B2.T @ MmuS) @ A)
        Tx = -B2.T @ (MxS + MmuS @ B2 @ Nx)
        Tmu = -B2.T @ MmuS @ (A + B2 @ Nmu)
        Wx = -B1.T @ (LxS + (LmuS + Q2) @ B2 @ Nx)
        Wmu = -B1.T @ ((LmuS + Q2) @ A + (LmuS + Q2) @ B2 @ Nmu)
        E = np.eye(p) - B1 @ Wx - B2 @ Tx
        Phix = np.linalg.solve(E, A)
        Phimu = np.linalg.solve(E, B1 @ Wmu + B2 @ Tmu)
        Psix = B2 @ Nx @ Phix
        Psimu = A + B2 @ (Nx @ Phimu + Nmu)

        seq.append({
            "P1x": Wx @ Phix, "P1mu": Wx @ Phimu + Wmu,
            "P2x": Tx @ Phix, "P2mu": Tx @ Phimu + Tmu,
            "Phix": Phix, "Phimu": Phimu, "Psix": Psix, "Psimu": Psimu,
        })

        Mx_new = spec.prev_state_weight(t, 1) + A.T @ (MxS @ Phix + MmuS @ Psix)
        Mmu_new = A.T @ (MxS @ Phimu + MmuS @ Psimu)
        Lx_new = spec.prev_state_weight(t, 0) + A.T @ (LxS @ Phix + LmuS @ Psix
                                                       + Q2 @ B2 @ Nx @ Phix)
        Lmu_new = A.T @ (LxS @ Phimu + LmuS @ Psimu + Q2 @ A
                         + Q2 @ B2 @ (Nx @ Phimu + Nmu))
        MxS, MmuS, LxS, LmuS = Mx_new, Mmu_new, Lx_new, Lmu_new

    seq.reverse()
    x = np.asarray(x0, dtype=float).copy()
    mu = np.zeros(p)
    worst = 0.0
    for t in range(T):
        c = seq[t]
        u1 = c["P1x"] @ x + c["P1mu"] @ mu
        u2 = c["P2x"] @ x + c["P2mu"] @ mu
        worst = max(worst,
                    np.abs(u1 - main.trajectory.controls[0][t]).max(initial=0.0),
                    np.abs(u2 - main.trajectory.controls[1][t]).max(initial=0.0))
        x, mu = c["Phix"] @ x + c["Phimu"] @ mu, c["Psix"] @ x + c["Psimu"] @ mu
        worst = max(worst, np.abs(x - main.trajectory.states[t + 1]).max(initial=0.0))
    return float(worst)


# ---------------------------------------------------------------------------
# Per-follower open-loop Stackelberg solver


@dataclass(frozen=True)
class StageMaps:
    """Per-stage coefficient maps of the backward pass (followers indexed
    0..n-2 for players 1..n-1).

    N: cocontrol maps (on x_{t+1} and mu_t); T/W: follower/leader control
    maps (on x_{t+1} and mu_t); Phi/phi: state transition (on x_t, mu_t);
    Psi/psi: multiplier transition; P/alpha: path gains (on x_t, mu_t).
    """

    Nx: tuple[np.ndarray, ...]
    Nmu: tuple[tuple[np.ndarray, ...], ...]
    nv: tuple[np.ndarray, ...]
    Tx: tuple[np.ndarray, ...]
    Tmu: tuple[tuple[np.ndarray, ...], ...]
    tv: tuple[np.ndarray, ...]
    Wx: np.ndarray
    Wmu: tuple[np.ndarray, ...]
    wv: np.ndarray
    Phix: np.ndarray
    Phimu: tuple[np.ndarray, ...]
    phiv: np.ndarray
    Psix: tuple[np.ndarray, ...]
    Psimu: tuple[tuple[np.ndarray, ...], ...]
    psiv: tuple[np.ndarray, ...]
    P1x: np.ndarray
    P1mu: tuple[np.ndarray, ...]
    alpha1: np.ndarray
    Pix: tuple[np.ndarray, ...]
    Pimu: tuple[tuple[np.ndarray, ...], ...]
    alphai: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PerFollowerStackelbergSolution:
    spec: GameSpec
    x0: np.ndarray
    initial_mu: np.ndarray          # (n-1, p), zeros for a fresh solve
    trajectory: Trajectory
    # Per player path laws, G (T, m_i, p), g (T, m_i): G is the path gain
    # on x_t and g folds in the multiplier terms at their path values, so
    # the laws reproduce the equilibrium controls along the equilibrium
    # path only.
    laws: tuple[AffineLaw, ...]
    mu: np.ndarray                  # (n-1, T+1, p) multiplier paths
    Mx: np.ndarray                  # (n-1, T+1, p, p)
    Mmu: np.ndarray                 # (n-1, n-1, T+1, p, p)
    mv: np.ndarray                  # (n-1, T+1, p)
    Lx: np.ndarray                  # (T+1, p, p)
    Lmu: np.ndarray                 # (n-1, T+1, p, p)
    lv: np.ndarray                  # (T+1, p)
    stages: tuple[StageMaps, ...]


def openloop_stackelberg_per_follower(spec: GameSpec, x0: np.ndarray,
                                      initial_mu: np.ndarray | None = None) -> PerFollowerStackelbergSolution:
    """Open-loop Stackelberg equilibrium with player 0 as leader.

    ``initial_mu`` sets the followers' adjoined multipliers at stage 0;
    zero is the equilibrium condition for a whole game, while a tail
    re-solve inherits the multipliers reached at the truncation stage.
    """
    require_valid(spec)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")
    x0 = initial_state(spec, x0)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    nf = n - 1
    followers = list(range(1, n))

    Mx = np.empty((nf, T + 1, p, p))
    Mmu = np.zeros((nf, nf, T + 1, p, p))
    mv = np.zeros((nf, T + 1, p))
    Lx = np.empty((T + 1, p, p))
    Lmu = np.zeros((nf, T + 1, p, p))
    lv = np.zeros((T + 1, p))
    for k, i in enumerate(followers):
        Mx[k, T] = spec.stages[T - 1].Q[i]
    Lx[T] = spec.stages[T - 1].Q[0]

    maps: list[StageMaps] = [None] * T
    for t in range(T - 1, -1, -1):
        maps[t] = _backward_stage(spec, t, Mx, Mmu, mv, Lx, Lmu, lv)

    if initial_mu is None:
        mu0 = np.zeros((nf, p))
    else:
        mu0 = np.atleast_2d(np.asarray(initial_mu, dtype=float))
        if mu0.shape != (nf, p):
            raise InvalidGameError(
                f"initial_mu has shape {mu0.shape}, expected {(nf, p)}"
            )

    # Forward pass over the extended state (x, mu^1..mu^nf); the path laws
    # take the multiplier terms at their path values.
    G = [np.empty((T, m, p)) for m in spec.control_dims]
    g = [np.empty((T, m)) for m in spec.control_dims]
    controls = [np.empty((T, m)) for m in spec.control_dims]
    mu = np.empty((nf, T + 1, p))
    mu[:, 0] = mu0
    x = x0.copy()
    for t in range(T):
        sm = maps[t]
        mu_t = mu[:, t]
        path_gains = [(sm.P1x, sm.alpha1, sm.P1mu)] + list(zip(sm.Pix, sm.alphai, sm.Pimu))
        for i, (Px, alpha, Pmu) in enumerate(path_gains):
            mu_terms = sum(Pmu[j] @ mu_t[j] for j in range(nf))
            G[i][t], g[i][t] = Px, alpha + mu_terms
            controls[i][t] = Px @ x + alpha + mu_terms
        x_next = sm.Phix @ x + sm.phiv + sum(sm.Phimu[j] @ mu_t[j] for j in range(nf))
        for k in range(nf):
            mu[k, t + 1] = (sm.Psix[k] @ x + sm.psiv[k]
                            + sum(sm.Psimu[k][j] @ mu_t[j] for j in range(nf)))
        x = x_next

    traj = rollout(spec, controls, x0)
    return PerFollowerStackelbergSolution(
        spec=spec, x0=x0, initial_mu=mu0, trajectory=traj,
        laws=tuple(map(AffineLaw, G, g)), mu=mu,
        Mx=Mx, Mmu=Mmu, mv=mv, Lx=Lx, Lmu=Lmu, lv=lv, stages=tuple(maps),
    )


def _backward_stage(spec, t, Mx, Mmu, mv, Lx, Lmu, lv) -> StageMaps:
    """One backward step: cocontrol systems, control maps, transitions,
    then the costate coefficient updates (written into the arrays)."""
    st = spec.stages[t]
    p = spec.state_dim
    n = spec.n_players
    nf = n - 1
    followers = list(range(1, n))
    fdims = [spec.control_dims[i] for i in followers]
    A, s = st.A, st.s

    nxt = t + 1
    # Per follower i: K_i = R^{leader,i} (R^ii)^{-1} B^i', the weight the
    # leader's cost places on follower i's stationarity direction.
    K = []
    RinvBt = []
    for k, i in enumerate(followers):
        rb = solve_dense(st.R[i][i], st.B[i].T, context=f"stage {t} follower weight")
        RinvBt.append(rb)
        K.append(st.R[0][i] @ rb)

    # Stacked cocontrol operator; one factorization, 2 + nf right-hand families.
    C_rows = []
    for k, i in enumerate(followers):
        row = []
        for l, j in enumerate(followers):
            blk = (st.B[i].T @ (st.Q[j] + Lmu[l, nxt]) @ st.B[j]
                   - K[k] @ Mmu[k, l, nxt] @ st.B[j])
            if k == l:
                blk = blk + st.R[i][i]
            row.append(blk)
        C_rows.append(np.hstack(row))
    C = np.vstack(C_rows)

    rhs_x = np.vstack([K[k] @ Mx[k, nxt] - st.B[i].T @ Lx[nxt]
                       for k, i in enumerate(followers)])
    rhs_mu = [
        np.vstack([
            (K[k] @ Mmu[k, m, nxt] - st.B[i].T @ Lmu[m, nxt] - st.B[i].T @ st.Q[followers[m]]) @ A
            for k, i in enumerate(followers)
        ])
        for m in range(nf)
    ]
    rhs_c = np.concatenate([
        st.B[i].T @ (st.Q[0] @ st.x_target[0] - lv[nxt])
        - st.R[0][i] @ (-RinvBt[k] @ (mv[k, nxt] - st.Q[i] @ st.x_target[i])
                        + st.u_target[i][i] - st.u_target[0][i])
        for k, i in enumerate(followers)
    ])
    try:
        packed = solve_dense(C, np.hstack([rhs_x] + rhs_mu + [rhs_c[:, None]]),
                             context=f"stage {t} stacked cocontrol system")
    except SingularSystemError as exc:
        raise SingularSystemError(
            "the stacked cocontrol coefficient systems admit no unique solution "
            f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
        ) from exc
    blocks = np.split(packed, np.cumsum(fdims[:-1]), axis=0)
    Nx = [blk[:, :p] for blk in blocks]
    Nmu = [[blk[:, p * (1 + m):p * (2 + m)] for m in range(nf)] for blk in blocks]
    nv = [blk[:, p * (1 + nf)] for blk in blocks]

    # Follower control maps (on x_{t+1} and mu_t).
    Tx, Tmu, tv = [], [], []
    for k, i in enumerate(followers):
        Tx.append(-RinvBt[k] @ (Mx[k, nxt]
                                + sum(Mmu[k, l, nxt] @ st.B[j] @ Nx[l]
                                      for l, j in enumerate(followers))))
        Tmu.append([
            -RinvBt[k] @ (Mmu[k, m, nxt] @ A
                          + sum(Mmu[k, l, nxt] @ st.B[j] @ Nmu[l][m]
                                for l, j in enumerate(followers)))
            for m in range(nf)
        ])
        tv.append(-RinvBt[k] @ (sum(Mmu[k, l, nxt] @ st.B[j] @ nv[l]
                                    for l, j in enumerate(followers))
                                + mv[k, nxt] - st.Q[i] @ st.x_target[i])
                  + st.u_target[i][i])

    # Leader control map.
    Rl_invBt = solve_dense(st.R[0][0], st.B[0].T, context=f"stage {t} leader weight")
    Wx = -Rl_invBt @ (Lx[nxt] + sum((Lmu[l, nxt] + st.Q[j]) @ st.B[j] @ Nx[l]
                                    for l, j in enumerate(followers)))
    Wmu = [
        -Rl_invBt @ ((Lmu[m, nxt] + st.Q[followers[m]]) @ A
                     + sum((Lmu[l, nxt] + st.Q[j]) @ st.B[j] @ Nmu[l][m]
                           for l, j in enumerate(followers)))
        for m in range(nf)
    ]
    wv = (-Rl_invBt @ (lv[nxt] - st.Q[0] @ st.x_target[0]
                       + sum((Lmu[l, nxt] + st.Q[j]) @ st.B[j] @ nv[l]
                             for l, j in enumerate(followers)))
          + st.u_target[0][0])

    # State transition: make x_{t+1} explicit in the control maps.
    E = np.eye(p) - st.B[0] @ Wx - sum(st.B[j] @ Tx[l] for l, j in enumerate(followers))
    rhs_phi_mu = [st.B[0] @ Wmu[m] + sum(st.B[j] @ Tmu[l][m] for l, j in enumerate(followers))
                  for m in range(nf)]
    rhs_phi_c = st.B[0] @ wv + sum(st.B[j] @ tv[l] for l, j in enumerate(followers)) + s
    try:
        packed = solve_dense(E, np.hstack([A] + rhs_phi_mu + [rhs_phi_c[:, None]]),
                             context=f"stage {t} state transition operator")
    except SingularSystemError as exc:
        raise SingularSystemError(
            "the state transition operator I - B^0 W^x - sum_j B^j T^jx is singular "
            f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
        ) from exc
    Phix = packed[:, :p]
    Phimu = [packed[:, p * (1 + m):p * (2 + m)] for m in range(nf)]
    phiv = packed[:, p * (1 + nf)]

    # Multiplier transition.
    Psix, Psimu, psiv = [], [], []
    for k, i in enumerate(followers):
        Psix.append(st.B[i] @ Nx[k] @ Phix)
        row = []
        for m in range(nf):
            blk = st.B[i] @ (Nx[k] @ Phimu[m] + Nmu[k][m])
            if m == k:
                blk = blk + A
            row.append(blk)
        Psimu.append(row)
        psiv.append(st.B[i] @ (Nx[k] @ phiv + nv[k]))

    # Costate coefficient updates.
    for k, i in enumerate(followers):
        Mx[k, t] = (spec.prev_state_weight(t, i)
                    + A.T @ (Mx[k, nxt] @ Phix
                             + sum(Mmu[k, l, nxt] @ Psix[l] for l in range(nf))))
        for m in range(nf):
            Mmu[k, m, t] = A.T @ (Mx[k, nxt] @ Phimu[m]
                                  + sum(Mmu[k, l, nxt] @ Psimu[l][m] for l in range(nf)))
        mv[k, t] = A.T @ (Mx[k, nxt] @ phiv
                          + sum(Mmu[k, l, nxt] @ psiv[l] for l in range(nf))
                          + mv[k, nxt] - st.Q[i] @ st.x_target[i])
    Lx[t] = (spec.prev_state_weight(t, 0)
             + A.T @ (Lx[nxt] @ Phix
                      + sum(Lmu[l, nxt] @ Psix[l] for l in range(nf))
                      + sum(st.Q[j] @ st.B[j] @ Nx[l] @ Phix for l, j in enumerate(followers))))
    for m in range(nf):
        Lmu[m, t] = A.T @ (Lx[nxt] @ Phimu[m]
                           + sum(Lmu[l, nxt] @ Psimu[l][m] for l in range(nf))
                           + st.Q[followers[m]] @ A
                           + sum(st.Q[j] @ st.B[j] @ (Nx[l] @ Phimu[m] + Nmu[l][m])
                                 for l, j in enumerate(followers)))
    lv[t] = A.T @ (Lx[nxt] @ phiv
                   + sum(Lmu[l, nxt] @ psiv[l] for l in range(nf))
                   + lv[nxt] - st.Q[0] @ st.x_target[0]
                   + sum(st.Q[j] @ st.B[j] @ (Nx[l] @ phiv + nv[l])
                         for l, j in enumerate(followers)))

    # Path gains (controls as functions of x_t and mu_t).
    P1x = Wx @ Phix
    P1mu = [Wx @ Phimu[m] + Wmu[m] for m in range(nf)]
    alpha1 = Wx @ phiv + wv
    Pix = [Tx[k] @ Phix for k in range(nf)]
    Pimu = [[Tx[k] @ Phimu[m] + Tmu[k][m] for m in range(nf)] for k in range(nf)]
    alphai = [Tx[k] @ phiv + tv[k] for k in range(nf)]

    return StageMaps(
        Nx=tuple(Nx), Nmu=tuple(tuple(r) for r in Nmu), nv=tuple(nv),
        Tx=tuple(Tx), Tmu=tuple(tuple(r) for r in Tmu), tv=tuple(tv),
        Wx=Wx, Wmu=tuple(Wmu), wv=wv,
        Phix=Phix, Phimu=tuple(Phimu), phiv=phiv,
        Psix=tuple(Psix), Psimu=tuple(tuple(r) for r in Psimu), psiv=tuple(psiv),
        P1x=P1x, P1mu=tuple(P1mu), alpha1=alpha1,
        Pix=tuple(Pix), Pimu=tuple(tuple(r) for r in Pimu), alphai=tuple(alphai),
    )


# ---------------------------------------------------------------------------
# Per-player stage formulations


def stacked_stage_operator(B, Z_next, R, idx) -> np.ndarray:
    """Block operator of the coupled stage first-order conditions.

    Row block i, column block j (players restricted to ``idx``):
    R^ii on the diagonal plus B^i' Z^i B^j everywhere.
    """
    rows = []
    for i in idx:
        blocks = []
        for j in idx:
            blk = B[i].T @ Z_next[i] @ B[j]
            if i == j:
                blk = blk + R[i][i]
            blocks.append(blk)
        rows.append(np.hstack(blocks))
    return np.vstack(rows)


def gain_rhs(st, Z_next, idx, F) -> np.ndarray:
    """Gain right-hand sides B^i' Z^i F of the stage first-order conditions
    of players ``idx``, stacked, for the state map F the players face."""
    return np.vstack([st.B[i].T @ Z_next[i] @ F for i in idx])


def stage_rhs(st, Z_next, zeta_next, idx, F, d) -> np.ndarray:
    """Gain and offset right-hand sides of the stage first-order conditions
    of players ``idx``, packed as [rows B^i' Z^i F | column
    B^i'(Z^i d + zeta^i - Q^i xt^i) - R^ii ut^ii], for state map F and
    drift d."""
    offsets = np.concatenate([
        st.B[i].T @ (Z_next[i] @ d + zeta_next[i] - st.Q[i] @ st.x_target[i])
        - st.R[i][i] @ st.u_target[i][i]
        for i in idx
    ])
    return np.hstack([gain_rhs(st, Z_next, idx, F), offsets[:, None]])


def _split(stacked: np.ndarray, dims) -> list[np.ndarray]:
    return np.split(stacked, np.cumsum(dims[:-1]), axis=0)


def feedback_nash_per_player(spec: GameSpec) -> FeedbackNashSolution:
    """Unique feedback Nash equilibrium of an affine-quadratic game.

    Per stage, backward: solve the stacked gain and offset systems, then
    update every player's Z, zeta and n through the closed loop.  A
    singular stage system means the stage first-order conditions do not
    pin down unique gains, i.e. the game has no unique feedback Nash
    equilibrium in affine strategies; this is reported with the stage
    index and a condition estimate.
    """
    require_valid(spec)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    dims = spec.control_dims

    Z = np.empty((n, T + 1, p, p))
    zeta = np.zeros((n, T + 1, p))
    n_const = np.zeros((n, T + 1))
    for i in range(n):
        Z[i, T] = spec.stages[T - 1].Q[i]

    all_players = list(range(n))
    G = [np.empty((T, m, p)) for m in dims]
    g = [np.empty((T, m)) for m in dims]

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        Z_next = [Z[i, t + 1] for i in range(n)]
        C = stacked_stage_operator(st.B, Z_next, st.R, all_players)
        try:
            sol = solve_dense(C, stage_rhs(st, Z_next, zeta[:, t + 1], all_players,
                                           st.A, st.s),
                              context=f"stage {t} stacked Nash gain/offset system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the stage first-order conditions admit no unique solution, so the "
                "game has no unique feedback Nash equilibrium in affine strategies "
                f"({exc})",
                context=f"stage {t}",
                cond_estimate=exc.cond_estimate,
            ) from exc
        blocks = _split(sol, dims)
        P = [blk[:, :p] for blk in blocks]
        alpha = [blk[:, p] for blk in blocks]
        for i in all_players:
            G[i][t], g[i][t] = -P[i], -alpha[i]

        _update_quadratics(spec, t, P, alpha, Z, zeta, n_const)

    return FeedbackNashSolution(spec=spec, laws=tuple(map(AffineLaw, G, g)),
                                Z=Z, zeta=zeta, n_const=n_const)


def _update_quadratics(spec, t, P, alpha, Z, zeta, n_const):
    """Closed-loop update of every player's Z, zeta, n at stage t.

    Shared by the Nash and Stackelberg solvers: once the stage gains of
    all players are known, the value coefficients update identically.
    """
    st = spec.stages[t]
    n = spec.n_players
    F = st.A - sum(st.B[j] @ P[j] for j in range(n))
    d = st.s - sum(st.B[j] @ alpha[j] for j in range(n))
    for i in range(n):
        Zn, zn = Z[i, t + 1], zeta[i, t + 1]
        xt, Qi = st.x_target[i], st.Q[i]
        Zt = (F.T @ Zn @ F
              + sum(P[j].T @ st.R[i][j] @ P[j] for j in range(n))
              + spec.prev_state_weight(t, i))
        Z[i, t] = 0.5 * (Zt + Zt.T)
        zeta[i, t] = (F.T @ (zn + Zn @ d - Qi @ xt)
                      + sum(P[j].T @ st.R[i][j] @ (alpha[j] + st.u_target[i][j])
                            for j in range(n)))
        n_const[i, t] = (
            n_const[i, t + 1]
            + 0.5 * d @ Zn @ d + zn @ d
            + 0.5 * sum(alpha[j] @ st.R[i][j] @ alpha[j] for j in range(n))
            - xt @ Qi @ d
            + sum(st.u_target[i][j] @ st.R[i][j] @ alpha[j] for j in range(n))
            + 0.5 * (xt @ Qi @ xt
                     + sum(st.u_target[i][j] @ st.R[i][j] @ st.u_target[i][j]
                           for j in range(n)))
        )


def feedback_stackelberg_per_player(spec: GameSpec) -> FeedbackStackelbergSolution:
    """Unique feedback Stackelberg equilibrium with player 0 as leader."""
    require_valid(spec, for_stackelberg=True)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")

    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    dims = spec.control_dims
    followers = list(range(1, n))
    fdims = [dims[i] for i in followers]
    m1 = dims[0]

    Z = np.empty((n, T + 1, p, p))
    zeta = np.zeros((n, T + 1, p))
    n_const = np.zeros((n, T + 1))
    for i in range(n):
        Z[i, T] = spec.stages[T - 1].Q[i]

    G = [np.empty((T, m, p)) for m in dims]
    g = [np.empty((T, m)) for m in dims]
    W_all = [np.empty((T, m, p)) for m in fdims]
    rbar_all = [np.empty((T, m, m1)) for m in fdims]
    w_all = [np.empty((T, m)) for m in fdims]

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        Z_next = [Z[i, t + 1] for i in range(n)]

        # Follower reaction coefficients: one operator, three right-hand sides.
        C = stacked_stage_operator(st.B, Z_next, st.R, followers)
        rhs = np.hstack([gain_rhs(st, Z_next, followers, st.B[0]),
                         stage_rhs(st, Z_next, zeta[:, t + 1], followers, st.A, st.s)])
        try:
            packed = solve_dense(C, -rhs, context=f"stage {t} follower reaction system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the follower stage systems admit no unique optimal response "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc
        blocks = _split(packed, fdims)
        rbar = [blk[:, :m1] for blk in blocks]
        W = [blk[:, m1:m1 + p] for blk in blocks]
        w = [blk[:, m1 + p] for blk in blocks]
        for k in range(n - 1):
            rbar_all[k][t], W_all[k][t], w_all[k][t] = rbar[k], W[k], w[k]

        # Leader stage optimization through the reaction map.
        Bbar = st.B[0] + sum(st.B[i] @ rbar[k] for k, i in enumerate(followers))
        Lam = (Bbar.T @ Z_next[0] @ Bbar + st.R[0][0]
               + sum(rbar[k].T @ st.R[0][i] @ rbar[k] for k, i in enumerate(followers)))
        A_eff = st.A + sum(st.B[i] @ W[k] for k, i in enumerate(followers))
        s_eff = st.s + sum(st.B[i] @ w[k] for k, i in enumerate(followers))
        rhs_P1 = (Bbar.T @ Z_next[0] @ A_eff
                  + sum(rbar[k].T @ st.R[0][i] @ W[k] for k, i in enumerate(followers)))
        rhs_a1 = (Bbar.T @ (Z_next[0] @ s_eff + zeta[0, t + 1] - st.Q[0] @ st.x_target[0])
                  + sum(rbar[k].T @ st.R[0][i] @ (w[k] - st.u_target[0][i])
                        for k, i in enumerate(followers))
                  - st.R[0][0] @ st.u_target[0][0])
        leader = solve_dense(Lam, np.hstack([rhs_P1, rhs_a1[:, None]]),
                             context=f"stage {t} leader system")
        P1, a1 = leader[:, :p], leader[:, p]

        # Follower gains/offsets from their first-order systems at the
        # leader's law (reaction identity left as a cross-check).
        packed_f = solve_dense(C, stage_rhs(st, Z_next, zeta[:, t + 1], followers,
                                            st.A - st.B[0] @ P1, st.s - st.B[0] @ a1),
                               context=f"stage {t} follower gain/offset system")
        fblocks = _split(packed_f, fdims)
        P = [P1] + [blk[:, :p] for blk in fblocks]
        alpha = [a1] + [blk[:, p] for blk in fblocks]
        for i in range(n):
            G[i][t], g[i][t] = -P[i], -alpha[i]

        _update_quadratics(spec, t, P, alpha, Z, zeta, n_const)

    return FeedbackStackelbergSolution(
        spec=spec, laws=tuple(map(AffineLaw, G, g)),
        Z=Z, zeta=zeta, n_const=n_const,
        reactions=ReactionCoefficients(W=tuple(W_all), rbar=tuple(rbar_all), w=tuple(w_all)),
    )


def openloop_nash_per_player(spec: GameSpec, x0: np.ndarray,
                             drifts: np.ndarray | None = None) -> SweptOpenLoopNash:
    """Unique open-loop Nash equilibrium from the initial state x0.

    ``drifts`` (S, T, p) solves S games at once: the given game with its
    stage drifts replaced by each drift sequence in turn.  The drift
    enters only the affine parts -- m, phi, the offsets and the path --
    and linearly, so one matrix sweep (the R^jj solves, D, Phi, M, one LU
    of D per stage) serves all S games, whose drift columns share that
    LU's right-hand side with A.  Without ``drifts`` the same sweep runs
    on the game's own drifts as its one sample.  Each sample's path is
    rolled out on the game with that sample's drifts.
    """
    require_valid(spec)
    x0 = initial_state(spec, x0)
    s = (np.array([st.s for st in spec.stages])[None] if drifts is None
         else np.asarray(drifts, dtype=float))
    T, p, n, S = spec.horizon, spec.state_dim, spec.n_players, len(s)

    M = np.empty((n, T + 1, p, p))
    m = np.zeros((S, n, T + 1, p))
    for i in range(n):
        M[i, T] = spec.stages[T - 1].Q[i]
    Phi = np.empty((T, p, p))
    phi = np.empty((S, T, p))
    G = [np.empty((T, mm, p)) for mm in spec.control_dims]
    g = [np.empty((S, T, mm)) for mm in spec.control_dims]

    # Backward pass: transition pair, costate coefficients and path laws.
    # Affine quantities are rows, one per sample.
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        D = np.eye(p)
        drift = s[:, t]
        Rinv_Bt = []
        for j in range(n):
            RinvBt = solve_dense(st.R[j][j], st.B[j].T, context=f"stage {t} control weight R^{j}{j}")
            Rinv_Bt.append(RinvBt)
            D = D + st.B[j] @ RinvBt @ M[j, t + 1]
            drift = drift - ((m[:, j, t + 1] - st.Q[j] @ st.x_target[j]) @ RinvBt.T
                             - st.u_target[j][j]) @ st.B[j].T
        try:
            packed = solve_dense(D, np.hstack([st.A, drift.T]),
                                 context=f"stage {t} open-loop transition operator")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the open-loop transition operator I + sum_j B R^-1 B' M is singular, "
                f"so no unique open-loop Nash equilibrium exists ({exc})",
                context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc
        Phi[t] = packed[:, :p]
        phi[:, t] = packed[:, p:].T
        for i in range(n):
            # The costate offset on the path, M_{t+1} phi_t + m_{t+1} - Q xt,
            # feeds both m_t and the path offset of player i.
            c = phi[:, t] @ M[i, t + 1].T + m[:, i, t + 1] - st.Q[i] @ st.x_target[i]
            G[i][t] = -Rinv_Bt[i] @ M[i, t + 1] @ Phi[t]
            g[i][:, t] = st.u_target[i][i] - c @ Rinv_Bt[i].T
            # M is symmetric only for n = 1: the transition operator mixes
            # all players' costate matrices, so no symmetrization here.
            M[i, t] = spec.prev_state_weight(t, i) + st.A.T @ M[i, t + 1] @ Phi[t]
            m[:, i, t] = c @ st.A

    # Forward pass: the explicit controls along each path.
    controls = [np.empty((S, T, mm)) for mm in spec.control_dims]
    x = np.repeat(x0[None], S, axis=0)
    for t in range(T):
        for i in range(n):
            controls[i][:, t] = x @ G[i][t].T + g[i][:, t]
        x = x @ Phi[t].T + phi[:, t]

    if drifts is None:
        m, phi, g, controls = m[0], phi[0], [gi[0] for gi in g], [u[0] for u in controls]
        traj = rollout(spec, controls, x0)
    else:
        parts = [rollout(with_drifts(spec, d), [u[k] for u in controls], x0)
                 for k, d in enumerate(s)]
        traj = Trajectory(states=np.stack([tr.states for tr in parts]),
                          controls=tuple(map(np.stack, zip(*(tr.controls for tr in parts)))),
                          stage_costs=np.stack([tr.stage_costs for tr in parts]),
                          total_costs=np.stack([tr.total_costs for tr in parts]))
    return SweptOpenLoopNash(spec=spec, x0=x0, trajectory=traj,
                             laws=tuple(map(AffineLaw, G, g)), M=M, m=m, Phi=Phi, phi=phi)


# ---------------------------------------------------------------------------
# Per-matrix game validation


def validate(spec, tol=1e-9, for_stackelberg=False) -> ValidationReport:
    """:func:`dyngame.game.validate` as a loop over stages and matrices:
    every stage is checked on its own, even where stages share one
    StageData object, and each weight gets its own symmetry test and
    ``classify_definiteness`` call."""
    out = []

    def add(loc, msg):
        out.append(Violation(loc, msg))

    def finite(arr, loc):
        if not np.isfinite(arr).all():
            add(loc, "not finite")
            return False
        return True

    def size(value, loc):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            add(loc, f"must be an integer, got {value!r}")
            return False
        if value < 1:
            add(loc, f"must be >= 1, got {value}")
        return True

    n = spec.n_players
    p = spec.state_dim
    dims = spec.control_dims
    horizon = size(spec.horizon, "horizon")
    size(p, "state_dim")
    if n < 1:
        add("players", "at least one player is required")
    for i, m in enumerate(dims):
        size(m, f"players/{i}/control_dim")
    if horizon and len(spec.stages) != spec.horizon:
        add("stages", f"expected {spec.horizon} stages, got {len(spec.stages)}")
        return ValidationReport(tuple(out))
    if out:
        return ValidationReport(tuple(out))

    for t, st in enumerate(spec.stages):
        loc = f"stages/{t}"
        if st.A.shape != (p, p):
            add(f"{loc}/A", f"expected shape {(p, p)}, got {st.A.shape}")
        else:
            finite(st.A, f"{loc}/A")
        if len(st.B) != n:
            add(f"{loc}/B", f"expected {n} control matrices, got {len(st.B)}")
        else:
            for j, b in enumerate(st.B):
                if b.shape != (p, dims[j]):
                    add(f"{loc}/B/{j}", f"expected shape {(p, dims[j])}, got {b.shape}")
                else:
                    finite(b, f"{loc}/B/{j}")
        if st.s.shape != (p,):
            add(f"{loc}/s", f"expected shape {(p,)}, got {st.s.shape}")
        else:
            finite(st.s, f"{loc}/s")
        if len(st.Q) != n:
            add(f"{loc}/Q", f"expected {n} state weights, got {len(st.Q)}")
        else:
            for i, q in enumerate(st.Q):
                qloc = f"{loc}/Q/{i}"
                if q.shape != (p, p):
                    add(qloc, f"expected shape {(p, p)}, got {q.shape}")
                elif finite(q, qloc):
                    _check_sym_def(q, qloc, "PSD", tol, add)
        if len(st.R) != n or any(len(row) != n for row in st.R):
            add(f"{loc}/R", f"expected an {n}x{n} table of control weights")
        else:
            for i, row in enumerate(st.R):
                for j, r in enumerate(row):
                    rloc = f"{loc}/R/{i}/{j}"
                    if r.shape != (dims[j], dims[j]):
                        add(rloc, f"expected shape {(dims[j], dims[j])}, got {r.shape}")
                    elif finite(r, rloc):
                        need = "PD" if i == j else "PSD" if for_stackelberg and i == 0 else None
                        _check_sym_def(r, rloc, need, tol, add)
        if len(st.x_target) != n:
            add(f"{loc}/x_target", f"expected {n} state targets, got {len(st.x_target)}")
        else:
            for i, x in enumerate(st.x_target):
                if x.shape != (p,):
                    add(f"{loc}/x_target/{i}", f"expected shape {(p,)}, got {x.shape}")
                else:
                    finite(x, f"{loc}/x_target/{i}")
        if len(st.u_target) != n or any(len(row) != n for row in st.u_target):
            add(f"{loc}/u_target", f"expected an {n}x{n} table of control targets")
        else:
            for i, row in enumerate(st.u_target):
                for j, u in enumerate(row):
                    if u.shape != (dims[j],):
                        add(f"{loc}/u_target/{i}/{j}",
                            f"expected shape {(dims[j],)}, got {u.shape}")
                    else:
                        finite(u, f"{loc}/u_target/{i}/{j}")
    return ValidationReport(tuple(out))


def _check_sym_def(M, loc, need, tol, add):
    gap, too_large = asymmetry(M, abs(tol))
    if too_large:
        add(loc, f"not symmetric (max asymmetry {gap:.2e})")
        return
    if need is None:
        return
    d = classify_definiteness(0.5 * M + 0.5 * M.T, tol=tol)
    shown = f"{d.min_eigenvalue:.3e}" if np.isfinite(d.min_eigenvalue) else "not finite"
    if need == "PD" and d.classification != "PD":
        add(loc, f"not positive definite (min eigenvalue {shown})")
    elif need == "PSD" and not d.is_psd:
        add(loc, f"not positive semidefinite (min eigenvalue {shown})")


# ---------------------------------------------------------------------------
# Per-matrix definiteness monitor


def definiteness_monitor(solution) -> DefinitenessLog:
    """:func:`dyngame.verify.definiteness_monitor` as a loop over the
    monitored matrices, each with its own symmetry test and ``eigvalsh``
    of 0.5 (M + M')."""
    entries: list[MonitorEntry] = []

    def record(mat, stage, name, asserted):
        symmetric = not asymmetry(mat, 1e-9)[1]
        eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
        entries.append(MonitorEntry(stage=stage, name=name, min_eigenvalue=eig,
                                    symmetric=symmetric, asserted=bool(asserted and symmetric)))

    if isinstance(solution, lqr.ControlSolution):
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
    elif isinstance(solution, openloop_stackelberg.OpenLoopStackelbergSolution):
        p = solution.spec.state_dim
        for t, K_t in enumerate(solution.K):
            record(K_t[:p, :p], t, "L_x", asserted=False)
            for k in range(1, solution.spec.n_players):
                record(K_t[k * p:(k + 1) * p, :p], t, f"M_x[{k - 1}]", asserted=False)
    else:
        raise InvalidGameError(f"cannot monitor solution type {type(solution).__name__}")
    return DefinitenessLog(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Self-check identities


def pushthrough_residuals(A, B) -> tuple[float, float]:
    """Max-norm residuals of the two push-through inverse identities.

        r1:  I - A B (I + B'AB)^{-1} B'   vs  (I + A B B')^{-1}
        r2:  I - B (I + B'AB)^{-1} B' A   vs  (I + B B' A)^{-1}

    Both vanish identically for positive definite A; the returned residuals
    serve as a numerical self-test and should be ~1e-10 or smaller for
    well-conditioned inputs.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d = classify_definiteness(A)
    if d.classification != "PD":
        raise DefinitenessError(
            f"push-through identities require a positive definite matrix, "
            f"got {d.classification} (min eigenvalue {d.min_eigenvalue:.2e})"
        )
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise InvalidGameError(
            f"second factor must be {A.shape[0]}xr, got shape {B.shape}"
        )

    q = A.shape[0]
    I_q = np.eye(q)
    I_r = np.eye(B.shape[1])
    core = I_r + B.T @ A @ B

    lhs1 = I_q - A @ B @ solve_dense(core, B.T, context="push-through core")
    rhs1 = np.linalg.inv(I_q + A @ B @ B.T)
    r1 = float(np.abs(lhs1 - rhs1).max(initial=0.0))

    lhs2 = I_q - B @ solve_dense(core, B.T @ A, context="push-through core")
    rhs2 = np.linalg.inv(I_q + B @ B.T @ A)
    r2 = float(np.abs(lhs2 - rhs2).max(initial=0.0))
    return r1, r2


def reaction_consistency(sol) -> float:
    """Max violation of G^i = W^i + rbar^i G_leader (and the offset analog),
    i.e. P^i = -W^i + rbar^i P_leader in the recursion's signs."""
    leader, r = sol.laws[0], sol.reactions
    worst = 0.0
    for k, law in enumerate(sol.laws[1:]):
        G_pred = r.W[k] + r.rbar[k] @ leader.G
        g_pred = r.w[k] + (r.rbar[k] @ leader.g[..., None])[..., 0]
        worst = max(worst, np.abs(G_pred - law.G).max(initial=0.0),
                    np.abs(g_pred - law.g).max(initial=0.0))
    return float(worst)


# ---------------------------------------------------------------------------
# Definiteness classification


class DefinitenessError(DynGameError, ValueError):
    """A matrix failed a required definiteness precondition."""


def symmetrize(M: np.ndarray, rtol: float = SYMMETRY_RTOL, name: str = "matrix") -> np.ndarray:
    """Return M/2 + M'/2 if M is symmetric within ``rtol``, else raise."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidGameError(f"{name} must be square, got shape {M.shape}")
    gap, too_large = asymmetry(M, rtol)
    if too_large:
        raise InvalidGameError(f"{name} is not symmetric (max asymmetry {gap:.2e})")
    return 0.5 * M + 0.5 * M.T


@dataclass(frozen=True)
class Definiteness:
    """Classification of a symmetric matrix by its smallest eigenvalue."""

    classification: str  # "PD", "PSD" or "indefinite"
    min_eigenvalue: float

    @property
    def is_psd(self) -> bool:
        return self.classification in ("PD", "PSD")


def classify_definiteness(M: np.ndarray, tol: float = 1e-9) -> Definiteness:
    """Classify a (repairably) symmetric matrix as PD / PSD / indefinite.

    PD requires the smallest eigenvalue to exceed ``tol``; PSD requires it
    to be at least ``-tol``.  Non-symmetric input beyond the repair
    tolerance is an error.
    """
    M = symmetrize(M)
    if M.shape[0] == 0:
        raise InvalidGameError("cannot classify an empty matrix")
    min_eig = float(np.linalg.eigvalsh(M).min())
    if min_eig > tol:
        cls = "PD"
    elif min_eig >= -tol:
        cls = "PSD"
    else:
        cls = "indefinite"
    return Definiteness(cls, min_eig)


class EagerChecks:
    """A stand-in for :class:`dyngame.numerics.Checks` that tests every
    call at once: each goes through :func:`solve_dense`, and a call of a
    :class:`dyngame.numerics.Site` is named and wrapped as the sweep's own
    try/except did.  :meth:`check` has nothing left to test, and a
    :meth:`sweep` leaves floating-point events to numpy's error mode."""

    def __init__(self, rows: int = 0):
        pass

    @classmethod
    def sweep(cls, rows):
        return contextlib.nullcontext(cls())

    def solve(self, A, B, context=None, site=None, stage=None):
        return _at_once(lambda name: solve_dense(A, B, name), context, site, stage)

    def check(self) -> None:
        pass


def _at_once(solve, context, site, stage):
    """``solve(name)``, its failure named ``stage t <site name>`` for a
    site's call and wrapped in the site's reason if it has one."""
    if site is None:
        return solve(context)
    try:
        return solve(f"stage {stage} {site.name}")
    except SingularSystemError as exc:
        if site.reason is None:
            raise
        raise SingularSystemError(f"{site.reason} ({exc})", context=f"stage {stage}",
                                  cond_estimate=exc.cond_estimate) from exc
