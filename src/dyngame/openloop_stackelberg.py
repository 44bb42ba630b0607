"""Open-loop Stackelberg equilibrium: one leader committing a sequence.

Player 0 is the leader.  The leader's minimum principle adjoins, besides
its own costate lambda, one multiplier sequence mu^i per follower (paired
with the follower's adjoint recursion) and one cocontrol sequence v^i per
follower (paired with the follower's stationarity condition).  mu runs
*forward* (mu_0^i = 0) while the costates run backward; expressing the
backward quantities as affine functions of the extended state
z = (x, mu^1..mu^{n-1}), of dimension n*p, turns the whole system into a
single backward induction (Basar and Olsder, *Dynamic Noncooperative Game
Theory*, 2nd ed., SIAM 1999, section 7.2):

  - costates:    (lambda_t, p_t^1..p_t^{n-1}) = (K_t - W_t) z_t + k_t
  - cocontrols:  v_t = N_t (x_{t+1}, mu_t) + nv_t
  - extended state and controls:  z_{t+1} = Xi_t z_t + xi_t,  u_t = P_t z_t + alpha_t

K_t (n*p, n*p) stacks the leader's costate rows first, then each
follower's; W_t carries each player's stage-(t-1) state weight on its
x block, absorbed into K as in the other solvers.  The followers enter
every stage as one stacked block: B_f = blockdiag(B^i), their inputs side
by side Bh_f = [B^1 .. B^{n-1}], the leader's weights on their
stationarity directions K_f = blockdiag(R^{0i} (R^{ii})^-1 B^i') and
A_f = blockdiag(A).  One factorization gives all cocontrol coefficients,
one gives the state transition, and the forward pass advances z jointly,
which avoids ever inverting the state transition map.

The equilibrium is *not* strongly time consistent: re-solving a truncated
game with multipliers reset to zero generally changes the tail.  The tail
is reproduced exactly when the inherited multiplier values are supplied
via ``initial_mu``.

A note on the formulation choice.  There is an alternative derivation of
the same equilibrium that runs two inductions in opposite directions: the
multiplier coefficients (mu^i = C^i x + c^i) forward from stage 0 and the
costate coefficients backward from stage T, each step of either recursion
consuming the other's coefficients at the same stage.  The two families
cannot be decoupled: evaluating C at a stage requires the backward
coefficients of every later stage expressed as functions of the forward
ones, an elimination whose size grows with the horizon and which is not
implementable as a stagewise sweep.  That formulation is therefore
documented here but deliberately not implemented; the affine ansatz in
the joint (x, mu) vector turns the same optimality system into the single
backward induction implemented by :func:`solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidGameError, SingularSystemError
from .game import (AffineLaw, GameSpec, StageArrays, Trajectory, initial_state, require_valid,
                   sequence_path)
from .numerics import solve_dense
from .openloop_nash import own_inputs


@dataclass(frozen=True)
class OpenLoopStackelbergSolution:
    spec: GameSpec
    x0: np.ndarray
    initial_mu: np.ndarray          # (n-1, p), zeros for a fresh solve
    trajectory: Trajectory
    # Per player path laws, G (T, m_i, p), g (T, m_i): G is the x block of
    # the path gain P and g = alpha + P_mu mu_t at the path values, so the
    # laws reproduce the equilibrium controls along the equilibrium path
    # only.
    laws: tuple[AffineLaw, ...]
    mu: np.ndarray                  # (n-1, T+1, p) multiplier paths
    K: np.ndarray                   # (T+1, n*p, n*p) costate coefficients
    k: np.ndarray                   # (T+1, n*p) costate offsets
    N: np.ndarray                   # (T, sum of follower m_i, n*p) cocontrol maps
    nv: np.ndarray                  # (T, sum of follower m_i) cocontrol offsets
    Xi: np.ndarray                  # (T, n*p, n*p) extended-state transitions
    xi: np.ndarray                  # (T, n*p)
    alpha: np.ndarray               # (T, sum m_i) path offsets, u_t = P_t z_t + alpha_t


def _by_owner(X: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    """The rows of each X (..., rows, q) laid out block diagonally, (...,
    rows, k*q): row r in column block ``owner[r]``, zeros elsewhere."""
    rows, q = X.shape[-2:]
    out = np.zeros(X.shape[:-1] + (k, q))
    out[..., np.arange(rows), owner, :] = X
    return out.reshape(X.shape[:-1] + (k * q,))


def solve(spec: GameSpec, x0: np.ndarray, initial_mu: np.ndarray | None = None) -> OpenLoopStackelbergSolution:
    """Open-loop Stackelberg equilibrium with player 0 as leader.

    ``initial_mu`` sets the followers' adjoined multipliers at stage 0;
    zero is the equilibrium condition for a whole game, while a tail
    re-solve inherits the multipliers reached at the truncation stage.
    This is the one lane of :func:`sweep` that starts at stage 0; its path
    is priced as :func:`dyngame.game.rollout` prices it.
    """
    require_valid(spec)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")
    x0 = initial_state(spec, x0)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    nf, d = n - 1, n * p
    if initial_mu is None:
        mu0 = np.zeros((nf, p))
    else:
        mu0 = np.atleast_2d(np.asarray(initial_mu, dtype=float))
        if mu0.shape != (nf, p):
            raise InvalidGameError(
                f"initial_mu has shape {mu0.shape}, expected {(nf, p)}"
            )
    view = StageArrays.of(spec)
    u, z, K, k, N, Xi, P = (a[0] for a in sweep(view, [0], np.hstack([x0, mu0.ravel()])[None]))
    g = np.einsum("tij,tj->ti", P[:, :, p:d], z[:T, p:]) + P[:, :, d]
    laws = tuple(AffineLaw(P[:, b, :p], g[:, b]) for b in view.blocks)
    traj = sequence_path(view, x0, u[None], view.s, False)
    return OpenLoopStackelbergSolution(
        spec=spec, x0=x0, initial_mu=mu0, trajectory=traj, laws=laws,
        mu=z[:, p:].reshape(T + 1, nf, p).transpose(1, 0, 2),
        K=K, k=k, N=N[:, :, :d], nv=N[:, :, d], Xi=Xi[:, :, :d], xi=Xi[:, :, d],
        alpha=P[:, :, d],
    )


class StageTerms(NamedTuple):
    """The terms of the open-loop Stackelberg recursion that read the stage
    data alone, stacked over stages (the R^ii solves from the first lane's
    start on, zero before it); every lane of a sweep shares them.  Mf
    counts the followers' control rows and nf the followers."""

    Qf: np.ndarray      # [Q^1 .. Q^{nf}], the followers' state weights side by side, (T, p, nf p)
    Qxt: np.ndarray     # every player's Q^i xt^i, stacked, (T, n p)
    A_f: np.ndarray     # blockdiag(A) over the followers, (T, nf p, nf p)
    B_f: np.ndarray     # blockdiag(B^i) over the followers, (T, nf p, Mf)
    J: np.ndarray       # [Bh_f' | -K_f], K_f = blockdiag(R^{0i} (R^ii)^-1 B^i'), (T, Mf, n p)
    C_own: np.ndarray   # blockdiag(R^ii) over the followers, (T, Mf, Mf)
    u_own: np.ndarray   # each control row's own target ut^ii, (T, M)
    du: np.ndarray      # R^{0f} (ut^ff - ut^{0f}), (T, Mf)
    U: np.ndarray       # -blockdiag((R^ii)^-1 B^i') over all players, (T, M, n p)

    @classmethod
    def of(cls, view: StageArrays, first: int) -> StageTerms:
        T, p, M = view.B.shape
        n = view.Q.shape[1]
        nf, m0 = n - 1, view.blocks[0].stop
        fowner = view.owner[m0:] - 1
        RinvBt = own_inputs(view, first)
        R0f = view.R[:, 0, m0:, m0:]  # blockdiag(R^{0i}) over the followers
        Bft = view.B[:, :, m0:].swapaxes(1, 2)
        u_own = view.own(view.ut, lead=1)
        return cls(
            Qf=view.Q[:, 1:].transpose(0, 2, 1, 3).reshape(T, p, nf * p),
            Qxt=np.einsum("tipq,tiq->tip", view.Q, view.xt).reshape(T, n * p),
            A_f=np.einsum("lm,tab->tlamb", np.eye(nf), view.A).reshape(T, nf * p, nf * p),
            B_f=_by_owner(Bft, fowner, nf).swapaxes(1, 2),
            J=np.concatenate([Bft, -_by_owner(R0f @ RinvBt[:, m0:], fowner, nf)], axis=2),
            C_own=view.own(view.R, lead=1)[:, m0:, m0:],
            u_own=u_own,
            du=(R0f @ (u_own[:, m0:] - view.ut[:, 0, m0:])[..., None])[..., 0],
            U=-_by_owner(RinvBt, view.owner, n))


def sweep(view: StageArrays, starts, z_starts: np.ndarray):
    """The tail games from the stages ``starts``, one lane each (see
    :meth:`StageArrays.lanes`), solved in one pass over the stages of a
    validated game's view, each lane from its own initial extended state
    ``z_starts[l]`` = (x, mu^1..mu^{n-1}) at its start.

    Every lane owns its sweep and its forward pass and returns, zero
    before its start: the controls u (L, T, M), the extended path z
    (L, T+1, n*p), the costate coefficients K (L, T+1, n*p, n*p) and k,
    and the maps with their offsets in a last column, N | nv, Xi | xi and
    P | alpha.  Lanes share the stage data and what is computed from it
    alone, the :class:`StageTerms` (the R^ii solves, one stacked solve per
    player, and the follower block operators), formed once before the
    backward pass.  Every system that reads a lane's coefficients is still
    solved for that lane, each stage's systems of all lanes in one stacked
    call.
    """
    starts, begin, end = view.lanes(starts)
    T, p, M = view.B.shape
    n = view.Q.shape[1]
    d, L = n * p, len(starts)
    m0 = view.blocks[0].stop
    terms = StageTerms.of(view, starts[0])

    # Maps carry their offsets in a last column: N | nv, Xi | xi, P | alpha.
    K = np.zeros((L, T + 1, d, d))
    k = np.zeros((L, T + 1, d))
    N = np.zeros((L, T, M - m0, d + 1))
    Xi = np.zeros((L, T, d, d + 1))
    P = np.zeros((L, T, M, d + 1))
    K[:, T, :, :p] = view.Q[T - 1].reshape(d, p)

    for t in range(T - 1, starts[0] - 1, -1):
        a = end[t]
        A, B, A_f, B_f, J = view.A[t], view.B[t], terms.A_f[t], terms.B_f[t], terms.J[t]
        # Kb, kb: the next costate coefficients with the leader's weights on
        # the followers' states and every player's state target folded in.
        Kb = K[:a, t + 1].copy()
        Kb[:, :p, p:] += terms.Qf[t]
        kb = k[:a, t + 1] - terms.Qxt[t]

        # Cocontrols: with J = [Bh_f' | -K_f] and H = J Kb,
        # (R_f + H_mu B_f) [N | nv] = -[H diag(I, A_f) | J kb + R_0f (u_ff - u_0f)].
        H = J @ Kb
        C = terms.C_own[t] + H[..., p:] @ B_f
        rhs = np.concatenate([H[..., :p], H[..., p:] @ A_f,
                              J @ kb[..., None] + terms.du[t][:, None]], axis=2)
        try:
            N[:a, t] = solve_dense(C, -rhs, context=f"stage {t} stacked cocontrol system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the stacked cocontrol coefficient systems admit no unique solution "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc

        # Every control as one map of (x_{t+1}, mu_t), offsets last.
        Cy = (np.concatenate([Kb[..., :p], Kb[..., p:] @ A_f, kb[..., None]], axis=2)
              + Kb[..., p:] @ (B_f @ N[:a, t]))
        U = terms.U[t] @ Cy
        U[..., d] += terms.u_own[t]

        # Make x_{t+1} explicit: [Phi_x | Phi_mu | phi].
        rhs = np.empty((a, p, d + 1))
        rhs[..., :p], rhs[..., p:d] = A, B @ U[..., p:d]
        rhs[..., d:] = B @ U[..., d:] + view.s[t][:, None]
        try:
            Phi = solve_dense(np.eye(p) - B @ U[..., :p], rhs,
                              context=f"stage {t} state transition operator")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the state transition operator I - B U_x is singular "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc

        # Controls and cocontrols as maps of (z_t, 1), then the z transition.
        UN = np.concatenate([U, N[:a, t]], axis=1)
        path = UN[..., :p] @ Phi
        path[..., p:] += UN[..., p:]
        P[:a, t] = path[:, :M]
        Xi[:a, t, :p] = Phi
        Xi[:a, t, p:] = B_f @ path[:, M:]
        Xi[:a, t, p:, p:d] += A_f

        # Costates: A_all' (Kb [Xi | xi] + [0 | kb]), plus W_t on the x
        # blocks, except in a lane that starts at t.
        KX = Kb @ Xi[:a, t]
        KX[..., d] += kb
        KX = (A.T @ KX.reshape(a, n, p, d + 1)).reshape(a, d, d + 1)
        K[:a, t], k[:a, t] = KX[..., :d], KX[..., d]
        if t > 0:
            K[:begin[t], t, :, :p] += view.Q[t - 1].reshape(d, p)

    # Forward pass: every lane's extended path from its own start.
    z = np.zeros((L, T + 1, d))
    for t in range(starts[0], T):
        a = end[t]
        if begin[t] < a:
            z[begin[t]:a, t] = z_starts[begin[t]:a]
        z[:a, t + 1] = (Xi[:a, t, :, :d] @ z[:a, t, :, None])[..., 0] + Xi[:a, t, :, d]
    u = np.einsum("ltij,ltj->lti", P[:, :, :, :d], z[:, :T]) + P[:, :, :, d]
    return u, z, K, k, N, Xi, P


def kkt_residuals(sol: OpenLoopStackelbergSolution) -> dict[str, float]:
    """Max-norm residuals of the leader's minimum-principle system along
    the path: stationarity of both sides, costate and multiplier
    recursions, cocontrol consistency, and the state equation.

    The multipliers are read off the stacked coefficients at the path
    values: costates (K_t - W_t) z_t + k_t, so lambda_T and p_T^i vanish
    exactly, and cocontrols v_t = N_t (x_{t+1}, mu_t) + nv_t.
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
    costates = (np.einsum("tij,tj->ti", sol.K - W, z) + sol.k).reshape(T + 1, n, p)
    v = np.einsum("tij,tj->ti", sol.N, np.hstack([x[1:], z[:T, p:]])) + sol.nv

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
