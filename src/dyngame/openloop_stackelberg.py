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
  - path laws:   (u_t, v_t) = P_t z_t + alpha_t

K_t (n*p, n*p) stacks the leader's costate rows first, then each
follower's; W_t carries each player's stage-(t-1) state weight on its
x block, absorbed into K as in the other solvers.  The followers enter
every stage as one stacked block: B_f = blockdiag(B^i), their inputs side
by side Bh_f = [B^1 .. B^{n-1}], the leader's weights on their
stationarity directions K_f = blockdiag(R^{0i} (R^{ii})^-1 B^i') and
A_f = blockdiag(A).  One factorization gives all cocontrol coefficients
and one the state transition, which is never inverted: z is walked
forward.

The multipliers follow their own state equation, mu_{t+1} = A_f mu_t +
B_f v_t, so z is the state of an extended system, A_z = blockdiag(A, A_f),
B_z = blockdiag(B, B_f) and drift (s, 0), played by the path laws.  The
solution's path is those laws walked from (x0, mu_0) by the state loop of
:func:`dyngame.game.rollout`.

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

from .errors import InvalidGameError
from .game import (AffineLaw, GameSpec, StageArrays, Trajectory, _numeric, _priced, _walk,
                   initial_state, require_valid)
from .numerics import Checks, Site
from .openloop_nash import own_inputs

#: Each stage's two systems: the followers' cocontrol maps, then the state
#: transition operator.
COCONTROLS = Site("stacked cocontrol system",
                  "the stacked cocontrol coefficient systems admit no unique solution")
TRANSITION = Site("state transition operator", "the state transition operator I - B U_x is singular")


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
    :func:`sweep`'s path laws are walked on the extended system from
    (x0, initial_mu), and the walked states and controls are priced as
    :func:`dyngame.game.rollout` prices them.
    """
    view = require_valid(spec)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")
    x0 = initial_state(spec, x0)
    T, p, M = view.B.shape
    nf = spec.n_players - 1
    mu0 = np.zeros((nf, p)) if initial_mu is None else np.atleast_2d(_numeric("initial_mu", initial_mu))
    if mu0.shape != (nf, p):
        raise InvalidGameError(f"initial_mu has shape {mu0.shape}, expected {(nf, p)}")
    if not np.all(np.isfinite(mu0)):
        raise InvalidGameError(f"initial_mu must be finite, got {mu0.tolist()}")
    K, _, _, GT, g, terms = sweep(view)
    states, uv = _walk(terms.Az, terms.Bz, np.hstack([x0, mu0.ravel()]), GT, g, terms.sz, None)
    mu = states[0, :, p:]
    offsets = np.einsum("tjk,tj->tk", GT[:, p:, :M], mu[:T]) + g[:, :M]
    return OpenLoopStackelbergSolution(
        spec=spec, x0=x0, initial_mu=mu0,
        trajectory=_priced(view, states[..., :p], uv[..., :M], False),
        laws=tuple(AffineLaw(GT[:, :p, b].swapaxes(1, 2), offsets[:, b]) for b in view.blocks),
        mu=mu.reshape(T + 1, nf, p).transpose(1, 0, 2), K=K)


class StageTerms(NamedTuple):
    """The terms of the open-loop Stackelberg recursion that read the stage
    data alone, stacked over stages, formed once per sweep (the R^ii
    solves tested by ``checks`` as :func:`own_inputs` tests them), with the
    extended system z_{t+1} = Az_t z_t + Bz_t (u_t, v_t) + sz_t.  Mf counts
    the followers' control rows and nf the followers."""

    Qf: np.ndarray      # [Q^1 .. Q^{nf}], the followers' state weights side by side, (T, p, nf p)
    Qxt: np.ndarray     # every player's Q^i xt^i, stacked, (T, n p)
    Az: np.ndarray      # blockdiag(A, A_f), A_f = blockdiag(A) over the followers, (T, n p, n p)
    Bz: np.ndarray      # blockdiag(B, B_f), B_f = blockdiag(B^i) over the followers, (T, n p, M + Mf)
    sz: np.ndarray      # the drift (s, 0), (T, n p)
    J: np.ndarray       # [Bh_f' | -K_f], K_f = blockdiag(R^{0i} (R^ii)^-1 B^i'), (T, Mf, n p)
    C_own: np.ndarray   # blockdiag(R^ii) over the followers, (T, Mf, Mf)
    u_own: np.ndarray   # each control row's own target ut^ii, (T, M)
    du: np.ndarray      # R^{0f} (ut^ff - ut^{0f}), (T, Mf)
    U: np.ndarray       # -blockdiag((R^ii)^-1 B^i') over all players, (T, M, n p)

    @classmethod
    def of(cls, view: StageArrays, checks: Checks) -> StageTerms:
        T, p, M = view.B.shape
        n = view.Q.shape[1]
        nf, m0 = n - 1, view.blocks[0].stop
        RinvBt = own_inputs(view, checks)
        R0f = view.R[:, 0, m0:, m0:]  # blockdiag(R^{0i}) over the followers
        Bft = view.B[:, :, m0:].swapaxes(1, 2)
        u_own = view.own(view.ut, lead=1)
        return cls(
            Qf=view.Q[:, 1:].transpose(0, 2, 1, 3).reshape(T, p, nf * p),
            Qxt=np.einsum("tipq,tiq->tip", view.Q, view.xt).reshape(T, n * p),
            Az=_by_owner(np.tile(view.A, (1, n, 1)), np.repeat(np.arange(n), p), n),
            Bz=_by_owner(np.concatenate([view.B.swapaxes(1, 2), Bft], axis=1),
                         np.r_[np.zeros(M, int), view.owner[m0:]], n).swapaxes(1, 2),
            sz=np.concatenate([view.s, np.zeros((T, nf * p))], axis=1),
            J=np.concatenate([Bft, -_by_owner(R0f @ RinvBt[:, m0:], view.owner[m0:] - 1, nf)], axis=2),
            C_own=view.own(view.R, lead=1)[:, m0:, m0:],
            u_own=u_own,
            du=(R0f @ (u_own[:, m0:] - view.ut[:, 0, m0:])[..., None])[..., 0],
            U=-_by_owner(RinvBt, view.owner, n))


def sweep(view: StageArrays):
    """The game of a validated game's view: one backward pass over the
    stages, which no initial state enters, so the maps from stage s on are
    those of the tail game from s.

    Returns the costate coefficients K (T+1, n*p, n*p) and k (T+1, n*p),
    the cocontrol maps of (x_{t+1}, mu_t) with their offsets in a last
    column, N | nv (T, Mf, n*p+1), the path laws of the controls and then
    the cocontrols, (u_t, v_t) = z_t GT_t + g_t, gains GT (T, n*p, M+Mf),
    C-contiguous, and offsets g (T, M+Mf), and the :class:`StageTerms`,
    formed before the backward pass, on whose extended system
    :func:`dyngame.game._walk` plays the path laws.  Every solve is tested
    once the backward pass is done."""
    T, p, M = view.B.shape
    n = view.Q.shape[1]
    d, m0 = n * p, view.blocks[0].stop

    K = np.zeros((T + 1, d, d))
    k = np.zeros((T + 1, d))
    N = np.zeros((T, M - m0, d + 1))  # N | nv
    GT = np.zeros((T, d, 2 * M - m0))
    g = np.zeros((T, 2 * M - m0))
    K[T, :, :p] = view.Q[T - 1].reshape(d, p)
    I = np.eye(p)

    with Checks.sweep(T) as checks:
        terms = StageTerms.of(view, checks)
        for t in range(T - 1, -1, -1):
            A, B, J = view.A[t], view.B[t], terms.J[t]
            A_f, B_f = terms.Az[t, p:, p:], terms.Bz[t, p:, M:]
            # Kb, kb: the next costate coefficients with the leader's weights
            # on the followers' states and every player's state target folded in.
            Kb = K[t + 1].copy()
            Kb[:p, p:] += terms.Qf[t]
            kb = k[t + 1] - terms.Qxt[t]

            # Cocontrols: with J = [Bh_f' | -K_f] and H = J Kb,
            # (R_f + H_mu B_f) [N | nv] = -[H diag(I, A_f) | J kb + R_0f (u_ff - u_0f)].
            H = J @ Kb
            C = terms.C_own[t] + H[:, p:] @ B_f
            rhs = np.concatenate([H[:, :p], H[:, p:] @ A_f,
                                  J @ kb[:, None] + terms.du[t][:, None]], axis=1)
            N[t] = checks.solve(C, -rhs, site=COCONTROLS, stage=t)

            # Every control as one map of (x_{t+1}, mu_t), offsets last.
            Cy = (np.concatenate([Kb[:, :p], Kb[:, p:] @ A_f, kb[:, None]], axis=1)
                  + Kb[:, p:] @ (B_f @ N[t]))
            U = terms.U[t] @ Cy
            U[:, d] += terms.u_own[t]

            # Make x_{t+1} explicit: [Phi_x | Phi_mu | phi].
            rhs = np.empty((p, d + 1))
            rhs[:, :p], rhs[:, p:d] = A, B @ U[:, p:d]
            rhs[:, d:] = B @ U[:, d:] + view.s[t][:, None]
            Phi = checks.solve(I - B @ U[:, :p], rhs, site=TRANSITION, stage=t)

            # Controls and cocontrols as maps of (z_t, 1): the path laws.
            UN = np.concatenate([U, N[t]], axis=0)
            path = UN[:, :p] @ Phi
            path[:, p:] += UN[:, p:]
            GT[t], g[t] = path[:, :d].T, path[:, d]

            # Costates: A_all' (Kb [Xi | xi] + [0 | kb]), plus W_t on the x
            # blocks, with [Xi | xi] the z transition the path laws close.
            Xi = np.concatenate([Phi, B_f @ path[M:]])
            Xi[p:, p:d] += A_f
            KX = Kb @ Xi
            KX[:, d] += kb
            KX = (A.T @ KX.reshape(n, p, d + 1)).reshape(d, d + 1)
            K[t], k[t] = KX[:, :d], KX[:, d]
            if t > 0:
                K[t, :, :p] += view.Q[t - 1].reshape(d, p)

    return K, k, N, GT, g, terms
