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

import numpy as np

from .errors import InvalidGameError, SingularSystemError
from .game import (AffineLaw, GameSpec, StageArrays, Trajectory, initial_state, require_valid,
                   rollout)
from .numerics import solve_dense


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
    """The rows of X (rows, q) laid out block diagonally, (rows, k*q): row
    r in column block ``owner[r]``, zeros elsewhere."""
    out = np.zeros((len(X), k, X.shape[1]))
    out[np.arange(len(X)), owner] = X
    return out.reshape(len(X), k * X.shape[1])


def solve(spec: GameSpec, x0: np.ndarray, initial_mu: np.ndarray | None = None) -> OpenLoopStackelbergSolution:
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
    M = view.B.shape[2]
    m0 = view.blocks[0].stop
    fowner = view.owner[m0:] - 1

    # Maps carry their offsets in a last column: N | nv, Xi | xi, P | alpha.
    K = np.zeros((T + 1, d, d))
    k = np.zeros((T + 1, d))
    N = np.empty((T, M - m0, d + 1))
    Xi = np.empty((T, d, d + 1))
    P = np.empty((T, M, d + 1))
    K[T, :, :p] = view.Q[T - 1].reshape(d, p)

    for t in range(T - 1, -1, -1):
        A, B = view.A[t], view.B[t]
        R0f = view.R[t, 0, m0:, m0:]  # blockdiag(R^{0i}) over the followers
        # Kb, kb: the next costate coefficients with the leader's weights on
        # the followers' states and every player's state target folded in.
        Kb = K[t + 1].copy()
        Kb[:p, p:] += np.hstack(view.Q[t, 1:])
        kb = k[t + 1] - np.einsum("ipq,iq->ip", view.Q[t], view.xt[t]).ravel()
        RinvBt = np.vstack([solve_dense(view.R[t, i, b, b], B[:, b].T,
                                        context=f"stage {t} {'leader' if i == 0 else 'follower'} weight")
                            for i, b in enumerate(view.blocks)])
        B_f = _by_owner(B[:, m0:].T, fowner, nf).T
        A_f = np.einsum("lm,ab->lamb", np.eye(nf), A).reshape(nf * p, nf * p)

        # Cocontrols: with J = [Bh_f' | -K_f] and H = J Kb,
        # (R_f + H_mu B_f) [N | nv] = -[H diag(I, A_f) | J kb + R_0f (u_ff - u_0f)].
        J = np.hstack([B[:, m0:].T, -_by_owner(R0f @ RinvBt[m0:], fowner, nf)])
        H = J @ Kb
        C = view.own(view.R[t])[m0:, m0:] + H[:, p:] @ B_f
        u_own = view.own(view.ut[t])
        du = R0f @ (u_own[m0:] - view.ut[t, 0, m0:])
        rhs = np.hstack([H[:, :p], H[:, p:] @ A_f, (J @ kb + du)[:, None]])
        try:
            N[t] = solve_dense(C, -rhs, context=f"stage {t} stacked cocontrol system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the stacked cocontrol coefficient systems admit no unique solution "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc

        # Every control as one map of (x_{t+1}, mu_t), offsets last.
        Cy = np.hstack([Kb[:, :p], Kb[:, p:] @ A_f, kb[:, None]]) + Kb[:, p:] @ (B_f @ N[t])
        U = -_by_owner(RinvBt, view.owner, n) @ Cy
        U[:, d] += u_own

        # Make x_{t+1} explicit: [Phi_x | Phi_mu | phi].
        E = np.eye(p) - B @ U[:, :p]
        try:
            Phi = solve_dense(E, np.hstack([A, B @ U[:, p:d], (B @ U[:, d] + view.s[t])[:, None]]),
                              context=f"stage {t} state transition operator")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the state transition operator I - B U_x is singular "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc

        # Controls and cocontrols as maps of (z_t, 1), then the z transition.
        UN = np.vstack([U, N[t]])
        path = UN[:, :p] @ Phi
        path[:, p:] += UN[:, p:]
        P[t] = path[:M]
        Xi[t, :p] = Phi
        Xi[t, p:] = B_f @ path[M:]
        Xi[t, p:, p:d] += A_f

        # Costates: A_all' (Kb [Xi | xi] + [0 | kb]), plus W_t on the x blocks.
        KX = Kb @ Xi[t]
        KX[:, d] += kb
        KX = (A.T @ KX.reshape(n, p, d + 1)).reshape(d, d + 1)
        K[t], k[t] = KX[:, :d], KX[:, d]
        if t > 0:
            K[t, :, :p] += view.Q[t - 1].reshape(d, p)

    z = np.empty((T + 1, d))
    z[0, :p], z[0, p:] = x0, mu0.ravel()
    for t in range(T):
        z[t + 1] = Xi[t, :, :d] @ z[t] + Xi[t, :, d]
    u = np.einsum("tij,tj->ti", P[:, :, :d], z[:T]) + P[:, :, d]
    g = np.einsum("tij,tj->ti", P[:, :, p:d], z[:T, p:]) + P[:, :, d]
    laws = tuple(AffineLaw(P[:, b, :p], g[:, b]) for b in view.blocks)
    traj = rollout(spec, [u[:, b] for b in view.blocks], x0)
    return OpenLoopStackelbergSolution(
        spec=spec, x0=x0, initial_mu=mu0, trajectory=traj, laws=laws,
        mu=z[:, p:].reshape(T + 1, nf, p).transpose(1, 0, 2),
        K=K, k=k, N=N[:, :, :d], nv=N[:, :, d], Xi=Xi[:, :, :d], xi=Xi[:, :, d],
        alpha=P[:, :, d],
    )


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
    rows = np.arange(len(view.owner))
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
