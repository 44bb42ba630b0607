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
from .game import AffineLaw, GameSpec, Trajectory, initial_state, require_valid, rollout
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


def _blockdiag(blocks) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


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
    dims = spec.control_dims
    m0, M = dims[0], sum(dims)

    # Maps carry their offsets in a last column: N | nv, Xi | xi, P | alpha.
    K = np.zeros((T + 1, d, d))
    k = np.zeros((T + 1, d))
    N = np.empty((T, M - m0, d + 1))
    Xi = np.empty((T, d, d + 1))
    P = np.empty((T, M, d + 1))
    K[T, :, :p] = np.vstack(spec.stages[T - 1].Q)

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A = st.A
        # Kb, kb: the next costate coefficients with the leader's weights on
        # the followers' states and every player's state target folded in.
        Kb = K[t + 1].copy()
        Kb[:p, p:] += np.hstack(st.Q[1:])
        kb = k[t + 1] - np.concatenate([Q @ xt for Q, xt in zip(st.Q, st.x_target)])
        RinvBt = [solve_dense(st.R[i][i], st.B[i].T,
                              context=f"stage {t} {'leader' if i == 0 else 'follower'} weight")
                  for i in range(n)]
        B_all = np.hstack(st.B)
        B_f = _blockdiag(st.B[1:])
        A_f = _blockdiag([A] * nf)

        # Cocontrols: with J = [Bh_f' | -K_f] and H = J Kb,
        # (R_f + H_mu B_f) [N | nv] = -[H diag(I, A_f) | J kb + R_0f (u_ff - u_0f)].
        J = np.hstack([B_all[:, m0:].T,
                       -_blockdiag([st.R[0][i] @ RinvBt[i] for i in range(1, n)])])
        H = J @ Kb
        C = _blockdiag([st.R[i][i] for i in range(1, n)]) + H[:, p:] @ B_f
        u_own = np.concatenate([st.u_target[i][i] for i in range(n)])
        du = _blockdiag(st.R[0][1:]) @ (u_own[m0:] - np.concatenate(st.u_target[0][1:]))
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
        U = -_blockdiag(RinvBt) @ Cy
        U[:, d] += u_own

        # Make x_{t+1} explicit: [Phi_x | Phi_mu | phi].
        E = np.eye(p) - B_all @ U[:, :p]
        try:
            Phi = solve_dense(E, np.hstack([A, B_all @ U[:, p:d], (B_all @ U[:, d] + st.s)[:, None]]),
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
        KX = _blockdiag([A.T] * n) @ KX
        K[t], k[t] = KX[:, :d], KX[:, d]
        if t > 0:
            K[t, :, :p] += np.vstack(spec.stages[t - 1].Q)

    z = np.empty((T + 1, d))
    z[0, :p], z[0, p:] = x0, mu0.ravel()
    for t in range(T):
        z[t + 1] = Xi[t, :, :d] @ z[t] + Xi[t, :, d]
    u = np.einsum("tij,tj->ti", P[:, :, :d], z[:T]) + P[:, :, d]
    g = np.einsum("tij,tj->ti", P[:, :, p:d], z[:T, p:]) + P[:, :, d]
    splits = np.cumsum(dims[:-1])
    controls = np.split(u, splits, axis=1)
    laws = tuple(AffineLaw(G, gi) for G, gi in zip(np.split(P[:, :, :p], splits, axis=1),
                                                  np.split(g, splits, axis=1)))
    traj = rollout(spec, controls, x0)
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
    spec = sol.spec
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    x = sol.trajectory.states
    u = sol.trajectory.controls
    z = np.hstack([x, sol.mu.transpose(1, 0, 2).reshape(T + 1, -1)])
    W = np.zeros_like(sol.K)
    for t in range(1, T + 1):
        W[t, :, :p] = np.vstack(spec.stages[t - 1].Q)
    costates = (np.einsum("tij,tj->ti", sol.K - W, z) + sol.k).reshape(T + 1, n, p)
    lam, pco = costates[:, 0], costates[:, 1:].transpose(1, 0, 2)
    y = np.hstack([x[1:], z[:T, p:]])
    v = np.split(np.einsum("tij,tj->ti", sol.N, y) + sol.nv,
                 np.cumsum(spec.control_dims[1:-1]), axis=1)

    res = {k: 0.0 for k in ("leader_stationarity", "cocontrol", "leader_costate",
                            "multiplier", "follower_stationarity",
                            "follower_costate", "state")}

    def mx(key, val):
        res[key] = max(res[key], float(np.abs(val).max(initial=0.0)))

    followers = list(range(1, n))
    for t in range(T):
        st = spec.stages[t]
        dx0 = x[t + 1] - st.x_target[0]
        qmu = [st.Q[j] @ (st.A @ sol.mu[l, t]) for l, j in enumerate(followers)]
        qv = [st.Q[j] @ (st.B[j] @ v[l][t]) for l, j in enumerate(followers)]

        g1 = (st.R[0][0] @ (u[0][t] - st.u_target[0][0])
              + st.B[0].T @ (st.Q[0] @ dx0 + lam[t + 1])
              + st.B[0].T @ sum(qmu) + st.B[0].T @ sum(qv))
        mx("leader_stationarity", g1)

        for k, i in enumerate(followers):
            qv_others = sum((qv[l] for l in range(n - 1) if l != k),
                            start=np.zeros(p))
            gi = (st.B[i].T @ (st.Q[0] @ dx0 + lam[t + 1])
                  + st.R[0][i] @ (u[i][t] - st.u_target[0][i])
                  + st.B[i].T @ sum(qmu)
                  + (st.B[i].T @ st.Q[i] @ st.B[i] + st.R[i][i]) @ v[k][t]
                  + st.B[i].T @ qv_others)
            mx("cocontrol", gi)

            dxi = x[t + 1] - st.x_target[i]
            mx("follower_stationarity",
               st.R[i][i] @ (u[i][t] - st.u_target[i][i])
               + st.B[i].T @ (st.Q[i] @ dxi + pco[k, t + 1]))
            mx("follower_costate",
               pco[k, t] - st.A.T @ (pco[k, t + 1] + st.Q[i] @ dxi))
            mx("multiplier",
               sol.mu[k, t + 1] - (st.A @ sol.mu[k, t] + st.B[i] @ v[k][t]))

        mx("leader_costate",
           lam[t] - (st.A.T @ (st.Q[0] @ dx0 + lam[t + 1]) + st.A.T @ sum(qmu)
                     + st.A.T @ sum(qv)))
        mx("state",
           x[t + 1] - (st.A @ x[t] + st.s + sum(st.B[j] @ u[j][t] for j in range(n))))

    mx("leader_costate", lam[T])
    mx("follower_costate", pco[:, T])
    return res
