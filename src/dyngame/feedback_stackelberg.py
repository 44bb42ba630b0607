"""Feedback Stackelberg equilibrium: one leader, n-1 followers.

Player 0 is the leader (reorder the players to change that).  Per stage,
backward:

1.  The followers' stagewise best responses to an arbitrary leader control
    decompose as r^i = W^i x + rbar^i u_leader + w^i.  The three
    coefficient families solve block systems sharing one left-hand
    operator (the follower sub-block of the stacked Nash operator), so a
    single factorization serves all three.
2.  The leader minimizes its stage cost-to-go through that reaction map;
    its stage Hessian is PD whenever the leader's cross control weights
    are PSD, so the leader solve cannot go singular for validated games.
3.  Follower gains/offsets are then recovered from their own first-order
    systems at the leader's equilibrium law (not via the reaction
    identity, which is kept as an independently checkable invariant:
    P^i = -W^i + rbar^i P_leader and likewise for the offsets).
4.  Everyone's Z/zeta/n update through the closed loop exactly as in the
    Nash recursion.

Like the feedback Nash solution, the result is strongly time consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGameError, SingularSystemError
from .feedback_nash import (FeedbackNashSolution, _split, _update_quadratics, gain_rhs,
                            stacked_stage_operator, stage_rhs)
from .game import AffineLaw, GameSpec, require_valid
from .numerics import solve_dense


@dataclass(frozen=True)
class ReactionCoefficients:
    """Stagewise follower reaction maps r^i = W^i x + rbar^i u_leader + w^i.

    One array per follower, stacked over stages and indexed ``[k][t]``
    with k = 0 the *first follower* (player 1 of the game).  ``rbar`` is
    the sensitivity of follower k's stage reaction to the leader's stage
    control.
    """

    W: tuple[np.ndarray, ...]     # (T, m_k, p)
    rbar: tuple[np.ndarray, ...]  # (T, m_k, m_leader)
    w: tuple[np.ndarray, ...]     # (T, m_k)


@dataclass(frozen=True)
class FeedbackStackelbergSolution(FeedbackNashSolution):
    reactions: ReactionCoefficients = None

    def stage_reaction(self, t: int, x: np.ndarray, u_leader: np.ndarray) -> list[np.ndarray]:
        """Followers' optimal stage-t responses to an arbitrary leader control,
        given equilibrium continuation from stage t+1 on."""
        x = np.asarray(x, dtype=float)
        u_leader = np.atleast_1d(np.asarray(u_leader, dtype=float))
        r = self.reactions
        return [r.W[k][t] @ x + r.rbar[k][t] @ u_leader + r.w[k][t]
                for k in range(self.spec.n_players - 1)]


def solve(spec: GameSpec) -> FeedbackStackelbergSolution:
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


def reaction_consistency(sol: FeedbackStackelbergSolution) -> float:
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
