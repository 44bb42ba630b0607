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
from .game import GameSpec, require_valid
from .numerics import solve_dense


@dataclass(frozen=True)
class ReactionCoefficients:
    """Stagewise follower reaction maps r^i = W^i x + rbar^i u_leader + w^i.

    Indexed ``[t][i]`` with i = 0 the *first follower* (player 1 of the
    game).  ``rbar`` is the sensitivity of follower i's stage reaction to
    the leader's stage control.
    """

    W: tuple[tuple[np.ndarray, ...], ...]     # (m_i, p)
    rbar: tuple[tuple[np.ndarray, ...], ...]  # (m_i, m_leader)
    w: tuple[tuple[np.ndarray, ...], ...]     # (m_i,)


@dataclass(frozen=True)
class FeedbackStackelbergSolution(FeedbackNashSolution):
    reactions: ReactionCoefficients = None

    def stage_reaction(self, t: int, x: np.ndarray, u_leader: np.ndarray) -> list[np.ndarray]:
        """Followers' optimal stage-t responses to an arbitrary leader control,
        given equilibrium continuation from stage t+1 on."""
        x = np.asarray(x, dtype=float)
        u_leader = np.atleast_1d(np.asarray(u_leader, dtype=float))
        return [
            self.reactions.W[t][i] @ x + self.reactions.rbar[t][i] @ u_leader
            + self.reactions.w[t][i]
            for i in range(self.spec.n_players - 1)
        ]


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

    gains: list[tuple[np.ndarray, ...]] = [None] * T
    offsets: list[tuple[np.ndarray, ...]] = [None] * T
    W_all: list[tuple[np.ndarray, ...]] = [None] * T
    rbar_all: list[tuple[np.ndarray, ...]] = [None] * T
    w_all: list[tuple[np.ndarray, ...]] = [None] * T

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
        rbar_all[t], W_all[t], w_all[t] = tuple(rbar), tuple(W), tuple(w)

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
        gains[t] = tuple(P)
        offsets[t] = tuple(alpha)

        _update_quadratics(spec, t, P, alpha, Z, zeta, n_const)

    return FeedbackStackelbergSolution(
        spec=spec, gains=tuple(gains), offsets=tuple(offsets),
        Z=Z, zeta=zeta, n_const=n_const,
        reactions=ReactionCoefficients(W=tuple(W_all), rbar=tuple(rbar_all), w=tuple(w_all)),
    )


def reaction_consistency(sol: FeedbackStackelbergSolution) -> float:
    """Max violation of P^i = -W^i + rbar^i P_leader (and the offset analog)."""
    worst = 0.0
    for t in range(sol.spec.horizon):
        P1, a1 = sol.gains[t][0], sol.offsets[t][0]
        for k in range(sol.spec.n_players - 1):
            P_pred = -sol.reactions.W[t][k] + sol.reactions.rbar[t][k] @ P1
            a_pred = -sol.reactions.w[t][k] + sol.reactions.rbar[t][k] @ a1
            worst = max(worst,
                        np.abs(P_pred - sol.gains[t][k + 1]).max(initial=0.0),
                        np.abs(a_pred - sol.offsets[t][k + 1]).max(initial=0.0))
    return float(worst)


def crosscheck_two_player_lq(spec: GameSpec) -> float:
    """Two-player linear-quadratic cross-check via push-through closed forms.

    Requires n = 2, zero drift and targets, and identity own-control
    weights.  The leader gain is then expressible in closed form with the
    push-through inverse identities (no reaction coefficients appear);
    returns the max gain deviation from :func:`solve`.  This guards the
    exact closed-form expression, which is easy to get wrong.
    """
    _require_two_player_lq(spec)
    main = solve(spec)
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

        worst = max(worst,
                    np.abs(S1 - main.gains[t][0]).max(initial=0.0),
                    np.abs(S2 - main.gains[t][1]).max(initial=0.0))

        F = A - B1 @ S1 - B2 @ S2
        for i, (Si, Sj, Rij) in enumerate(((S1, S2, st.R[0][1]), (S2, S1, st.R[1][0]))):
            Lt = (F.T @ L[i, t + 1] @ F + Si.T @ Si + Sj.T @ Rij @ Sj
                  + spec.prev_state_weight(t, i))
            L[i, t] = 0.5 * (Lt + Lt.T)
    return float(worst)


def _require_two_player_lq(spec: GameSpec) -> None:
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
