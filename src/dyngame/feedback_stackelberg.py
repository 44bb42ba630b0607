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
from .feedback_nash import (FeedbackNashSolution, laws_of, stage_system, terminal_values,
                            update_values)
from .game import GameSpec, StageArrays, require_valid
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
    """Unique feedback Stackelberg equilibrium with player 0 as leader.

    Per stage, the followers' rows f of the stacked Nash system
    C [P | alpha] = rhs give the reactions, C_ff [rbar | W | w] =
    -[C_f0 | rhs_f].  Every control is then u = E u_leader + Y (x, 1) with
    E = [I; rbar] and Y = [0; W | w], and the leader solves
    E'HE [P | alpha]_leader = E'(B'Z^0 [A | s] + H Y + offsets), with
    H = B'Z^0 B + R^0 its Hessian in all controls.
    """
    require_valid(spec, for_stackelberg=True)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")

    view = StageArrays.of(spec)
    Z, zeta, n_const = terminal_values(view)
    T, p, M = view.B.shape
    m0 = view.blocks[0].stop
    f = slice(m0, M)
    PA = np.empty((T, M, p + 1))
    react = np.empty((T, M - m0, m0 + p + 1))  # [rbar | W | w] of the followers' rows

    for t in range(T - 1, -1, -1):
        Zn, zn = Z[:, t + 1], zeta[:, t + 1]
        C, rhs = stage_system(view, t, Zn, zn)
        # Follower reaction coefficients: one operator, three right-hand sides.
        try:
            react[t] = solve_dense(C[f, f], -np.hstack([C[f, :m0], rhs[f]]),
                                   context=f"stage {t} follower reaction system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the follower stage systems admit no unique optimal response "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc

        # Leader stage optimization through the reaction map.
        E = np.vstack([np.eye(m0), react[t, :, :m0]])
        Y = np.vstack([np.zeros((m0, p + 1)), react[t, :, m0:]])
        B, R0 = view.B[t], view.R[t, 0]
        BZ = B.T @ Zn[0]
        H = BZ @ B + R0
        lin = BZ @ np.column_stack([view.A[t], view.s[t]]) + H @ Y
        lin[:, p] += (zn[0] - view.Q[t, 0] @ view.xt[t, 0]) @ B - R0 @ view.ut[t, 0]
        PA[t, :m0] = solve_dense(E.T @ H @ E, E.T @ lin, context=f"stage {t} leader system")

        # Follower gains/offsets from their first-order systems at the
        # leader's law (reaction identity left as a cross-check).
        PA[t, f] = solve_dense(C[f, f], rhs[f] - C[f, :m0] @ PA[t, :m0],
                               context=f"stage {t} follower gain/offset system")
        update_values(view, t, PA[t], Z, zeta, n_const)

    rows = [slice(b.start - m0, b.stop - m0) for b in view.blocks[1:]]
    return FeedbackStackelbergSolution(
        spec=spec, laws=laws_of(view, PA), Z=Z, zeta=zeta, n_const=n_const,
        reactions=ReactionCoefficients(W=tuple(react[:, r, m0:m0 + p] for r in rows),
                                       rbar=tuple(react[:, r, :m0] for r in rows),
                                       w=tuple(react[:, r, -1] for r in rows)),
    )
