"""Feedback Stackelberg equilibrium: one leader, n-1 followers.

Player 0 is the leader (reorder the players to change that).  Per stage,
backward:

1.  The followers' stagewise best responses to an arbitrary leader control
    decompose as r^i = W^i x + rbar^i u_leader + w^i.  The three
    coefficient families solve block systems sharing one left-hand
    operator (the follower sub-block of the stacked Nash operator), so a
    single factorization serves all three, and step 3 too.
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
from .feedback_nash import (FeedbackNashSolution, StageTerms, laws_of, stage_system,
                            terminal_values, update_values)
from .game import GameSpec, StageArrays, require_valid
from .numerics import factor, solve_dense


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
    """Unique feedback Stackelberg equilibrium with player 0 as leader:
    the one lane of :func:`sweep` that starts at stage 0."""
    require_valid(spec, for_stackelberg=True)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")
    view = StageArrays.of(spec)
    PA, Z, zeta, n_const, react = sweep(view, [0])
    m0, p = view.blocks[0].stop, spec.state_dim
    rows = [slice(b.start - m0, b.stop - m0) for b in view.blocks[1:]]
    react = react[0]
    return FeedbackStackelbergSolution(
        spec=spec, laws=laws_of(view, PA[0]), Z=Z[0], zeta=zeta[0], n_const=n_const[0],
        reactions=ReactionCoefficients(W=tuple(react[:, r, m0:m0 + p] for r in rows),
                                       rbar=tuple(react[:, r, :m0] for r in rows),
                                       w=tuple(react[:, r, -1] for r in rows)),
    )


def sweep(view: StageArrays, starts):
    """The backward sweeps of the tail games from the stages ``starts``,
    one lane each, as :func:`dyngame.feedback_nash.sweep`, whose outputs
    it returns followed by every lane's follower reactions [rbar | W | w]
    (L, T, M - m_0, m_0 + p + 1).

    Per stage, the followers' rows f of the stacked Nash system
    C [P | alpha] = rhs give the reactions, C_ff [rbar | W | w] =
    -[C_f0 | rhs_f].  Every control is then u = E u_leader + Y (x, 1) with
    E = [I; rbar] and Y = [0; W | w], and the leader solves
    E'HE [P | alpha]_leader = E'(B'Z^0 [A | s] + H Y + offsets), with
    H = B'Z^0 B + R^0 its Hessian in all controls.  The followers' gains
    then solve C_ff P_f = rhs_f - C_f0 P_leader with the same LU of C_ff.
    Each of these systems is solved for all lanes of a stage in one stacked
    call, one stacked factorisation of C_ff serving both follower solves.
    """
    starts, begin, end = view.lanes(starts)
    L = len(starts)
    terms = StageTerms.of(view)
    Z, zeta, n_const = terminal_values(view, L)
    T, p, M = view.B.shape
    m0 = view.blocks[0].stop
    f = slice(m0, M)
    PA = np.zeros((L, T, M, p + 1))
    react = np.zeros((L, T, M - m0, m0 + p + 1))  # [rbar | W | w] of the followers' rows
    # Every lane's E = [I; rbar] and Y = [0; W | w], their followers' rows
    # filled in stage by stage.
    E = np.zeros((L, M, m0))
    E[:, :m0] = np.eye(m0)
    Y = np.zeros((L, M, p + 1))
    # The leader's Q^0 xt^0 and R^0 ut^0 at every stage.
    Qxt0 = (view.Q[:, 0] @ view.xt[:, 0, :, None])[..., 0]
    Rut0 = (view.R[:, 0] @ view.ut[:, 0, :, None])[..., 0]

    for t in range(T - 1, starts[0] - 1, -1):
        a = end[t]
        Zn, zn = Z[:a, :, t + 1], zeta[:a, :, t + 1]
        C, rhs = stage_system(view, terms, t, Zn, zn)
        B, R0 = view.B[t], view.R[t, 0]
        BZ = B.T @ Zn[:, 0]
        H = BZ @ B + R0
        lin = BZ @ terms.As[t]
        offset = ((zn[:, 0] - Qxt0[t])[:, None] @ B)[:, 0] - Rut0[t]
        # Follower reaction coefficients: one operator, three right-hand sides.
        try:
            C_ff = factor(C[:, f, f], context=f"stage {t} follower reaction system")
            react[:a, t] = C_ff.solve(-np.concatenate([C[:, f, :m0], rhs[:, f]], axis=2),
                                      context=f"stage {t} follower reaction system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the follower stage systems admit no unique optimal response "
                f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc

        # Leader stage optimization through the reaction map.
        E[:a, f], Y[:a, f] = react[:a, t, :, :m0], react[:a, t, :, m0:]
        lin_l = lin + H @ Y[:a]
        lin_l[..., p] += offset
        Et = E[:a].swapaxes(1, 2)
        PA[:a, t, :m0] = solve_dense(Et @ H @ E[:a], Et @ lin_l, context=f"stage {t} leader system")

        # Follower gains/offsets from their first-order systems at the
        # leader's law (reaction identity left as a cross-check).
        PA[:a, t, f] = C_ff.solve(rhs[:, f] - C[:, f, :m0] @ PA[:a, t, :m0],
                                  context=f"stage {t} follower gain/offset system")
        update_values(view, terms, t, PA[:a, t], Z[:a], zeta[:a], n_const[:a], begin[t])
    return PA, Z, zeta, n_const, react
