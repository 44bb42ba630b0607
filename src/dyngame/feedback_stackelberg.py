"""Feedback Stackelberg equilibrium: one leader, n-1 followers.

Player 0 is the leader (reorder the players to change that).  Per stage,
backward:

1.  The followers' stagewise best responses to an arbitrary leader control
    decompose as r^i = W^i x + rbar^i u_leader + w^i.  The three
    coefficient families solve block systems sharing one left-hand
    operator C_ff (the follower sub-block of the stacked Nash operator),
    so one solve with three right-hand-side families gives all three;
    step 3 solves with C_ff once more.
2.  The leader minimizes its stage cost-to-go through that reaction map;
    its stage Hessian is PD whenever the leader's cross control weights
    are PSD, so the leader solve cannot go singular for validated games.
3.  Follower gains/offsets are then recovered from their own first-order
    systems at the leader's equilibrium law (not via the reaction
    identity, which is kept as an independently checkable invariant:
    P^i = -W^i + rbar^i P_leader and likewise for the offsets).
4.  Everyone's value Z~ updates through the closed loop as in the Nash
    recursion, on the augmented state (x, 1) of :mod:`dyngame.feedback_nash`.

Like the feedback Nash solution, the result is strongly time consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGameError
from .feedback_nash import (FeedbackNashSolution, StageTerms, laws_of, stage_system,
                            sweep_arrays, update_values, values_of)
from .game import (GameSpec, StageArrays, initial_state, require_index, require_valid,
                   require_vector)
from .numerics import Checks, Site

#: Each stage's systems: the followers' block C_ff, solved once for their
#: reactions and once for their gains, and the leader's.
REACTIONS = Site("follower reaction system",
                 "the follower stage systems admit no unique optimal response")
LEADER = Site("leader system")
FOLLOWER_GAINS = Site("follower gain/offset system")


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
        require_index("stage", t, self.spec.horizon - 1)
        x = initial_state(self.spec, x, name="x")
        u_leader = require_vector("u_leader", u_leader if np.ndim(u_leader) else [u_leader],
                                  self.spec.control_dims[0])
        r = self.reactions
        return [r.W[k][t] @ x + r.rbar[k][t] @ u_leader + r.w[k][t]
                for k in range(self.spec.n_players - 1)]


def solve(spec: GameSpec) -> FeedbackStackelbergSolution:
    """Unique feedback Stackelberg equilibrium with player 0 as leader."""
    view = require_valid(spec, for_stackelberg=True)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")
    PA, Z, zeta, n_const, react = sweep(view)
    m0, p = view.blocks[0].stop, spec.state_dim
    rows = [slice(b.start - m0, b.stop - m0) for b in view.blocks[1:]]
    return FeedbackStackelbergSolution(
        spec=spec, laws=laws_of(view, PA), Z=Z, zeta=zeta, n_const=n_const,
        reactions=ReactionCoefficients(W=tuple(react[:, r, m0:m0 + p] for r in rows),
                                       rbar=tuple(react[:, r, :m0] for r in rows),
                                       w=tuple(react[:, r, -1] for r in rows)),
    )


def sweep(view: StageArrays):
    """The backward sweep of a validated game's view, as
    :func:`dyngame.feedback_nash.sweep`, whose outputs it returns followed
    by the follower reactions [rbar | W | w] (T, M - m_0, m_0 + p + 1).

    Per stage, the followers' rows f of the stacked Nash system
    C [P | alpha] = rhs give the reactions, C_ff [rbar | W | w] =
    -[C_f0 | rhs_f].  Every control is then u = E u_leader + Y (x, 1) with
    E = [I; rbar] and Y = [0; W | w], and the leader solves
    E'HE [P | alpha]_leader = E'(B'Z~^0[:p] A~ + H Y - [0 | R^0 ut^0]), with
    H = B'Z^0 B + R^0 its Hessian in all controls.  The followers' gains
    then solve C_ff P_f = rhs_f - C_f0 P_leader.  Each of these three
    systems is a checked call, and all are tested once the stages are
    done.  Eliminating C_ff twice per stage is cheap, gives the same bits
    as reusing the first elimination, and keeps one kind of checked call.
    """
    terms = StageTerms.of(view)
    K, Z = sweep_arrays(terms)
    T, p, M = view.B.shape
    m0 = view.blocks[0].stop
    f = slice(m0, M)
    react = np.zeros((T, M - m0, m0 + p + 1))  # [rbar | W | w] of the followers' rows
    # E = [I; rbar] and Y = [0; W | w], their followers' rows set per stage.
    E, Y = np.eye(M, m0), np.zeros((M, p + 1))

    with Checks.sweep(T) as checks:
        for t in range(T - 1, -1, -1):
            BZ = view.B[t].T @ Z[:, t + 1, :p]
            C, rhs = stage_system(view, terms, t, BZ)
            H = BZ[0, :, :p] @ view.B[t] + view.R[t, 0]  # the leader's, in all controls
            # Follower reaction coefficients: one operator, three right-hand sides.
            C_ff = C[f, f]
            react[t] = checks.solve(C_ff, -np.concatenate([C[f, :m0], rhs[f]], axis=1),
                                    site=REACTIONS, stage=t)

            # Leader stage optimization through the reaction map.
            E[f], Y[f] = react[t, :, :m0], react[t, :, m0:]
            lin = BZ[0] @ terms.A[t] + H @ Y
            lin[:, p] += terms.R[t, 0, :M, M]
            K[t, :m0] = checks.solve(E.T @ H @ E, E.T @ lin, site=LEADER, stage=t)

            # Follower gains/offsets from their first-order systems at the
            # leader's law (reaction identity left as a cross-check).
            K[t, f] = checks.solve(C_ff, rhs[f] - C[f, :m0] @ K[t, :m0],
                                   site=FOLLOWER_GAINS, stage=t)
            update_values(terms, t, K[t], Z)
    return (K[:, :-1], *values_of(terms, Z), react)
