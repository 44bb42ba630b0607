"""Feedback Nash vs feedback Stackelberg on the same game.

A fiscal authority (player 1) and a central bank (player 2) both steer
the output gap but disagree on targets.  Moving second-by-anticipation
pays: the fiscal authority's cost drops when it leads each stage and the
bank best-responds.
"""

import numpy as np

from dyngame import constant_game, feedback_nash, feedback_stackelberg, rollout

game = constant_game(
    A=[[0.8]],
    B=[[[0.5]], [[0.6]]],          # spending shifts the gap up, rates down
    Q=[[[1.0]], [[1.5]]],
    R=[[[[0.8]], [[0.1]]], [[[0.0]], [[1.0]]]],
    T=6,
    x_target=[[0.3], [0.0]],       # fiscal wants a boom, the bank wants zero
    names=["fiscal", "bank"],
)
x0 = np.array([1.0])

nash = feedback_nash.solve(game)
stack = feedback_stackelberg.solve(game)

nash_traj = rollout(game, nash.laws, x0)
stack_traj = rollout(game, stack.laws, x0)

print("               Nash        Stackelberg (fiscal leads)")
for i, name in enumerate(["fiscal", "bank"]):
    print(f"{name:8s} {nash_traj.total_costs[i]:12.5f} {stack_traj.total_costs[i]:16.5f}")
print("\nleadership advantage for fiscal:",
      nash_traj.total_costs[0] - stack_traj.total_costs[0])

# The solution carries the bank's stagewise reaction map: how its stage
# decision would answer any fiscal move, given equilibrium continuation.
t = 0
for u1 in (0.0, -0.2, -0.4):
    r = stack.stage_reaction(t, x0, np.array([u1]))[0]
    print(f"bank's stage-0 reaction to fiscal move {u1:+.1f}: {r[0]:+.4f}")

# Both equilibria are strongly time consistent: tail laws re-solve exactly.
from dyngame import truncate
tail = feedback_nash.solve(truncate(game, 3))
print("\ntail re-solve gain gap at stage 3:",
      np.abs(tail.laws[0].G[0] - nash.laws[0].G[3]).max())
