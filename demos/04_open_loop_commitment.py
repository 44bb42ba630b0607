"""Open-loop equilibria: committed sequences, stationarity, and (in)consistency.

Open-loop players commit whole control paths at time zero.  The evidence
of first-order optimality is :func:`dyngame.verify.stationarity`: one
costate pass along the played path, which reads only the game and the
committed controls, gives each player's largest gradient of its total
cost in its own controls (the leader's through the followers' best
response).  Open-loop Nash survives mid-game re-solving from an on-path
state; the open-loop Stackelberg leader's plan generally does not once
its commitment multipliers are reset.
"""

import numpy as np

from dyngame import openloop_nash, openloop_stackelberg, truncate, verify

from dyngame import constant_game

game = constant_game(
    A=[[0.9, 0.2], [0.0, 0.85]],
    B=[[[0.4], [0.0]], [[0.0], [0.5]]],
    Q=[np.diag([1.0, 0.3]), np.diag([0.3, 1.0])],
    R=[[[[1.0]], [[0.2]]], [[[0.0]], [[1.0]]]],
    T=6,
)
x0 = np.array([1.0, -1.0])

nash = openloop_nash.solve(game, x0)
print("open-loop Nash committed controls (player 1):",
      np.round(nash.trajectory.controls[0].ravel(), 4))
print("stationarity per player:",
      {i: f"{r:.1e}" for i, r in verify.stationarity(game, nash, verify.OPEN_LOOP).items()})

# Weak time consistency: re-solving the tail from the on-path state x_3
# reproduces the committed tail.
s = 3
tail = openloop_nash.solve(truncate(game, s), nash.trajectory.states[s])
print(f"\nNash tail re-solve gap at stage {s}:",
      np.abs(tail.trajectory.controls[0] - nash.trajectory.controls[0][s:]).max())

# Open-loop Stackelberg: the leader's plan leans on commitment.
stack = openloop_stackelberg.solve(game, x0)
print("\nleader's committed sequence:", np.round(stack.trajectory.controls[0].ravel(), 4))
print("stationarity per player:",
      {i: f"{r:.1e}" for i, r in verify.stationarity(game, stack, verify.OPEN_LOOP).items()})

inherited = openloop_stackelberg.solve(truncate(game, s), stack.trajectory.states[s],
                                       initial_mu=stack.mu[:, s])
reset = openloop_stackelberg.solve(truncate(game, s), stack.trajectory.states[s])
gap_inh = np.abs(inherited.trajectory.controls[0] - stack.trajectory.controls[0][s:]).max()
gap_rst = np.abs(reset.trajectory.controls[0] - stack.trajectory.controls[0][s:]).max()
print(f"\ntail gap, multipliers inherited: {gap_inh:.2e}   (plan holds)")
print(f"tail gap, multipliers reset:     {gap_rst:.2e}   (plan re-opens)")
