"""Single-player affine-quadratic control: the n = 1 backbone.

Solves a two-state tracking problem, confirms the quadratic value function
against a realized rollout, and checks the optimal path against the
open-loop Nash solver, an independent formulation, run on the same
one-player game.
"""

import numpy as np

from dyngame import constant_game, lqr, openloop_nash, rollout

# Inventory + backlog dynamics with a seasonal drift; one control channel.
game = constant_game(
    A=[[0.95, 0.10], [0.00, 0.80]],
    B=[[[0.5], [0.2]]],
    Q=[[[1.0, 0.0], [0.0, 0.5]]],
    R=[[[[0.2]]]],
    T=12,
    s=[0.05, -0.02],
)

sol = lqr.solve_control(game)
x0 = np.array([1.0, -0.5])

law = sol.laws[0]  # the player's law sequence, G (T, m, p) and g (T, m)
print("stage 0 law: u =", law.G[0], "x +", law.g[0])
print("predicted optimal cost:", sol.value(x0))

traj = rollout(game, sol.laws, x0)
print("realized rollout cost: ", traj.total_costs[0])

# The value coefficients satisfy the one-step recursion at every stage.
rng = np.random.default_rng(0)
x = rng.standard_normal(2)
t = 4
u = law.G[t] @ x + law.g[t]
st = game.stages[t]
x_next = st.A @ x + st.B[0] @ u + st.s
from dyngame import stage_cost
gap = sol.cost_to_go(t, x) - (stage_cost(game, 0, t, x_next, [u])
                              + sol.cost_to_go(t + 1, x_next))
print(f"one-step value recursion gap at t={t}: {gap:.2e}")

# The control solver is feedback Nash's recursion on one player.  The
# open-loop Nash solver reaches the same optimal path through the costates.
path = openloop_nash.solve(game, x0).trajectory
print("path gap to open-loop Nash:",
      max(np.abs(path.states - traj.states).max(),
          np.abs(path.controls[0] - traj.controls[0]).max()))
