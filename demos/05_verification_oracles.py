"""The verification battery: judging a solution without trusting the solver.

Every check uses only rollouts, finite differences, sampled deviations and
re-solves of reduced games.  A correct equilibrium passes; a deliberately
corrupted gain is caught by the sampled-deviation oracle.
"""

import json

import numpy as np

from dyngame import AffineLaw, feedback_nash, verify
from dyngame import constant_game

game = constant_game(
    A=[[0.9, 0.1], [-0.2, 0.8]],
    B=[[[0.5], [0.1]], [[0.0], [0.6]]],
    Q=[np.eye(2), np.diag([0.5, 2.0])],
    R=[[[[1.0]], [[0.3]]], [[[0.2]], [[1.0]]]],
    T=5,
    s=[0.1, 0.0],
)
x0 = np.array([1.0, 0.5])

sol = feedback_nash.solve(game)
report = verify.run_verification(game, sol, verify.FEEDBACK, "feedback-nash",
                                 x0=x0, samples=100, seed=7)
print("equilibrium report:")
print(json.dumps({k: report.as_dict()[k] for k in
                  ("stationarity", "deviation_gaps", "failures", "passed")},
                 indent=2))

# Corrupt player 1's stage-0 gain and run the same battery.
G = sol.laws[0].G.copy()
G[0] -= 0.25
bad = feedback_nash.FeedbackNashSolution(
    spec=game, laws=(AffineLaw(G, sol.laws[0].g), sol.laws[1]),
    Z=sol.Z, zeta=sol.zeta, n_const=sol.n_const)

bad_report = verify.run_verification(game, bad, verify.FEEDBACK, "feedback-nash",
                                     x0=x0, samples=100, seed=7)
print("\ncorrupted-gain report:")
for failure in bad_report.failures:
    print("  caught:", failure)

# The monitored value-matrix spectra (all PSD for a clean solve):
log = verify.definiteness_monitor(sol)
print("\nmin monitored eigenvalue:",
      min(e.min_eigenvalue for e in log.entries))
