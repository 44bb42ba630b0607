"""Finite-horizon affine-quadratic dynamic games.

Solvers for feedback and open-loop Nash and Stackelberg equilibria of
n-player discrete-time games with affine dynamics and quadratic costs,
plus independent verification oracles (finite-difference stationarity,
sampled deviation gaps, time-consistency re-solves, definiteness
monitors) and a JSON/CSV command-line front end.
"""

from . import (feedback_nash, feedback_stackelberg, lqr, numerics,
               openloop_nash, openloop_stackelberg, solvers, verify)
from .errors import DynGameError, InvalidGameError, SingularSystemError
from .game import (AffineLaw, GameSpec, Player, StageData, Trajectory,
                   constant_game, reorder_players, rollout, stage_cost, total_cost,
                   truncate, validate)
from .gameio import GameFormatError, game_from_dict, game_to_dict, load_game, save_game

__version__ = "0.1.0"

__all__ = [
    "AffineLaw", "DynGameError", "GameFormatError",
    "GameSpec", "InvalidGameError", "Player", "SingularSystemError",
    "StageData", "Trajectory", "constant_game", "feedback_nash",
    "feedback_stackelberg", "game_from_dict", "game_to_dict", "load_game",
    "lqr", "numerics", "openloop_nash",
    "openloop_stackelberg", "reorder_players", "rollout", "save_game",
    "solvers", "stage_cost", "total_cost", "truncate",
    "validate", "verify",
]
