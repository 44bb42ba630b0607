"""Reading and writing game definitions as JSON documents.

Document layout (matrices are row-major nested arrays)::

    {
      "horizon": 3,
      "state_dim": 2,
      "players": [{"name": "leader", "control_dim": 1}, ...],
      "stages": [ {stage}, {stage}, {stage} ]     // or
      "stage":  {stage}                           // broadcast to all stages
    }

    stage = {
      "A": [[...]], "B": [ [[...]] per player ], "s": [...],
      "Q": [ [[...]] per player ],
      "R": [ [ [[...]] per column-player ] per row-player ],
      "x_target": [ [...] per player ],
      "u_target": [ [ [...] per column-player ] per row-player ]
    }

Omitted ``s``, ``x_target`` and ``u_target`` default to zero.  The loader
refuses only what a document alone can get wrong, each with a JSON-pointer
path to the offending field: its structure (objects, arrays, required keys,
``stage`` xor ``stages``), the header integers, and entries that are not
finite numbers.  Shapes, per-player counts and the stage count are the game
model's to judge: a misshapen file loads into a :class:`GameSpec` whose
:func:`~dyngame.game.validate` lists every fault, as for the same game built
in code.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidGameError
from .game import GameSpec, Player, StageData


class GameFormatError(InvalidGameError):
    """A game document violates the schema; ``pointer`` locates the field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def load_game(path) -> GameSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GameFormatError("/", f"cannot read game file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GameFormatError("/", f"game file is not UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GameFormatError("/", f"malformed JSON: {exc}") from exc
    return game_from_dict(doc)


def save_game(spec: GameSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def game_to_dict(spec: GameSpec) -> dict:
    return {
        "horizon": spec.horizon,
        "state_dim": spec.state_dim,
        "players": [
            {"name": pl.name, "control_dim": pl.control_dim} for pl in spec.players
        ],
        "stages": [
            {
                "A": st.A.tolist(),
                "B": [b.tolist() for b in st.B],
                "s": st.s.tolist(),
                "Q": [q.tolist() for q in st.Q],
                "R": [[r.tolist() for r in row] for row in st.R],
                "x_target": [x.tolist() for x in st.x_target],
                "u_target": [[u.tolist() for u in row] for row in st.u_target],
            }
            for st in spec.stages
        ],
    }


def game_from_dict(doc) -> GameSpec:
    if not isinstance(doc, dict):
        raise GameFormatError("/", "top level must be an object")

    horizon = _require_int(doc, "horizon", minimum=1)
    state_dim = _require_int(doc, "state_dim", minimum=1)

    raw_players = doc.get("players")
    if not isinstance(raw_players, list) or not raw_players:
        raise GameFormatError("/players", "must be a non-empty array")
    players = []
    for i, item in enumerate(raw_players):
        if not isinstance(item, dict):
            raise GameFormatError(f"/players/{i}", "must be an object")
        m = item.get("control_dim")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise GameFormatError(f"/players/{i}/control_dim", "must be a positive integer")
        players.append(Player(control_dim=m, name=str(item.get("name", f"P{i + 1}"))))
    dims = [pl.control_dim for pl in players]

    if "stage" in doc and "stages" in doc:
        raise GameFormatError("/", "give either 'stage' (broadcast) or 'stages', not both")
    if "stage" in doc:
        stage = _parse_stage(doc["stage"], "/stage", state_dim, dims)
        stages = tuple(stage for _ in range(horizon))
    elif "stages" in doc:
        raw_stages = doc["stages"]
        if not isinstance(raw_stages, list):
            raise GameFormatError("/stages", "must be an array")
        stages = tuple(_parse_stage(raw, f"/stages/{t}", state_dim, dims)
                       for t, raw in enumerate(raw_stages))
    else:
        raise GameFormatError("/", "missing 'stage' or 'stages'")

    return GameSpec(horizon=horizon, state_dim=state_dim, players=tuple(players), stages=stages)


def _require_int(doc, key, minimum):
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise GameFormatError(f"/{key}", f"must be an integer >= {minimum}")
    return value


def _parse_stage(raw, pointer, p, dims) -> StageData:
    """The stage ``raw`` as given, its shapes and counts left to the game model."""
    if not isinstance(raw, dict):
        raise GameFormatError(pointer, "must be an object")
    n = len(dims)

    if "A" not in raw:
        raise GameFormatError(f"{pointer}/A", "is required")
    A = _as_finite(raw["A"], f"{pointer}/A", "matrix")
    B, Q = (_arrays(_required(raw, key, pointer), f"{pointer}/{key}", n) for key in "BQ")
    R = []
    for i, row in enumerate(_check_list(_required(raw, "R", pointer), f"{pointer}/R", n)):
        if not isinstance(row, list):
            raise GameFormatError(f"{pointer}/R/{i}", f"must be an array of {n} matrices")
        R.append(_arrays(row, f"{pointer}/R/{i}", n))

    s = raw.get("s")
    s = np.zeros(p) if s is None else _as_finite(s, f"{pointer}/s", "vector")

    xt = raw.get("x_target")
    xt = ([np.zeros(p) for _ in range(n)] if xt is None
          else _arrays(xt, f"{pointer}/x_target", n, "vector"))

    ut = raw.get("u_target")
    ut = ([[np.zeros(m) for m in dims] for _ in range(n)] if ut is None
          else [_arrays(row, f"{pointer}/u_target/{i}", n, "vector")
                for i, row in enumerate(_check_list(ut, f"{pointer}/u_target", n))])

    return StageData(A=A, B=B, s=s, Q=Q, R=R, x_target=xt, u_target=ut)


def _required(raw, key, pointer):
    value = raw.get(key)
    if value is None:
        raise GameFormatError(f"{pointer}/{key}", "is required")
    return value


def _check_list(value, pointer, n):
    if not isinstance(value, list):
        raise GameFormatError(pointer, f"must be an array with one entry per player ({n})")
    return value


def _arrays(value, pointer, n, kind="matrix"):
    """``value``, an array, its entry j as :func:`_as_finite` reads it, at ``pointer/j``."""
    return [_as_finite(v, f"{pointer}/{j}", kind) for j, v in enumerate(_check_list(value, pointer, n))]


def _as_finite(value, pointer, kind):
    """``value`` as a float array of finite numbers: JSON's booleans and
    strings, ``NaN``/``Infinity`` and numbers beyond the float range are refused."""
    _require_numbers(value, pointer)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GameFormatError(pointer, f"not a numeric {kind}: {exc}") from exc
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise GameFormatError(pointer, f"entries must be finite numbers, got {bad[0]}")
    return arr


def _require_numbers(value, pointer):
    """Refuse a boolean or string among the entries of nested arrays."""
    if isinstance(value, list) and not set(map(type, value)) <= {float, int}:
        for item in value:
            _require_numbers(item, pointer)
    elif isinstance(value, (bool, str)):
        raise GameFormatError(pointer, f"entries must be numbers, got {json.dumps(value)}")
