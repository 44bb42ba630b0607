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

Omitted ``s``, ``x_target`` and ``u_target`` default to zero.  Errors are
reported with JSON-pointer paths into the offending field.
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
    n = len(players)
    dims = [pl.control_dim for pl in players]

    if "stage" in doc and "stages" in doc:
        raise GameFormatError("/", "give either 'stage' (broadcast) or 'stages', not both")
    if "stage" in doc:
        stage = _parse_stage(doc["stage"], "/stage", state_dim, n, dims)
        stages = tuple(stage for _ in range(horizon))
    elif "stages" in doc:
        raw_stages = doc["stages"]
        if not isinstance(raw_stages, list):
            raise GameFormatError("/stages", "must be an array")
        if len(raw_stages) != horizon:
            raise GameFormatError("/stages", f"expected {horizon} entries, got {len(raw_stages)}")
        stages = tuple(
            _parse_stage(raw, f"/stages/{t}", state_dim, n, dims)
            for t, raw in enumerate(raw_stages)
        )
    else:
        raise GameFormatError("/", "missing 'stage' or 'stages'")

    return GameSpec(horizon=horizon, state_dim=state_dim, players=tuple(players), stages=stages)


def _require_int(doc, key, minimum):
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise GameFormatError(f"/{key}", f"must be an integer >= {minimum}")
    return value


def _parse_stage(raw, pointer, p, n, dims) -> StageData:
    if not isinstance(raw, dict):
        raise GameFormatError(pointer, "must be an object")

    if "A" not in raw:
        raise GameFormatError(f"{pointer}/A", "is required")
    A = _as_matrix(raw["A"], f"{pointer}/A", p, p, square=True)
    B = _per_player(raw, "B", pointer, n)
    Bs = [_as_matrix(B[j], f"{pointer}/B/{j}", p, dims[j]) for j in range(n)]
    Q = _per_player(raw, "Q", pointer, n)
    Qs = [_as_matrix(Q[i], f"{pointer}/Q/{i}", p, p, square=True) for i in range(n)]
    R = _per_player(raw, "R", pointer, n)
    Rs = []
    for i in range(n):
        if not isinstance(R[i], list) or len(R[i]) != n:
            raise GameFormatError(f"{pointer}/R/{i}", f"must be an array of {n} matrices")
        Rs.append([_as_matrix(R[i][j], f"{pointer}/R/{i}/{j}", dims[j], dims[j], square=True)
                   for j in range(n)])

    s = raw.get("s")
    s_vec = np.zeros(p) if s is None else _as_vector(s, f"{pointer}/s", p)

    xt = raw.get("x_target")
    if xt is None:
        x_targets = [np.zeros(p) for _ in range(n)]
    else:
        xt = _check_list(xt, f"{pointer}/x_target", n)
        x_targets = [_as_vector(xt[i], f"{pointer}/x_target/{i}", p) for i in range(n)]

    ut = raw.get("u_target")
    if ut is None:
        u_targets = [[np.zeros(dims[j]) for j in range(n)] for _ in range(n)]
    else:
        ut = _check_list(ut, f"{pointer}/u_target", n)
        u_targets = []
        for i in range(n):
            row = _check_list(ut[i], f"{pointer}/u_target/{i}", n)
            u_targets.append([_as_vector(row[j], f"{pointer}/u_target/{i}/{j}", dims[j])
                              for j in range(n)])

    return StageData(A=A, B=tuple(Bs), s=s_vec, Q=tuple(Qs),
                     R=tuple(tuple(row) for row in Rs),
                     x_target=tuple(x_targets),
                     u_target=tuple(tuple(row) for row in u_targets))


def _per_player(raw, key, pointer, n):
    value = raw.get(key)
    if value is None:
        raise GameFormatError(f"{pointer}/{key}", "is required")
    return _check_list(value, f"{pointer}/{key}", n)


def _check_list(value, pointer, n):
    if not isinstance(value, list) or len(value) != n:
        raise GameFormatError(pointer, f"must be an array with one entry per player ({n})")
    return value


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


def _as_matrix(value, pointer, rows, cols, square=False):
    arr = _as_finite(value, pointer, "matrix")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise GameFormatError(pointer, f"must be a matrix (nested array), got ndim={arr.ndim}")
    if square and arr.shape[0] != arr.shape[1]:
        raise GameFormatError(pointer, f"must be square, got shape {arr.shape}")
    if arr.shape != (rows, cols):
        raise GameFormatError(pointer, f"expected shape ({rows}, {cols}), got {arr.shape}")
    return arr


def _as_vector(value, pointer, length):
    arr = _as_finite(value, pointer, "vector")
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.shape[0] != length:
        raise GameFormatError(pointer, f"expected a vector of length {length}, got shape {arr.shape}")
    return arr
