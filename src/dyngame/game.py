"""Affine-quadratic dynamic game definitions, cost evaluation and rollout.

Conventions used throughout the package:

* Decision stages are ``t = 0 .. T-1``; ``x_t`` is the state *before* the
  stage-t decision.  The state equation is

      x_{t+1} = A_t x_t + sum_j B_t^j u_t^j + s_t

* The stage-t cost of player i is charged on the *next* state and the
  stage-t controls,

      g_t^i = 1/2 (x_{t+1} - xt_i)' Q_t^i (x_{t+1} - xt_i)
            + 1/2 sum_j (u_t^j - ut_ij)' R_t^ij (u_t^j - ut_ij)

  with per-player state targets ``xt_i`` and per-pair control targets
  ``ut_ij``.  No cost is charged on the initial state.

* All reported decision rules use the single convention ``u = G x + g``,
  stored per player as one :class:`AffineLaw` over the whole horizon;
  solvers whose natural recursions produce ``u = -P x - alpha`` negate
  as they fill it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import InvalidGameError
from .numerics import SYMMETRY_RTOL, asymmetry


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _repair_symmetry(M: np.ndarray) -> np.ndarray:
    """Average away asymmetry within the repair tolerance, else leave as-is.

    Anything beyond the tolerance, and any matrix that is not finite, is
    left untouched so that validation can report it instead of silently
    rewriting the game.  The halves are summed, not the entries, so finite
    weights near the float range do not overflow.
    """
    if M.ndim == 2 and M.shape[0] == M.shape[1] and np.isfinite(M).all():
        gap, too_large = asymmetry(M, SYMMETRY_RTOL)
        if 0.0 < gap and not too_large:
            return 0.5 * M + 0.5 * M.T
    return M


@dataclass(frozen=True)
class Player:
    control_dim: int
    name: str = ""


@dataclass(frozen=True)
class StageData:
    """Data of one decision stage: dynamics and every player's cost weights.

    ``B``/``Q``/``x_target`` are per player; ``R``/``u_target`` are per
    ordered pair (i, j): R[i][j] weighs player j's control in player i's
    cost.
    """

    A: np.ndarray
    B: tuple[np.ndarray, ...]
    s: np.ndarray
    Q: tuple[np.ndarray, ...]
    R: tuple[tuple[np.ndarray, ...], ...]
    x_target: tuple[np.ndarray, ...]
    u_target: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(np.atleast_2d(np.asarray(self.A, dtype=float))))
        object.__setattr__(self, "B", tuple(_freeze(np.atleast_2d(b)) for b in self.B))
        object.__setattr__(self, "s", _freeze(np.atleast_1d(np.asarray(self.s, dtype=float))))
        object.__setattr__(
            self, "Q", tuple(_freeze(_repair_symmetry(np.atleast_2d(np.asarray(q, dtype=float)))) for q in self.Q)
        )
        object.__setattr__(
            self,
            "R",
            tuple(
                tuple(_freeze(_repair_symmetry(np.atleast_2d(np.asarray(r, dtype=float)))) for r in row)
                for row in self.R
            ),
        )
        object.__setattr__(self, "x_target", tuple(_freeze(np.atleast_1d(x)) for x in self.x_target))
        object.__setattr__(
            self, "u_target", tuple(tuple(_freeze(np.atleast_1d(u)) for u in row) for row in self.u_target)
        )


@dataclass(frozen=True)
class GameSpec:
    """A finite-horizon affine-quadratic game.

    Immutable after construction; all solver entry points are pure
    functions of a GameSpec, so instances can be shared across threads.
    """

    horizon: int
    state_dim: int
    players: tuple[Player, ...]
    stages: tuple[StageData, ...]

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def control_dims(self) -> tuple[int, ...]:
        return tuple(pl.control_dim for pl in self.players)

    def prev_state_weight(self, t: int, player: int) -> np.ndarray:
        """Weight charged on x_t, i.e. stage t-1's Q; zero at t = 0.

        The backward recursions index their quadratic coefficients so that
        the coefficient at time t absorbs this weight; converting back to a
        plain cost-to-go subtracts it.
        """
        if t == 0:
            return np.zeros((self.state_dim, self.state_dim))
        return self.stages[t - 1].Q[player]


def constant_game(A, B, Q, R, T, s=None, x_target=None, u_target=None,
                  names=None) -> GameSpec:
    """GameSpec with one StageData broadcast to all T stages, filling
    omitted drift/targets with zeros."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in B)
    p, n = A.shape[0], len(B)
    dims = [b.shape[1] for b in B]
    if s is None:
        s = np.zeros(p)
    if x_target is None:
        x_target = [np.zeros(p)] * n
    if u_target is None:
        u_target = [[np.zeros(m) for m in dims]] * n
    if names is None:
        names = [f"P{i + 1}" for i in range(n)]
    stage = StageData(A=A, B=B, s=s, Q=tuple(Q), R=tuple(tuple(row) for row in R),
                      x_target=tuple(x_target), u_target=tuple(tuple(row) for row in u_target))
    players = tuple(Player(control_dim=m, name=names[i]) for i, m in enumerate(dims))
    return GameSpec(horizon=T, state_dim=p, players=players, stages=(stage,) * T)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    location: str
    message: str

    def __str__(self):
        return f"{self.location}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """The violations :func:`validate` found; with none, the game's checked view."""

    violations: tuple[Violation, ...]
    view: StageArrays | None = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return not self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [str(v) for v in self.violations]


def validate(spec: GameSpec, tol: float = 1e-9, for_stackelberg: bool = False) -> ValidationReport:
    """Check dimensions, finiteness, symmetry and definiteness of a game
    definition.

    Returns every violation found (violations are data, not exceptions),
    stage by stage and, within a stage, in the order A, B, s, Q, R,
    x_target, u_target, and with none the game's checked view.
    ``for_stackelberg`` additionally requires the first player's cross
    control weights R^{1j} to be positive semidefinite, which the feedback
    Stackelberg solver needs for a convex leader stage problem.  The checks
    run on the stacks of :class:`_Stacks`, one ``eigvalsh`` call per weight.
    A NaN or infinite ``tol``, which would fail or pass every test, raises.
    The report is memoised for the last game seen, so a game validated again,
    as the verification oracles do, is not stacked again; a GameSpec must
    therefore not be mutated.
    """
    if not np.isfinite(tol):
        raise InvalidGameError(f"tol must be finite, got {tol}")
    memo, key = _memo(spec), (float(tol), bool(for_stackelberg))
    if key not in memo:
        stacks = _Stacks(spec, for_stackelberg)
        for order, ok, need in stacks.checks:
            stacks.found.extend((k, order(i), message) for k, i, message
                                in _column_violations(stacks.columns[order(0)], ok, need, tol))
        violations = stacks.violations()
        if not violations and "view" not in memo:
            memo["view"] = stacks.view()
        memo[key] = ValidationReport(violations, None if violations else memo["view"])
    return memo[key]


# A weak reference to the last game validated or viewed, and that game's memo:
# its reports by (tol, for_stackelberg) and its view under "view".  Only one
# game is kept, so a view lives no longer than the next game's first call.
_last: tuple = (lambda: None, {})


def _memo(spec: GameSpec) -> dict:
    """The memo of ``spec``, a new one when it is not the last game seen.

    The pair is read and replaced whole, so a thread that races another
    can lose a hit but never read another game's memo; ``ref() is spec``
    never holds for a collected game whose id is reused."""
    global _last
    ref, memo = _last
    if ref() is not spec:
        memo = {}
        _last = weakref.ref(spec), memo
    return memo


_FIELDS = ("A", "B", "s", "Q", "R", "x_target", "u_target")


class _Stacks:
    """A game's stage data stacked across its distinct StageData objects,
    shapes checked as they are stacked, once however many stages share an
    object: the one stacking behind :func:`validate` and :meth:`StageArrays.of`.

    An entry's order in a stage, (0,) for A to (6, i, j) for u_target^{ij},
    also names its location.  Entries of one shape stack as a column (K,
    count, *shape) in ``columns``, keyed by the first entry's order, and
    ``checks`` holds per column the entries' orders, which arrays had the
    right shape and requirements.  ``found`` holds (distinct stage, order,
    message) per wrong shape or count, ``header`` what stops the stacking.
    """

    def __init__(self, spec: GameSpec, for_stackelberg: bool = False):
        n, p, dims = spec.n_players, spec.state_dim, spec.control_dims
        self.dims, self.header, self.found, self.checks, self.columns = dims, [], [], [], {}
        add = self.header.append
        if spec.horizon < 1:
            add(Violation("horizon", f"must be >= 1, got {spec.horizon}"))
        if p < 1:
            add(Violation("state_dim", f"must be >= 1, got {p}"))
        if n < 1:
            add(Violation("players", "at least one player is required"))
        for i, m in enumerate(dims):
            if m < 1:
                add(Violation(f"players/{i}/control_dim", f"must be >= 1, got {m}"))
        if len(spec.stages) != spec.horizon:
            add(Violation("stages", f"expected {spec.horizon} stages, got {len(spec.stages)}"))
        if self.header:
            return

        keys: dict[int, int] = {}
        self.at = np.array([keys.setdefault(id(st), len(keys)) for st in spec.stages])
        distinct = list({id(st): st for st in spec.stages}.values())

        def held(order, what):
            """Per distinct stage, whether the field of ``order`` holds an
            array per player, or per ordered pair for the tables R, u_target."""
            name, table = _FIELDS[order[0]], order[0] in (4, 6)
            counts = [tuple(map(len, getattr(st, name))) if table else len(getattr(st, name))
                      for st in distinct]
            has = [count == ((n,) * n if table else n) for count in counts]
            self.found.extend((k, order, f"expected an {n}x{n} {what}" if table
                               else f"expected {n} {what}, got {counts[k]}")
                              for k, ok in enumerate(has) if not ok)
            return None if all(has) else has

        def stack(order, shape, get, has=None, count=1, need=lambda i: None):
            """Stack the entries ``get(st)`` of the distinct stages, entry i at
            ``order(i)``, as a column; a misshapen array, reported, and those
            of a stage without ``has`` stack as zeros, marked in ``ok``."""
            rows = [get(st) if has is None or has[k] else None for k, st in enumerate(distinct)]
            try:
                column, ok = np.array([a for row in rows for a in row], dtype=float), None
            except (TypeError, ValueError):  # a missing row, or arrays of several shapes
                column = None
            if column is not None and column.shape[1:] == shape:
                column = column.reshape((len(rows), count) + shape)
            else:
                ok = [[a.shape == shape for a in row] if row else [False] * count for row in rows]
                self.found.extend((k, order(i), f"expected shape {shape}, got {a.shape}")
                                  for k, row in enumerate(rows) if row
                                  for i, a in enumerate(row) if not ok[k][i])
                blank = np.zeros(shape)
                column = np.array([[a if fit else blank for a, fit in zip(row, fits)] if row
                                   else [blank] * count for row, fits in zip(rows, ok)])
            self.columns[order(0)] = column
            self.checks.append((order, ok, need))

        stack(lambda i: (0,), (p, p), lambda st: (st.A,))
        has = held((1,), "control matrices")
        for j in range(n):
            stack(lambda i, j=j: (1, j), (p, dims[j]), lambda st, j=j: (st.B[j],), has)
        stack(lambda i: (2,), (p,), lambda st: (st.s,))
        stack(lambda i: (3, i), (p, p), lambda st: st.Q, held((3,), "state weights"), n,
              lambda i: "PSD")
        has = held((4,), "table of control weights")
        for j in range(n):
            stack(lambda i, j=j: (4, i, j), (dims[j], dims[j]), lambda st, j=j: [r[j] for r in st.R],
                  has, n, lambda i, j=j: "PD" if i == j else "PSD" if for_stackelberg and i == 0
                  else "symmetric")
        stack(lambda i: (5, i), (p,), lambda st: st.x_target, held((5,), "state targets"), n)
        has = held((6,), "table of control targets")
        for j in range(n):
            stack(lambda i, j=j: (6, i, j), (dims[j],), lambda st, j=j: [u[j] for u in st.u_target],
                  has, n)

    def violations(self) -> tuple[Violation, ...]:
        """The header's violations, or else every one found, at each stage
        holding its StageData object, by stage and in entry order."""
        if self.header or not self.found:
            return tuple(self.header)
        by_stage: dict[int, list] = {}
        for k, order, message in sorted(self.found, key=lambda f: f[:2]):
            loc = "/".join([_FIELDS[order[0]], *map(str, order[1:])])
            by_stage.setdefault(k, []).append((loc, message))
        return tuple(Violation(f"stages/{t}/{loc}", message) for t, k in enumerate(self.at)
                     for loc, message in by_stage.get(k, ()))

    def view(self) -> StageArrays:
        """The columns laid out over the T stages; for a game of right shapes."""
        c, blocks, n = self.columns, _blocks(self.dims), len(self.dims)
        K, M = len(c[(2,)]), sum(self.dims)
        R, ut = np.zeros((K, n, M, M)), np.zeros((K, n, M))
        for j, b in enumerate(blocks):
            R[:, :, b, b], ut[:, :, b] = c[4, 0, j], c[6, 0, j]
        fields = dict(A=c[(0,)][:, 0], B=np.concatenate([c[1, j][:, 0] for j in range(n)], axis=2),
                      s=c[(2,)][:, 0], Q=c[3, 0], xt=c[5, 0], R=R, ut=ut)
        if K < len(self.at):  # stages that share one StageData share its entries
            fields = {name: arr.take(self.at, axis=0) for name, arr in fields.items()}
        return StageArrays._laid_out(blocks, **fields)


def _column_violations(C: np.ndarray, ok, need, tol: float):
    """``(k, i, message)`` for each array ``C[k, i]`` of a column (K, count,
    ...) of the right shape (``ok[k][i]``, all if None) that fails ``need(i)``:
    None (finite only), "symmetric", "PSD" or "PD", tested on the whole
    column but for one ``eigvalsh`` per entry.  A non-finite array is tested
    no further, an asymmetric one not for definiteness.  Symmetry is held to
    |tol|, so a negative ``tol`` loosens definiteness alone.  The asymmetry
    gap (see :func:`dyngame.numerics.asymmetry`) and the symmetric part are
    formed from halves, which do not overflow; a non-finite smallest
    eigenvalue is shown so."""
    ok = True if ok is None else np.array(ok, dtype=bool)
    finite = np.isfinite(C).reshape(C.shape[:2] + (-1,)).all(axis=2)
    for k, i in zip(*np.nonzero(ok & ~finite)):
        yield k, i, "not finite"
    needs = [need(i) for i in range(C.shape[1])]
    if needs.count(None) == len(needs):
        return
    tested = ok & finite & np.array([what is not None for what in needs])
    F = np.where(tested[:, :, None, None], C, 0.0)
    half = np.abs(0.5 * F - 0.5 * F.swapaxes(2, 3)).max(axis=(2, 3))
    asymmetric = tested & (half > 0.5 * abs(tol) * (1.0 + np.abs(F).max(axis=(2, 3))))
    for k, i in zip(*np.nonzero(asymmetric)):
        yield k, i, f"not symmetric (max asymmetry {2.0 * float(half[k, i]):.2e})"
    for i, required in enumerate(needs):
        if required not in ("PSD", "PD"):
            continue
        keep = np.flatnonzero(tested[:, i] & ~asymmetric[:, i])
        min_eig = np.linalg.eigvalsh(0.5 * F[keep, i] + 0.5 * F[keep, i].swapaxes(1, 2)).min(axis=1)
        if required == "PD":
            failed, what = ~(min_eig > tol), "positive definite"
        else:  # PSD, or PD: for tol < 0 the PD bound is the looser one
            failed, what = ~((min_eig > tol) | (min_eig >= -tol)), "positive semidefinite"
        for k in np.flatnonzero(failed):
            shown = f"{min_eig[k]:.3e}" if np.isfinite(min_eig[k]) else "not finite"
            yield keep[k], i, f"not {what} (min eigenvalue {shown})"


def require_valid(spec: GameSpec, tol: float = 1e-9, for_stackelberg: bool = False) -> StageArrays:
    """The checked view of ``spec`` that :func:`validate` yields; a game
    with any violation raises InvalidGameError listing them all."""
    report = validate(spec, tol=tol, for_stackelberg=for_stackelberg)
    _refuse(report.violations)
    return report.view


def _refuse(violations) -> None:
    if violations:
        messages = [str(v) for v in violations]
        raise InvalidGameError("game definition failed validation:\n  " + "\n  ".join(messages),
                               violations=messages)


def _blocks(dims) -> tuple[slice, ...]:  # each player's rows of the M = sum(dims) control rows
    return tuple(slice(a - m, a) for a, m in zip(accumulate(dims), dims))


# ---------------------------------------------------------------------------
# Stacked stage arrays


@dataclass(frozen=True)
class StageArrays:
    """The stages of a game as arrays stacked over stages and players.

    Each stage of the equilibrium recursions is one block system over all
    players, so the solvers and :func:`rollout` read the game in this
    layout, while :class:`StageData` stays the input and file format.
    With M = sum m_i control rows, player i's rows at ``blocks[i]``:

    * ``A`` (T, p, p), ``B`` (T, p, M), ``s`` (T, p): the dynamics, B^i in
      player i's columns;
    * ``Q`` (T, n, p, p), ``xt`` (T, n, p): player i's state weight and
      target;
    * ``R`` (T, n, M, M): player i's weights on all controls, block
      diagonal in the R^{ij}; ``ut`` (T, n, M): player i's targets for all
      controls.

    :func:`require_valid` returns the checked view, :meth:`of` the unchecked
    one, both memoised for the last game seen only: a view stored per game
    would live as long as the game, and a round of the ``solve-long`` benchmark
    holds 11 games, which raised its peak RSS from 95.8 to 107.5 MiB.
    """

    A: np.ndarray
    B: np.ndarray
    s: np.ndarray
    Q: np.ndarray
    xt: np.ndarray
    R: np.ndarray
    ut: np.ndarray
    blocks: tuple[slice, ...]
    owner: np.ndarray  # (M,) the player of each control row
    rows: np.ndarray   # (M,) the control rows 0..M-1

    @classmethod
    def of(cls, spec: GameSpec) -> StageArrays:
        """The view of ``spec``, shapes checked and values not: a misshapen
        game raises InvalidGameError with :func:`validate`'s shape violations.
        The view is memoised with :func:`validate`'s reports."""
        memo = _memo(spec)
        if "view" not in memo:
            stacks = _Stacks(spec)
            _refuse(stacks.violations())
            memo["view"] = stacks.view()
        return memo["view"]

    @classmethod
    def _laid_out(cls, blocks, **fields) -> StageArrays:
        """The view of ``fields``, made C-contiguous (a sweep's bits depend on it) and read-only."""
        fields = {name: np.ascontiguousarray(arr) for name, arr in fields.items()}
        owner = np.arange(len(blocks)).repeat([b.stop - b.start for b in blocks])
        rows = np.arange(len(owner))
        for arr in (*fields.values(), owner, rows):
            arr.flags.writeable = False
        return cls(**fields, blocks=blocks, owner=owner, rows=rows)

    def select(self, players) -> StageArrays:
        """The game of ``players`` alone, in that order: an index selection of
        their blocks, whose principal sub-blocks keep plain validation's PD/PSD."""
        keep = list(players)
        cols = np.concatenate([self.rows[self.blocks[i]] for i in keep])
        return self._laid_out(_blocks([self.blocks[i].stop - self.blocks[i].start for i in keep]),
                              A=self.A, B=self.B[:, :, cols], s=self.s, Q=self.Q[:, keep],
                              xt=self.xt[:, keep], R=self.R[:, keep][:, :, cols[:, None], cols],
                              ut=self.ut[:, keep][:, :, cols])

    def own(self, X: np.ndarray, lead: int = 0) -> np.ndarray:
        """Each control row of its own player: row k of ``X[owner[k]]`` for
        X (n, M, ...), giving (M, ...); after ``lead`` leading axes, X
        (..., n, M, ...) gives (..., M, ...), C-contiguous as without them,
        so that each lane's matrices meet the same products."""
        rows = X[(slice(None),) * lead + (self.owner, self.rows)]
        return np.ascontiguousarray(rows) if lead else rows

    def lanes(self, starts) -> tuple[np.ndarray, list[int], list[int]]:
        """The lanes of a backward sweep over this view, one per tail game.

        Lane l solves the tail game of stages ``starts[l]``..T-1, reading
        the same stage rows as every other lane, aligned at the terminal
        stage.  ``starts`` must be ascending (a start may repeat), so the
        lanes that include stage t are a prefix.  Returns the starts and
        two lists by stage t, ``begin`` and ``end``: lanes ``begin[t]`` to
        ``end[t] - 1`` start at t, and lanes 0 to ``end[t] - 1`` include it.
        """
        T = len(self.A)
        starts = np.asarray(starts)
        if (starts.ndim != 1 or not len(starts) or starts.dtype.kind not in "iu"
                or starts[0] < 0 or starts[-1] >= T or (np.diff(starts) < 0).any()):
            raise InvalidGameError(f"lane starts must be ascending stages in [0, {T}), "
                                   f"got {starts.tolist()}")
        stages = np.arange(T)
        return (starts, np.searchsorted(starts, stages, side="left").tolist(),
                np.searchsorted(starts, stages, side="right").tolist())


# ---------------------------------------------------------------------------
# Decision rules, trajectories, costs


@dataclass(frozen=True)
class AffineLaw:
    """One player's affine decision rules u_t = G_t x_t + g_t over the horizon.

    Gains G (T, m, p) and offsets g (T, m); S sampled sequences of them
    carry a leading sample axis, G (S, T, m, p) and g (S, T, m).  Every
    solution stores one law sequence per player, and :func:`rollout` plays
    them.
    """

    G: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "G", _freeze(self.G))
        object.__setattr__(self, "g", _freeze(self.g))


@dataclass(frozen=True)
class Trajectory:
    """States x_0..x_T, per-player controls u_0..u_{T-1}, and realized costs.

    A batch of S trajectories from :func:`rollout` puts a leading sample
    axis on every field.
    """

    states: np.ndarray               # (T+1, p)
    controls: tuple[np.ndarray, ...]  # per player, (T, m_i)
    stage_costs: np.ndarray          # (n, T)
    total_costs: np.ndarray          # (n,)

    def __post_init__(self):
        object.__setattr__(self, "states", _freeze(self.states))
        object.__setattr__(self, "controls", tuple(_freeze(u) for u in self.controls))
        object.__setattr__(self, "stage_costs", _freeze(self.stage_costs))
        object.__setattr__(self, "total_costs", _freeze(self.total_costs))

    @property
    def horizon(self) -> int:
        return self.states.shape[-2] - 1


def stage_cost(spec: GameSpec, player: int, t: int, x_next: np.ndarray, u_all) -> float:
    """Player's stage-t cost for next state ``x_next`` and everyone's controls."""
    if not 0 <= t < spec.horizon:
        raise InvalidGameError(f"stage {t} outside horizon [0, {spec.horizon})")
    st = spec.stages[t]
    x_next = np.asarray(x_next, dtype=float)
    if x_next.shape != (spec.state_dim,):
        raise InvalidGameError(
            f"x_next has shape {x_next.shape}, expected {(spec.state_dim,)}"
        )
    if len(u_all) != spec.n_players:
        raise InvalidGameError(f"expected {spec.n_players} controls, got {len(u_all)}")
    dx = x_next - st.x_target[player]
    total = 0.5 * float(dx @ st.Q[player] @ dx)
    for j, u in enumerate(u_all):
        u = np.asarray(u, dtype=float)
        if u.shape != (spec.control_dims[j],):
            raise InvalidGameError(
                f"control {j} has shape {u.shape}, expected {(spec.control_dims[j],)}"
            )
        du = u - st.u_target[player][j]
        total += 0.5 * float(du @ st.R[player][j] @ du)
    return total


def total_cost(spec: GameSpec, traj: Trajectory, player: int) -> float:
    """Stage-additive total cost of one player along a trajectory."""
    if traj.states.shape != (spec.horizon + 1, spec.state_dim):
        raise InvalidGameError(
            f"trajectory shape {traj.states.shape} inconsistent with the game"
        )
    return sum(
        stage_cost(spec, player, t, traj.states[t + 1], [u[t] for u in traj.controls])
        for t in range(spec.horizon)
    )


def initial_state(spec: GameSpec, x0) -> np.ndarray:
    """``x0`` as a float vector, checked to be finite and of the game's
    state dimension."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.state_dim,):
        raise InvalidGameError(f"x0 has shape {x0.shape}, expected {(spec.state_dim,)}")
    if not np.all(np.isfinite(x0)):
        raise InvalidGameError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def rollout(spec: GameSpec, laws_or_controls, x0: np.ndarray,
            drifts: np.ndarray | None = None) -> Trajectory:
    """Simulate the state equation under laws or explicit control sequences.

    ``laws_or_controls`` holds one entry per player: an explicit control
    sequence of shape (T, m_i), or an :class:`AffineLaw` law sequence,
    gains (T, m_i, p) and offsets (T, m_i), evaluated at the realized x_t.

    Any entry may carry a leading sample axis, (S, T, m_i) or
    (S, T, m_i, p); arrays without one are shared by all samples.  Then S
    trajectories from the same x0 are rolled out together and every field
    of the returned :class:`Trajectory` has a leading axis S.  ``drifts``
    (S, T, p), when given, replaces the stage drifts s_t, one sequence per
    sample (see :func:`drift_samples`).  Stage costs are evaluated for all
    stages and samples in one pass after the state loop.
    """
    x0 = initial_state(spec, x0)
    view = StageArrays.of(spec)
    GT, g, S = _stacked_rules(spec, laws_or_controls)
    s = view.s
    if drifts is not None:
        s = drift_samples(spec, drifts)
        if S not in (None, len(s)):
            raise InvalidGameError(f"players give {S} samples but drifts give {len(s)}")
        S = len(s)

    states = np.empty((S or 1, spec.horizon + 1, spec.state_dim))
    states[:, 0] = x0
    x = states[:, 0]
    u = np.empty((S or 1, spec.horizon, g.shape[-1]))
    for t in range(spec.horizon):
        u[:, t] = g[..., t, :]
        if GT is not None:
            u[:, t] += (x[:, None, :] @ GT[..., t, :, :])[:, 0]
        states[:, t + 1] = x = _advance(view, t, x, s, u[:, t])
    return _priced(view, states, u, S is not None)


def sequence_path(view: StageArrays, x0: np.ndarray, u: np.ndarray, s: np.ndarray,
                  batched: bool) -> Trajectory:
    """The trajectory of S stacked control sequences u (S, T, M) from x0,
    with the drifts s, (T, p) or one sequence per sample (S, T, p): the
    states of :func:`rollout`'s state equation, priced as it prices them.
    Without ``batched``, S is 1 and the trajectory has no sample axis.
    """
    states = np.empty((len(u), u.shape[1] + 1, len(x0)))
    states[:, 0] = x0
    x = states[:, 0]
    for t in range(u.shape[1]):
        states[:, t + 1] = x = _advance(view, t, x, s, u[:, t])
    return _priced(view, states, u, batched)


def _advance(view: StageArrays, t: int, x: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The state equation at stage t for states x (S, p), drifts s (T, p)
    or (S, T, p) and stacked controls u (S, M)."""
    return x @ view.A[t].T + s[..., t, :] + u @ view.B[t].T


def _priced(view: StageArrays, states: np.ndarray, u: np.ndarray, batched: bool) -> Trajectory:
    """The Trajectory of states (S, T+1, p) and stacked controls (S, T, M),
    with their stage costs; without ``batched`` that of the one sample."""
    costs = _stage_costs(view, states, u)
    if not batched:
        states, u, costs = states[0], u[0], costs[0]
    return Trajectory(states=states, controls=tuple(u[..., b] for b in view.blocks),
                      stage_costs=costs, total_costs=costs.sum(axis=-1))


def _stacked_rules(spec: GameSpec, laws_or_controls):
    """The players' rules u_t = x_t GT_t + g_t over all M control rows,
    each entry checked against the game: gains GT (..., T, p, M), zero for
    a control sequence and None for all sequences, offsets (..., T, M),
    and the common sample count (None when no array has a sample axis)."""
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    entries = list(laws_or_controls)
    if len(entries) != n:
        raise InvalidGameError(f"expected {n} control sequences or law sequences, got {len(entries)}")

    counts = set()

    def checked(arr, shape, what):
        if arr.shape not in (shape, arr.shape[:1] + shape):
            raise InvalidGameError(f"{what} has shape {arr.shape}, expected {shape} "
                                   f"or (samples, {', '.join(map(str, shape))})")
        if arr.ndim > len(shape):
            counts.add(arr.shape[0])
        return arr

    GT, g = [], []
    for i, (entry, m) in enumerate(zip(entries, spec.control_dims)):
        if isinstance(entry, AffineLaw):
            GT.append(np.swapaxes(checked(entry.G, (T, m, p), f"law sequence {i} gains"), -1, -2))
            g.append(checked(entry.g, (T, m), f"law sequence {i} offsets"))
        else:
            try:
                U = np.atleast_2d(np.asarray(entry, dtype=float))
            except (TypeError, ValueError) as exc:
                raise InvalidGameError(f"control sequence {i} is not a numeric array: {exc}") from exc
            GT.append(np.zeros((T, p, m)))
            g.append(checked(U, (T, m), f"control sequence {i}"))
    if len(counts) > 1:
        raise InvalidGameError(f"players give different sample counts {sorted(counts)}")
    S = counts.pop() if counts else None
    if S == 0:
        raise InvalidGameError("a sample axis must hold at least one sample")
    laws = any(isinstance(entry, AffineLaw) for entry in entries)
    return _side_by_side(GT) if laws else None, _side_by_side(g), S


def _side_by_side(arrays):
    """Arrays joined along their last axis, any missing sample axis
    broadcast."""
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    return np.concatenate([a if a.shape[:-1] == lead else np.broadcast_to(a, lead + a.shape[-1:])
                           for a in arrays], axis=-1)


def drift_samples(spec: GameSpec, drifts: np.ndarray) -> np.ndarray:
    """S drift sequences (S, T, p) for the game's stages, checked to be
    finite and of that shape with S >= 1."""
    T, p = spec.horizon, spec.state_dim
    try:
        drifts = np.asarray(drifts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidGameError(f"drifts are not a numeric array: {exc}") from exc
    if drifts.ndim != 3 or drifts.shape[1:] != (T, p) or len(drifts) == 0:
        raise InvalidGameError(f"drifts have shape {drifts.shape}, expected (samples, {T}, {p}) "
                               "with at least one sample")
    if not np.isfinite(drifts).all():
        raise InvalidGameError("drifts must be finite")
    return drifts


def _stage_costs(view: StageArrays, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Every player's stage costs (S, n, T) along S trajectories, states
    (S, T+1, p) and stacked controls (S, T, M), all stages at once; the
    formula of :func:`stage_cost`."""
    def halved_forms(d, W):  # 1/2 d'Wd, the sample axis moved inside: one product per W
        d = np.moveaxis(d, 0, 2)
        return 0.5 * np.einsum("tisk,tisk->sit", d @ W, d)

    return (halved_forms(states[:, 1:, None] - view.xt, view.Q)
            + halved_forms(u[:, :, None] - view.ut, view.R))


# ---------------------------------------------------------------------------
# Game transformations


def truncate(spec: GameSpec, start: int) -> GameSpec:
    """The tail game played over stages start..T-1."""
    if not 0 <= start < spec.horizon:
        raise InvalidGameError(f"truncation stage {start} outside [0, {spec.horizon})")
    return GameSpec(horizon=spec.horizon - start, state_dim=spec.state_dim,
                    players=spec.players, stages=spec.stages[start:])


def _player_subgame(spec: GameSpec, keep) -> GameSpec:
    """The game restricted to players ``keep``, in that order, every cost
    block kept; stages that share a StageData object share its restriction."""
    def restricted(st):
        return replace(
            st,
            B=tuple(st.B[i] for i in keep),
            Q=tuple(st.Q[i] for i in keep),
            R=tuple(tuple(st.R[i][j] for j in keep) for i in keep),
            x_target=tuple(st.x_target[i] for i in keep),
            u_target=tuple(tuple(st.u_target[i][j] for j in keep) for i in keep),
        )

    built = {key: restricted(st) for key, st in {id(st): st for st in spec.stages}.items()}
    return GameSpec(horizon=spec.horizon, state_dim=spec.state_dim,
                    players=tuple(spec.players[i] for i in keep),
                    stages=tuple(built[id(st)] for st in spec.stages))


def folded_drifts(view: StageArrays, player: int, controls: np.ndarray) -> np.ndarray:
    """Stage drifts ``s_t + B_t^player u_t`` of a game's view with one
    player's control sequence u (T, m) folded in, (T, p); S sequences
    (S, T, m) give S drift sequences (S, T, p)."""
    controls = np.asarray(controls, dtype=float)
    shape = (len(view.A), len(view.rows[view.blocks[player]]))
    if controls.ndim not in (2, 3) or controls.shape[-2:] != shape:
        raise InvalidGameError(f"controls have shape {controls.shape}, expected {shape} "
                               f"or (samples, {', '.join(map(str, shape))})")
    return view.s + np.einsum("tpm,...tm->...tp", view.B[:, :, view.blocks[player]], controls)


def reorder_players(spec: GameSpec, order) -> GameSpec:
    """The same game with players permuted (Stackelberg leadership is
    positional: player 0 leads, so reordering chooses the leader)."""
    order = list(order)
    if sorted(order) != list(range(spec.n_players)):
        raise InvalidGameError(
            f"order must be a permutation of 0..{spec.n_players - 1}, got {order}")
    return _player_subgame(spec, order)
