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

import sys
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import InvalidGameError
from .numerics import SYMMETRY_RTOL, asymmetry


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Player:
    control_dim: int
    name: str = ""


@dataclass(frozen=True)
class StageData:
    """Data of one decision stage: dynamics and every player's cost weights.

    ``B``/``Q``/``x_target`` are per player; ``R``/``u_target`` are per
    ordered pair (i, j): R[i][j] weighs player j's control in player i's
    cost.  On its own it holds read-only float copies of its arrays, as
    given; a game's stages are views of the game's stacks (:class:`GameSpec`).
    """

    A: np.ndarray
    B: tuple[np.ndarray, ...]
    s: np.ndarray
    Q: tuple[np.ndarray, ...]
    R: tuple[tuple[np.ndarray, ...], ...]
    x_target: tuple[np.ndarray, ...]
    u_target: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        def arrays(name, value, lift, depth):  # an array, or one per player (depth 1) or pair (2)
            if not depth:
                return _freeze(lift(_numeric(name, value)))
            return tuple([arrays(f"{name}/{i}", v, lift, depth - 1)
                          for i, v in enumerate(_sequence(name, value))])

        mat, vec = np.atleast_2d, np.atleast_1d
        for name, lift, depth in (("A", mat, 0), ("B", mat, 1), ("s", vec, 0), ("Q", mat, 1), ("R", mat, 2),
                                  ("x_target", vec, 1), ("u_target", vec, 2)):
            self.__dict__[name] = arrays(name, getattr(self, name), lift, depth)

    @classmethod
    def _of(cls, **entries) -> StageData:
        """The stage holding ``entries`` themselves, not copies."""
        stage = object.__new__(cls)
        stage.__dict__.update(entries)
        return stage


@dataclass(frozen=True)
class GameSpec:
    """A finite-horizon affine-quadratic game.

    Immutable after construction: it stacks its stages (:class:`_Stacks`),
    weights asymmetric within ``SYMMETRY_RTOL`` averaged, and checks itself
    once, keeping its view and :func:`validate` reports.  All solver entry
    points are pure functions of a GameSpec, so instances can be shared
    across threads.  When no shape or count is wrong, ``stages`` become
    read-only views of those stacks, the only copy.
    """

    horizon: int
    state_dim: int
    players: tuple[Player, ...]
    stages: tuple[StageData, ...]
    _stacks: _Stacks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, kind in (("players", Player), ("stages", StageData)):
            self.__dict__[name] = items = _sequence(name, getattr(self, name))
            for i, item in enumerate(items):
                if not isinstance(item, kind):
                    raise InvalidGameError(f"{name}/{i} must be a {kind.__name__}, got {item!r}")
        self.__dict__["_stacks"] = stacks = _Stacks(self)
        if not (stacks.header or stacks.found):
            self.__dict__["stages"] = stacks.stages()

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
        plain cost-to-go subtracts it.  A misshapen game raises (:meth:`StageArrays.of`).
        """
        StageArrays.of(self)
        require_index("stage", t, self.horizon)
        require_index("player", player, self.n_players - 1)
        if t == 0:
            return np.zeros((self.state_dim, self.state_dim))
        return self.stages[t - 1].Q[player]


def constant_game(A, B, Q, R, T, s=None, x_target=None, u_target=None,
                  names=None) -> GameSpec:
    """GameSpec with one StageData broadcast to all T stages, filling
    omitted drift/targets with zeros."""
    if not is_integer(T):
        raise InvalidGameError(f"T must be an integer, got {T!r}")
    A = np.atleast_2d(_numeric("A", A))
    B = tuple(np.atleast_2d(_numeric(f"B/{j}", b)) for j, b in enumerate(_sequence("B", B)))
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
    elif len(names) != n:
        raise InvalidGameError(f"expected {n} names, got {len(names)}")
    stage = StageData(A=A, B=B, s=s, Q=Q, R=R, x_target=x_target, u_target=u_target)
    players = tuple(Player(control_dim=m, name=names[i]) for i, m in enumerate(dims))
    return GameSpec(horizon=T, state_dim=p, players=players, stages=(stage,) * T)


# ---------------------------------------------------------------------------
# Validation

#: The library's validation tolerance; the repair's symmetry test is validation's at it
VALIDATION_TOL = SYMMETRY_RTOL


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
    """Check the dimensions, finiteness, symmetry and definiteness of a game.

    Returns every violation found (violations are data, not exceptions),
    stage by stage and, within a stage, in the order A, B, s, Q, R,
    x_target, u_target, and with none the game's checked view.
    ``for_stackelberg`` additionally requires the first player's cross
    control weights R^{1j} to be positive semidefinite, which the feedback
    Stackelberg solver needs for a convex leader stage problem.  A ``tol``
    that is a bool, not a real number, NaN or infinite raises.  At the
    library tolerance 1e-9 the game was checked in both modes when it was
    built (:class:`_Stacks`), and this returns the report it keeps; any
    other ``tol`` is tested afresh on its stacks and kept nowhere.
    """
    tol = require_real("tol", tol)
    stacks = spec._stacks
    if tol == VALIDATION_TOL:
        return stacks.reports[bool(for_stackelberg)]
    found, lead = ((), ()) if stacks.header else stacks.outcome(tol)
    return stacks.report(found + lead if for_stackelberg else found)


_FIELDS = ("A", "B", "s", "Q", "R", "x_target", "u_target")
# The view's fields in entry order, and the axes of one entry of each
_ENTRY_AXES = {"A": (1, 2), "B": (1,), "s": (1,), "Q": (2, 3), "R": (2,), "xt": (2,), "ut": ()}


class _Stacks:
    """A game's stage data laid out once, as it is built, over its K distinct
    StageData objects as the read-only ``fields`` of :class:`StageArrays`,
    shapes checked on the way, and checked once: ``view`` lays the fields
    out over the T stages when no shape or count is wrong, and ``reports``
    holds plain and leader validation at VALIDATION_TOL; nothing changes
    afterwards.  An entry's order in a stage, (0,) for A to (6, i, j) for
    u_target^{ij}, names its location.  A misshapen or missing entry is
    zeros, ``ok`` marks the Q^i (K, n) and R^{ij} (K, n, n) laid out,
    ``finite`` the finite entries, ``found`` (distinct stage, order,
    message) per wrong shape or count, ``header`` what stops the layout."""

    def __init__(self, spec: GameSpec):
        n, p, dims = spec.n_players, spec.state_dim, spec.control_dims
        self.dims, self.found, self.view = dims, [], None
        self.header = [Violation(where, message) for where, message in (
            ("horizon", _size_fault(spec.horizon)), ("state_dim", _size_fault(p)),
            ("players", n < 1 and "at least one player is required"),
            *((f"players/{i}/control_dim", _size_fault(m)) for i, m in enumerate(dims)),
            ("stages", is_integer(spec.horizon) and len(spec.stages) != spec.horizon
             and f"expected {spec.horizon} stages, got {len(spec.stages)}")) if message]
        if self.header:
            self.reports = (self.report(),) * 2
            return

        keys: dict[int, int] = {}
        self.at = np.array([keys.setdefault(id(st), len(keys)) for st in spec.stages])
        distinct = list({id(st): st for st in spec.stages}.values())
        K, self.blocks = len(distinct), _blocks(dims)
        self.starts = np.array([b.start for b in self.blocks])

        def held(code, what):
            """Per distinct stage, whether field ``code`` holds an array per player (pair)."""
            name, table = _FIELDS[code], code in (4, 6)
            counts = [tuple(map(len, getattr(st, name))) if table else len(getattr(st, name))
                      for st in distinct]
            has = [count == ((n,) * n if table else n) for count in counts]
            self.found.extend((k, (code,), f"expected an {n}x{n} {what}" if table
                               else f"expected {n} {what}, got {counts[k]}")
                              for k, ok in enumerate(has) if not ok)
            return None if all(has) else has

        def stack(order, shape, get, has=None, count=1):
            """The entries ``get(st)``, entry i at ``order(i)``, stacked (K, count, *shape), and
            which fit ``shape``; a misshapen one, reported, and a stage's without ``has`` are zeros."""
            rows = [get(st) if has is None or has[k] else None for k, st in enumerate(distinct)]
            try:
                column = np.array([a for row in rows for a in row], dtype=float)
            except (TypeError, ValueError):  # a missing row, or arrays of several shapes
                column = None
            if column is not None and column.shape[1:] == shape:
                return column.reshape((K, count) + shape), np.ones((K, count), dtype=bool)
            ok = [[a.shape == shape for a in row] if row else [False] * count for row in rows]
            self.found.extend((k, order(i), f"expected shape {shape}, got {a.shape}")
                              for k, row in enumerate(rows) if row
                              for i, a in enumerate(row) if not ok[k][i])
            blank = np.zeros(shape)
            return np.array([[a if fit else blank for a, fit in zip(row, fits)] if row
                             else [blank] * count for row, fits in zip(rows, ok)]), np.array(ok)

        A = stack(lambda i: (0,), (p, p), lambda st: (st.A,))[0]
        has = held(1, "control matrices")
        B = [stack(lambda i, j=j: (1, j), (p, dims[j]), lambda st, j=j: (st.B[j],), has)[0]
             for j in range(n)]
        s = stack(lambda i: (2,), (p,), lambda st: (st.s,))[0]
        Q, ok_q = stack(lambda i: (3, i), (p, p), lambda st: st.Q, held(3, "state weights"), n)
        has = held(4, "table of control weights")
        R = [stack(lambda i, j=j: (4, i, j), (dims[j], dims[j]), lambda st, j=j: [r[j] for r in st.R],
                   has, n) for j in range(n)]
        xt = stack(lambda i: (5, i), (p,), lambda st: st.x_target, held(5, "state targets"), n)[0]
        has = held(6, "table of control targets")
        ut = [stack(lambda i, j=j: (6, i, j), (dims[j],), lambda st, j=j: [u[j] for u in st.u_target],
                    has, n)[0] for j in range(n)]
        weights = np.zeros((K, n, sum(dims), sum(dims)))
        for b, (R_j, _) in zip(self.blocks, R):
            weights[:, :, b, b] = R_j
        self.ok = ok_q, np.stack([ok for _, ok in R], axis=-1)
        self.fields = dict(A=A[:, 0], B=np.concatenate([b[:, 0] for b in B], axis=2), s=s[:, 0],
                           Q=Q, R=weights, xt=xt, ut=np.concatenate(ut, axis=2))
        self.finite = {name: np.isfinite(self.fields[name]).all(axis=axes)
                       for name, axes in _ENTRY_AXES.items()}
        for name in ("B", "R", "ut"):  # a control axis last: one entry per block of it
            self.finite[name] = np.logical_and.reduceat(self.finite[name], self.starts, axis=-1)
        # Tested weights asymmetric within SYMMETRY_RTOL are averaged from halves, which cannot overflow
        symmetry = [self._asymmetry(code, SYMMETRY_RTOL) for code in (3, 4)]
        fix_q, fix_r = ((0.0 < gap) & ~too_large for _, gap, too_large in symmetry)
        for M, fix in [(Q, fix_q), *((weights[:, :, b, b], fix_r[..., j])
                                     for j, b in enumerate(self.blocks))]:
            if fix.any():
                X = M[fix]
                M[fix] = 0.5 * X + 0.5 * X.swapaxes(-1, -2)
        for arr in self.fields.values():
            arr.flags.writeable = False
        if not self.found:  # stages that share one StageData share its entries
            take = K < len(self.at)
            self.view = StageArrays._laid_out(self.blocks, **{
                name: arr.take(self.at, axis=0) if take else arr for name, arr in self.fields.items()})
        found, lead = self.outcome(VALIDATION_TOL, symmetry)
        self.reports = self.report(found), self.report(found + lead)

    def stages(self, players=None) -> tuple[StageData, ...]:
        """The stages as read-only views of the fields, of ``players`` alone in that order
        when given (:meth:`StageArrays.select`), one StageData per distinct stage."""
        F = StageArrays._laid_out(self.blocks, **self.fields)
        if players is not None:
            F = F.select(players)
        distinct = [StageData._of(A=F.A[k], B=tuple(F.B[k][:, b] for b in F.blocks), s=F.s[k],
                                  Q=tuple(F.Q[k]), x_target=tuple(F.xt[k]),
                                  R=tuple(tuple(R_i[b, b] for b in F.blocks) for R_i in F.R[k]),
                                  u_target=tuple(tuple(u_i[b] for b in F.blocks) for u_i in F.ut[k]))
                    for k in range(len(F.A))]
        return tuple(distinct[k] for k in self.at.tolist())

    def report(self, found=()) -> ValidationReport:
        """The header's violations, or else those of shape and ``found`` at each stage
        holding their StageData object, by stage and in entry order; with none, the view."""
        if self.header or not (self.found or found):  # a header stops the layout
            return ValidationReport(tuple(self.header), self.view)
        by_stage: dict[int, list] = {}
        for k, order, message in sorted([*self.found, *found], key=lambda f: f[:2]):
            loc = "/".join([_FIELDS[order[0]], *map(str, order[1:])])
            by_stage.setdefault(k, []).append((loc, message))
        return ValidationReport(tuple(Violation(f"stages/{t}/{loc}", message)
                                      for t, k in enumerate(self.at) for loc, message in by_stage.get(k, ())))

    def outcome(self, tol: float, symmetry=None) -> tuple[list, list]:
        """The value violations (k, order, message) at ``tol`` of plain validation,
        and those leader mode adds: each field's finiteness, the symmetry of Q and
        R to |tol| (a negative ``tol`` loosens definiteness alone) unless given,
        then :meth:`_definite` of the entries that passed."""
        found, clean = [], []
        for code, ok in enumerate(self.finite.values()):
            if not ok.all():
                found.extend((k, (code, *at), "not finite") for k, *at in np.argwhere(~ok).tolist())
        for code in (3, 4):
            tested, gap, asymmetric = symmetry[code - 3] if symmetry else self._asymmetry(code, abs(tol))
            if asymmetric.any():
                found.extend((at[0], (code, *at[1:]), f"not symmetric (max asymmetry {gap[tuple(at)]:.2e})")
                             for at in np.argwhere(asymmetric).tolist())
            clean.append(tested & ~asymmetric)
        own, lead = self._definite(tol, *clean)
        return found + own, lead

    def _asymmetry(self, code: int, rtol: float):
        """Which Q^i (K, n), for ``code`` 3, or R^{ij} (K, n, n), for 4, are laid out
        and finite, and the :func:`asymmetry` of each at ``rtol``, the others zeros."""
        tested, M = self.ok[code - 3] & self.finite[_FIELDS[code]], self.fields[_FIELDS[code]]
        if not tested.all():  # zeros in their place, so no NaN meets the test
            M = np.where(tested[..., None, None] if code == 3 else
                         tested.repeat(self.dims, axis=-1)[..., None, :], M, 0.0)
        return (tested, *asymmetry(M, rtol, None if code == 3 else self.starts))

    def _definite(self, tol: float, clean_q, clean_r):
        """The violations of Q^i PSD and R^{ii} PD, and apart those of the
        leader's R^{0j} PSD, over the entries marked clean: one ``eigvalsh``
        of the symmetric parts per matrix size."""
        (Q, R), found, lead = (self.fields["Q"], self.fields["R"]), [], []
        parts = [((3, i), False, Q[:, i], clean_q[:, i], found) for i in range(len(self.dims))]
        parts += [((4, i, j), i == j, R[:, i, b, b], clean_r[:, i, j], found if i == j else lead)
                  for j, b in enumerate(self.blocks) for i in range(len(self.dims)) if i in (0, j)]
        for size in {len(part[2][0]) for part in parts}:
            sized = [part for part in parts if len(part[2][0]) == size]
            F = 0.5 * np.concatenate([mats if keep.all() else mats[keep] for _, _, mats, keep, _ in sized])
            min_eig = np.linalg.eigvalsh(F + F.swapaxes(1, 2)).min(axis=1) if len(F) else F
            if (min_eig > tol).all():
                continue
            eig = iter(min_eig.tolist())  # in the order of the parts' entries
            for order, pd, _, keep, out in sized:
                for n, e in zip(np.flatnonzero(keep).tolist(), eig):
                    if not e > tol and (pd or not e >= -tol):  # for tol < 0 the PD bound is looser
                        out.append((n, order, f"not positive {'definite' if pd else 'semidefinite'} "
                                    f"(min eigenvalue {f'{e:.3e}' if np.isfinite(e) else 'not finite'})"))
        return found, lead


def require_valid(spec: GameSpec, for_stackelberg: bool = False) -> StageArrays:
    """The checked view of ``spec``, kept in its :func:`validate` report since
    it was built; a game with any violation raises InvalidGameError listing them all."""
    report = validate(spec, for_stackelberg=for_stackelberg)
    _refuse(report.violations)
    return report.view


def _refuse(violations) -> None:
    if violations:
        messages = [str(v) for v in violations]
        raise InvalidGameError("game definition failed validation:\n  " + "\n  ".join(messages),
                               violations=messages)


def _size_fault(size) -> str | None:
    """What is wrong with a horizon or dimension ``size``, if anything."""
    if not is_integer(size):
        return f"must be an integer, got {size!r}"
    return f"must be >= 1, got {size}" if size < 1 else None


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

    :func:`require_valid` returns it checked, :meth:`of` unchecked: the one
    view laid out when the game was built, from the stacks it holds.
    When every stage is its own StageData object, the view's fields are
    those stacks, which the game's stages view, so a game's data is held
    once: a second copy per game, as in a memo of views beside the
    StageData arrays, raised the peak RSS of a ``solve-long`` benchmark
    round of 11 games from 95.8 to 107.5 MiB.
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
        It is the view laid out when the game was built, kept with its stacks."""
        _refuse(spec._stacks.report().violations)
        return spec._stacks.view

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
        so that each stage's rows meet the products of a lone stage's."""
        rows = X[(slice(None),) * lead + (self.owner, self.rows)]
        return np.ascontiguousarray(rows) if lead else rows


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


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool, which would read as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_real(name: str, value) -> float:
    """``value`` as a float, refused unless it is a real number, not a bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidGameError(f"{name} must be a real number, got {value!r}")
    if not (abs(value) <= sys.float_info.max if isinstance(value, int) else np.isfinite(value)):
        raise InvalidGameError(f"{name} must be finite, got {value}")
    return float(value)


def require_index(name: str, value: int, last: float) -> None:
    """Refuse ``value`` unless it is an integer, not a bool, in [0, last]:
    a player or a stage of a game, where a negative index would silently
    count from the end, or a count or seed, whose ``last`` is infinite."""
    if not is_integer(value):
        raise InvalidGameError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value <= last:
        raise InvalidGameError(f"{name} {value} outside [0, {last}]" if last < np.inf
                               else f"{name} must be >= 0, got {value}")


def stage_cost(spec: GameSpec, player: int, t: int, x_next: np.ndarray, u_all) -> float:
    """Player's stage-t cost for next state ``x_next`` and everyone's controls."""
    StageArrays.of(spec)  # a misshapen game raises, with validate's violations
    require_index("player", player, spec.n_players - 1)
    require_index("stage", t, spec.horizon - 1)
    st = spec.stages[t]
    x_next = _numeric("x_next", x_next)
    if x_next.shape != (spec.state_dim,):
        raise InvalidGameError(
            f"x_next has shape {x_next.shape}, expected {(spec.state_dim,)}"
        )
    u_all = _one_per_player(spec, u_all, "controls")
    dx = x_next - st.x_target[player]
    total = 0.5 * float(dx @ st.Q[player] @ dx)
    for j, u in enumerate(u_all):
        u = _numeric(f"control {j}", u)
        if u.shape != (spec.control_dims[j],):
            raise InvalidGameError(
                f"control {j} has shape {u.shape}, expected {(spec.control_dims[j],)}"
            )
        du = u - st.u_target[player][j]
        total += 0.5 * float(du @ st.R[player][j] @ du)
    return total


def total_cost(spec: GameSpec, traj: Trajectory, player: int) -> float:
    """Stage-additive total cost of one player along a trajectory."""
    require_index("player", player, spec.n_players - 1)
    if not isinstance(traj, Trajectory):
        raise InvalidGameError(f"traj must be a Trajectory, got {type(traj).__name__}")
    if traj.states.shape != (spec.horizon + 1, spec.state_dim):
        raise InvalidGameError(
            f"trajectory shape {traj.states.shape} inconsistent with the game"
        )
    return sum(
        stage_cost(spec, player, t, traj.states[t + 1], [u[t] for u in traj.controls])
        for t in range(spec.horizon)
    )


def initial_state(spec: GameSpec, x0, name: str = "x0") -> np.ndarray:
    """``x0`` as a float vector, checked to be numeric, finite and of the
    game's state dimension; an error calls it ``name``."""
    return require_vector(name, x0, spec.state_dim)


def require_vector(name: str, value, size: int) -> np.ndarray:
    """``value`` as a float vector of length ``size``, checked to be numeric
    and finite; an error calls it ``name``."""
    v = _numeric(name, value)
    if v.shape != (size,):
        raise InvalidGameError(f"{name} has shape {v.shape}, expected {(size,)}")
    if not np.all(np.isfinite(v)):
        raise InvalidGameError(f"{name} must be finite, got {v.tolist()}")
    return v


def _sequence(name: str, value) -> tuple:
    """``value`` as a tuple, refused unless it is a sequence; an error calls it ``name``."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidGameError(f"{name} must be a sequence, got {value!r}") from None


def _numeric(name: str, value) -> np.ndarray:
    """``value`` as a float array, refused unless numeric; an error calls it ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidGameError(f"{name} is not a numeric array: {exc}") from exc


def rollout(spec: GameSpec, laws_or_controls, x0: np.ndarray) -> Trajectory:
    """Simulate the state equation under laws or explicit control sequences.

    ``laws_or_controls`` holds one entry per player: an explicit control
    sequence of shape (T, m_i), or an :class:`AffineLaw` law sequence,
    gains (T, m_i, p) and offsets (T, m_i), evaluated at the realized x_t.

    Any entry may carry a leading sample axis, (S, T, m_i) or
    (S, T, m_i, p); arrays without one are shared by all samples.  Then S
    trajectories from the same x0 are rolled out together and every field
    of the returned :class:`Trajectory` has a leading axis S.  Every
    sample plays the game's own stage drifts.  Stage costs are evaluated
    for all stages and samples in one pass after the state loop, the
    library's one walk of the state equation, which plays every open-loop
    solution's path too.
    """
    view, states, u, S = _walk_rules(spec, laws_or_controls, x0)
    return _priced(view, states, u, S is not None)


def _walk_rules(spec: GameSpec, laws_or_controls, x0):
    """:func:`rollout` unpriced, its arguments checked: the game's view, the states
    (S, T+1, p), the stacked controls (S, T, M) and the sample count or None."""
    x0 = initial_state(spec, x0)
    view = StageArrays.of(spec)
    GT, g, S = _stacked_rules(spec, laws_or_controls)
    return (view, *_walk(view, x0, GT, g, view.s, S), S)


def _walk(view: StageArrays, x0: np.ndarray, GT, g: np.ndarray, s: np.ndarray, S):
    """The one state loop: the states (S, T+1, p) and stacked controls (S, T, M)
    of the rules u_t = x_t GT_t + g_t from x0, gains GT (..., T, p, M), C-contiguous,
    or None for control sequences g alone, offsets g (..., T, M), under drifts s,
    (T, p) or one sequence per sample (S, T, p); S samples, or one when None."""
    T = len(view.A)
    states = np.empty((S or 1, T + 1, len(x0)))
    states[:, 0] = x0
    x = states[:, 0]
    u = np.empty((S or 1, T, g.shape[-1]))
    for t in range(T):
        u[:, t] = g[..., t, :]
        if GT is not None:
            u[:, t] += (x[:, None, :] @ GT[..., t, :, :])[:, 0]
        states[:, t + 1] = x = x @ view.A[t].T + s[..., t, :] + u[:, t] @ view.B[t].T
    return states, u


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
    T, p = spec.horizon, spec.state_dim
    entries = _one_per_player(spec, laws_or_controls, "control sequences or law sequences")

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
            U = np.atleast_2d(_numeric(f"control sequence {i}", entry))
            GT.append(np.zeros((T, p, m)))
            g.append(checked(U, (T, m), f"control sequence {i}"))
    if len(counts) > 1:
        raise InvalidGameError(f"players give different sample counts {sorted(counts)}")
    S = counts.pop() if counts else None
    if S == 0:
        raise InvalidGameError("a sample axis must hold at least one sample")
    laws = any(isinstance(entry, AffineLaw) for entry in entries)
    return _side_by_side(GT) if laws else None, _side_by_side(g), S


def _one_per_player(spec: GameSpec, entries, what: str) -> list:
    """``entries`` as a list, checked to hold one entry per player; an error calls them ``what``."""
    try:
        entries = list(entries)
    except TypeError:
        raise InvalidGameError(f"expected a sequence of {spec.n_players} {what}, got {entries!r}") from None
    if len(entries) != spec.n_players:
        raise InvalidGameError(f"expected {spec.n_players} {what}, got {len(entries)}")
    return entries


def _side_by_side(arrays):
    """Arrays joined along their last axis, any missing sample axis
    broadcast."""
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    return np.concatenate([a if a.shape[:-1] == lead else np.broadcast_to(a, lead + a.shape[-1:])
                           for a in arrays], axis=-1)


def _stage_costs(view: StageArrays, states: np.ndarray, u: np.ndarray, players=slice(None)) -> np.ndarray:
    """Every player's stage costs (S, n, T) along S trajectories, states
    (S, T+1, p) and stacked controls (S, T, M), all stages at once; the
    formula of :func:`stage_cost`.  ``players``, a slice or list of the
    player axis, prices those alone, each entry the bits of the full pricing."""
    def halved_forms(d, W):  # 1/2 d'Wd, the sample axis moved inside: one product per W
        d = np.moveaxis(d, 0, 2)
        return 0.5 * np.einsum("tisk,tisk->sit", d @ W, d)

    return (halved_forms(states[:, 1:, None] - view.xt[:, players], view.Q[:, players])
            + halved_forms(u[:, :, None] - view.ut[:, players], view.R[:, players]))


# ---------------------------------------------------------------------------
# Game transformations


def truncate(spec: GameSpec, start: int) -> GameSpec:
    """The tail game played over stages start..T-1, with stacks of its own.
    A misshapen game raises (:meth:`StageArrays.of`)."""
    StageArrays.of(spec)
    require_index("truncation stage", start, spec.horizon - 1)
    return GameSpec(horizon=spec.horizon - start, state_dim=spec.state_dim,
                    players=spec.players, stages=spec.stages[start:])


def folded_drifts(view: StageArrays, player: int, controls: np.ndarray) -> np.ndarray:
    """Stage drifts ``s_t + B_t^player u_t`` of a game's view with one
    player's control sequence u (T, m) folded in, (T, p); S sequences
    (S, T, m) give S drift sequences (S, T, p).  The caller checks the
    controls' shape, as :func:`dyngame.verify.leader_cost_open_loop` does."""
    return view.s + np.einsum("tpm,...tm->...tp", view.B[:, :, view.blocks[player]], controls)


def reorder_players(spec: GameSpec, order) -> GameSpec:
    """The same game with players permuted (Stackelberg leadership is
    positional: player 0 leads, so reordering chooses the leader), selected
    on the game's checked stacks; stages that share a StageData object share
    the reordered one.  A misshapen game raises (:meth:`StageArrays.of`)."""
    StageArrays.of(spec)
    order = list(order)
    for player in order:
        require_index("player", player, spec.n_players - 1)
    if sorted(order) != list(range(spec.n_players)):
        raise InvalidGameError(
            f"order must be a permutation of 0..{spec.n_players - 1}, got {order}")
    return GameSpec(horizon=spec.horizon, state_dim=spec.state_dim,
                    players=tuple(spec.players[i] for i in order), stages=spec._stacks.stages(order))
