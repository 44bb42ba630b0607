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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGameError
from .numerics import SYMMETRY_RTOL, asymmetry, classify_definiteness


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _repair_symmetry(M: np.ndarray) -> np.ndarray:
    """Average away asymmetry within the repair tolerance, else leave as-is.

    Anything beyond the tolerance is left untouched so that validation can
    report it instead of silently rewriting the game.
    """
    if M.ndim == 2 and M.shape[0] == M.shape[1]:
        gap, too_large = asymmetry(M, SYMMETRY_RTOL)
        if 0.0 < gap and not too_large:
            return 0.5 * (M + M.T)
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


def make_stage(A, B, Q, R, s=None, x_target=None, u_target=None) -> StageData:
    """Build a StageData, filling omitted drift/targets with zeros."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p = A.shape[0]
    B = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in B)
    n = len(B)
    dims = [b.shape[1] for b in B]
    if s is None:
        s = np.zeros(p)
    if x_target is None:
        x_target = tuple(np.zeros(p) for _ in range(n))
    if u_target is None:
        u_target = tuple(tuple(np.zeros(dims[j]) for j in range(n)) for _ in range(n))
    return StageData(A=A, B=B, s=np.asarray(s, dtype=float), Q=tuple(Q), R=tuple(tuple(r for r in row) for row in R),
                     x_target=tuple(x_target), u_target=tuple(tuple(u for u in row) for row in u_target))


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

    def stage(self, t: int) -> StageData:
        return self.stages[t]

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
    """GameSpec with one StageData broadcast to all T stages."""
    stage = make_stage(A, B, Q, R, s=s, x_target=x_target, u_target=u_target)
    n = len(stage.B)
    if names is None:
        names = [f"P{i + 1}" for i in range(n)]
    players = tuple(Player(control_dim=stage.B[i].shape[1], name=names[i]) for i in range(n))
    return GameSpec(horizon=T, state_dim=stage.A.shape[0], players=players,
                    stages=tuple(stage for _ in range(T)))


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
    violations: tuple[Violation, ...]

    def __bool__(self):
        return not self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [str(v) for v in self.violations]


def validate(spec: GameSpec, tol: float = 1e-9, for_stackelberg: bool = False) -> ValidationReport:
    """Check dimensions, symmetry and definiteness of a game definition.

    Returns every violation found (violations are data, not exceptions).
    ``for_stackelberg`` additionally requires the first player's cross
    control weights R^{1j} to be positive semidefinite, which the feedback
    Stackelberg solver needs for a convex leader stage problem.
    """
    out: list[Violation] = []

    def add(loc, msg):
        out.append(Violation(loc, msg))

    n = spec.n_players
    p = spec.state_dim
    dims = spec.control_dims
    if spec.horizon < 1:
        add("horizon", f"must be >= 1, got {spec.horizon}")
    if p < 1:
        add("state_dim", f"must be >= 1, got {p}")
    if n < 1:
        add("players", "at least one player is required")
    for i, m in enumerate(dims):
        if m < 1:
            add(f"players/{i}/control_dim", f"must be >= 1, got {m}")
    if len(spec.stages) != spec.horizon:
        add("stages", f"expected {spec.horizon} stages, got {len(spec.stages)}")
        return ValidationReport(tuple(out))
    if out:
        return ValidationReport(tuple(out))

    for t, st in enumerate(spec.stages):
        loc = f"stages/{t}"
        if st.A.shape != (p, p):
            add(f"{loc}/A", f"expected shape {(p, p)}, got {st.A.shape}")
        if len(st.B) != n:
            add(f"{loc}/B", f"expected {n} control matrices, got {len(st.B)}")
        else:
            for j, b in enumerate(st.B):
                if b.shape != (p, dims[j]):
                    add(f"{loc}/B/{j}", f"expected shape {(p, dims[j])}, got {b.shape}")
        if st.s.shape != (p,):
            add(f"{loc}/s", f"expected shape {(p,)}, got {st.s.shape}")
        if len(st.Q) != n:
            add(f"{loc}/Q", f"expected {n} state weights, got {len(st.Q)}")
        else:
            for i, q in enumerate(st.Q):
                qloc = f"{loc}/Q/{i}"
                if q.shape != (p, p):
                    add(qloc, f"expected shape {(p, p)}, got {q.shape}")
                    continue
                _check_sym_def(q, qloc, "PSD", tol, add)
        if len(st.R) != n or any(len(row) != n for row in st.R):
            add(f"{loc}/R", f"expected an {n}x{n} table of control weights")
        else:
            for i, row in enumerate(st.R):
                for j, r in enumerate(row):
                    rloc = f"{loc}/R/{i}/{j}"
                    if r.shape != (dims[j], dims[j]):
                        add(rloc, f"expected shape {(dims[j], dims[j])}, got {r.shape}")
                        continue
                    if i == j:
                        _check_sym_def(r, rloc, "PD", tol, add)
                    elif for_stackelberg and i == 0:
                        _check_sym_def(r, rloc, "PSD", tol, add)
                    else:
                        _check_sym_def(r, rloc, None, tol, add)
        if len(st.x_target) != n:
            add(f"{loc}/x_target", f"expected {n} state targets, got {len(st.x_target)}")
        else:
            for i, x in enumerate(st.x_target):
                if x.shape != (p,):
                    add(f"{loc}/x_target/{i}", f"expected shape {(p,)}, got {x.shape}")
        if len(st.u_target) != n or any(len(row) != n for row in st.u_target):
            add(f"{loc}/u_target", f"expected an {n}x{n} table of control targets")
        else:
            for i, row in enumerate(st.u_target):
                for j, u in enumerate(row):
                    if u.shape != (dims[j],):
                        add(f"{loc}/u_target/{i}/{j}",
                            f"expected shape {(dims[j],)}, got {u.shape}")
    return ValidationReport(tuple(out))


def _check_sym_def(M, loc, need, tol, add):
    gap, too_large = asymmetry(M, tol)
    if too_large:
        add(loc, f"not symmetric (max asymmetry {gap:.2e})")
        return
    if need is None:
        return
    d = classify_definiteness(0.5 * (M + M.T), tol=tol)
    if need == "PD" and d.classification != "PD":
        add(loc, f"not positive definite (min eigenvalue {d.min_eigenvalue:.3e})")
    elif need == "PSD" and not d.is_psd:
        add(loc, f"not positive semidefinite (min eigenvalue {d.min_eigenvalue:.3e})")


def require_valid(spec: GameSpec, tol: float = 1e-9, for_stackelberg: bool = False) -> None:
    report = validate(spec, tol=tol, for_stackelberg=for_stackelberg)
    if not report.ok:
        raise InvalidGameError(
            "game definition failed validation:\n  " + "\n  ".join(report.messages()),
            violations=report.messages(),
        )


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


def rollout(spec: GameSpec, laws_or_controls, x0: np.ndarray) -> Trajectory:
    """Simulate the state equation under laws or explicit control sequences.

    ``laws_or_controls`` holds one entry per player: an explicit control
    sequence of shape (T, m_i), or an :class:`AffineLaw` law sequence,
    gains (T, m_i, p) and offsets (T, m_i), evaluated at the realized x_t.

    Any entry may carry a leading sample axis, (S, T, m_i) or
    (S, T, m_i, p); arrays without one are shared by all samples.  Then S
    trajectories from the same x0 are rolled out together and every field
    of the returned :class:`Trajectory` has a leading axis S.  Stage costs
    are evaluated for all stages and samples in one pass after the state
    loop.
    """
    x0 = initial_state(spec, x0)
    T = spec.horizon
    players, S = _player_major(spec, laws_or_controls)

    states = np.empty((S or 1, T + 1, spec.state_dim))
    states[:, 0] = x0
    x = states[:, 0]
    played = [np.empty((S or 1, T, m)) for m in spec.control_dims]
    for t, st in enumerate(spec.stages):
        x_next = x @ st.A.T + st.s
        for i, (GT, g, U) in enumerate(players):
            if GT is None:
                u = U[..., t, :]
            else:
                u = (x[:, None, :] @ GT[..., t, :, :])[:, 0] + g[..., t, :]
            played[i][:, t] = u
            x_next += u @ st.B[i].T
        states[:, t + 1] = x = x_next

    costs = _stage_costs(spec, states, played)
    if S is None:
        states, played, costs = states[0], [u[0] for u in played], costs[0]
    return Trajectory(states=states, controls=tuple(played),
                      stage_costs=costs, total_costs=costs.sum(axis=-1))


def _player_major(spec: GameSpec, laws_or_controls):
    """Per player ``(G', g, None)`` for a law sequence, with the gains
    transposed to (..., T, p, m), or ``(None, None, U)`` for a control
    sequence, checked against the game; and the common sample count (None
    when no array has a sample axis)."""
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    if len(spec.stages) != T:
        raise InvalidGameError(f"expected {T} stages, got {len(spec.stages)}")
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

    players = []
    for i, (entry, m) in enumerate(zip(entries, spec.control_dims)):
        if isinstance(entry, AffineLaw):
            players.append((np.swapaxes(checked(entry.G, (T, m, p), f"law sequence {i} gains"), -1, -2),
                            checked(entry.g, (T, m), f"law sequence {i} offsets"), None))
        else:
            try:
                U = np.atleast_2d(np.asarray(entry, dtype=float))
            except (TypeError, ValueError) as exc:
                raise InvalidGameError(f"control sequence {i} is not a numeric array: {exc}") from exc
            players.append((None, None, checked(U, (T, m), f"control sequence {i}")))
    if len(counts) > 1:
        raise InvalidGameError(f"players give different sample counts {sorted(counts)}")
    S = counts.pop() if counts else None
    if S == 0:
        raise InvalidGameError("a sample axis must hold at least one sample")
    return players, S


def _stage_costs(spec: GameSpec, states: np.ndarray, controls) -> np.ndarray:
    """Every player's stage costs (S, n, T) along S trajectories, all
    stages at once; the formula of :func:`stage_cost`."""
    n, stages = spec.n_players, spec.stages

    def quadratic(d, W):  # 1/2 d' W d per sample, player and stage
        return 0.5 * np.einsum("sntk,ntkl,sntl->snt", d, W, d)

    costs = quadratic(states[:, None, 1:] - np.array([[st.x_target[i] for st in stages] for i in range(n)]),
                      np.array([[st.Q[i] for st in stages] for i in range(n)]))
    for j, u in enumerate(controls):
        costs += quadratic(u[:, None] - np.array([[st.u_target[i][j] for st in stages] for i in range(n)]),
                           np.array([[st.R[i][j] for st in stages] for i in range(n)]))
    return costs


# ---------------------------------------------------------------------------
# Game transformations used by oracles and time-consistency checks


def truncate(spec: GameSpec, start: int) -> GameSpec:
    """The tail game played over stages start..T-1."""
    if not 0 <= start < spec.horizon:
        raise InvalidGameError(f"truncation stage {start} outside [0, {spec.horizon})")
    return GameSpec(horizon=spec.horizon - start, state_dim=spec.state_dim,
                    players=spec.players, stages=spec.stages[start:])


def _player_subgame(spec: GameSpec, keep, drifts=None) -> GameSpec:
    """The game restricted to players ``keep``, in that order, every cost
    block kept; ``drifts[t]`` replaces stage t's drift when given."""
    stages = tuple(
        StageData(
            A=st.A,
            B=tuple(st.B[i] for i in keep),
            s=st.s if drifts is None else drifts[t],
            Q=tuple(st.Q[i] for i in keep),
            R=tuple(tuple(st.R[i][j] for j in keep) for i in keep),
            x_target=tuple(st.x_target[i] for i in keep),
            u_target=tuple(tuple(st.u_target[i][j] for j in keep) for i in keep),
        )
        for t, st in enumerate(spec.stages)
    )
    return GameSpec(horizon=spec.horizon, state_dim=spec.state_dim,
                    players=tuple(spec.players[i] for i in keep), stages=stages)


def fold_player_controls(spec: GameSpec, player: int, controls: np.ndarray) -> GameSpec:
    """Freeze one player's control sequence into the drift and drop the player.

    The remaining players face the same dynamics with
    ``s_t <- s_t + B_t^player u_t`` and keep their own cost blocks.  Cost
    terms that depend only on the frozen sequence are dropped; they shift
    cost values but not the remaining players' equilibrium controls.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    m = spec.control_dims[player]
    if controls.shape != (spec.horizon, m):
        raise InvalidGameError(
            f"controls have shape {controls.shape}, expected {(spec.horizon, m)}"
        )
    keep = [i for i in range(spec.n_players) if i != player]
    drifts = [st.s + st.B[player] @ controls[t] for t, st in enumerate(spec.stages)]
    return _player_subgame(spec, keep, drifts)


def reorder_players(spec: GameSpec, order) -> GameSpec:
    """The same game with players permuted (Stackelberg leadership is
    positional: player 0 leads, so reordering chooses the leader)."""
    order = list(order)
    if sorted(order) != list(range(spec.n_players)):
        raise InvalidGameError(
            f"order must be a permutation of 0..{spec.n_players - 1}, got {order}")
    return _player_subgame(spec, order)


def single_player_view(spec: GameSpec, player: int) -> GameSpec:
    """The one-player control problem a player faces when all other control
    channels are absent (B^j = 0 is the caller's responsibility to check)."""
    return _player_subgame(spec, [player])
