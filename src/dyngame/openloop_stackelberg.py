"""Open-loop Stackelberg equilibrium: one leader committing a sequence.

Player 0 is the leader.  The leader's minimum principle adjoins, besides
its own costate lambda, one multiplier sequence mu^i per follower (paired
with the follower's adjoint recursion) and one cocontrol sequence v^i per
follower (paired with the follower's stationarity condition).  mu runs
*forward* (mu_0^i = 0) while the costates run backward; expressing the
backward quantities as affine functions of the joint (x, mu^2..mu^n)
vector turns the whole system into a single backward induction:

  - follower costates:  p_t^i  = (M_t^ix - W_t^i) x_t + sum_j M_t^ij_mu mu_t^j + m_t^i
  - leader costate:     la_t   = (L_t^x - W_t^0) x_t + sum_j L_t^j_mu  mu_t^j + l_t
  - cocontrols:         v_t^i  = N_t^ix x_{t+1} + sum_j N_t^ij_mu mu_t^j + n_t^i

(W_t here is the state weight absorbed into the quadratic blocks, as in
the other solvers.)  Per stage the unknown cocontrol coefficient families
{N^ix}, {N^ij_mu}, {n^i} share one stacked block operator, so a single
factorization serves all of them.  The forward pass advances the extended
state (x, mu^2..mu^n) jointly, which avoids ever inverting the state
transition map.

The equilibrium is *not* strongly time consistent: re-solving a truncated
game with multipliers reset to zero generally changes the tail.  The tail
is reproduced exactly when the inherited multiplier values are supplied
via ``initial_mu``.

A note on the formulation choice.  There is an alternative derivation of
the same equilibrium that runs two inductions in opposite directions: the
multiplier coefficients (mu^i = C^i x + c^i) forward from stage 0 and the
costate coefficients backward from stage T, each step of either recursion
consuming the other's coefficients at the same stage.  The two families
cannot be decoupled: evaluating C at a stage requires the backward
coefficients of every later stage expressed as functions of the forward
ones, an elimination whose size grows with the horizon and which is not
implementable as a stagewise sweep.  That formulation is therefore
documented here but deliberately not implemented; the affine ansatz in
the *joint* (x, mu) vector used above turns the same optimality system
into the single backward induction implemented by :func:`solve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGameError, SingularSystemError
from .game import AffineLaw, GameSpec, Trajectory, initial_state, require_valid, rollout
from .numerics import solve_dense


@dataclass(frozen=True)
class StageMaps:
    """Per-stage coefficient maps of the backward pass (followers indexed
    0..n-2 for players 1..n-1).

    N: cocontrol maps (on x_{t+1} and mu_t); T/W: follower/leader control
    maps (on x_{t+1} and mu_t); Phi/phi: state transition (on x_t, mu_t);
    Psi/psi: multiplier transition; P/alpha: path gains (on x_t, mu_t).
    """

    Nx: tuple[np.ndarray, ...]
    Nmu: tuple[tuple[np.ndarray, ...], ...]
    nv: tuple[np.ndarray, ...]
    Tx: tuple[np.ndarray, ...]
    Tmu: tuple[tuple[np.ndarray, ...], ...]
    tv: tuple[np.ndarray, ...]
    Wx: np.ndarray
    Wmu: tuple[np.ndarray, ...]
    wv: np.ndarray
    Phix: np.ndarray
    Phimu: tuple[np.ndarray, ...]
    phiv: np.ndarray
    Psix: tuple[np.ndarray, ...]
    Psimu: tuple[tuple[np.ndarray, ...], ...]
    psiv: tuple[np.ndarray, ...]
    P1x: np.ndarray
    P1mu: tuple[np.ndarray, ...]
    alpha1: np.ndarray
    Pix: tuple[np.ndarray, ...]
    Pimu: tuple[tuple[np.ndarray, ...], ...]
    alphai: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class OpenLoopStackelbergSolution:
    spec: GameSpec
    x0: np.ndarray
    initial_mu: np.ndarray          # (n-1, p), zeros for a fresh solve
    trajectory: Trajectory
    # Per player path laws, G (T, m_i, p), g (T, m_i): G is the path gain
    # on x_t and g folds in the multiplier terms at their path values, so
    # the laws reproduce the equilibrium controls along the equilibrium
    # path only.
    laws: tuple[AffineLaw, ...]
    mu: np.ndarray                  # (n-1, T+1, p) multiplier paths
    Mx: np.ndarray                  # (n-1, T+1, p, p)
    Mmu: np.ndarray                 # (n-1, n-1, T+1, p, p)
    mv: np.ndarray                  # (n-1, T+1, p)
    Lx: np.ndarray                  # (T+1, p, p)
    Lmu: np.ndarray                 # (n-1, T+1, p, p)
    lv: np.ndarray                  # (T+1, p)
    stages: tuple[StageMaps, ...]

    def transition_residual(self) -> float:
        """Max gap of the stored (x, mu) paths against the affine maps."""
        worst = 0.0
        x = self.trajectory.states
        for t, sm in enumerate(self.stages):
            x_pred = sm.Phix @ x[t] + sm.phiv
            for j in range(self.mu.shape[0]):
                x_pred = x_pred + sm.Phimu[j] @ self.mu[j, t]
            worst = max(worst, np.abs(x[t + 1] - x_pred).max(initial=0.0))
            for i in range(self.mu.shape[0]):
                mu_pred = sm.Psix[i] @ x[t] + sm.psiv[i]
                for j in range(self.mu.shape[0]):
                    mu_pred = mu_pred + sm.Psimu[i][j] @ self.mu[j, t]
                worst = max(worst, np.abs(self.mu[i, t + 1] - mu_pred).max(initial=0.0))
        return float(worst)


def solve(spec: GameSpec, x0: np.ndarray, initial_mu: np.ndarray | None = None) -> OpenLoopStackelbergSolution:
    """Open-loop Stackelberg equilibrium with player 0 as leader.

    ``initial_mu`` sets the followers' adjoined multipliers at stage 0;
    zero is the equilibrium condition for a whole game, while a tail
    re-solve inherits the multipliers reached at the truncation stage.
    """
    require_valid(spec)
    if spec.n_players < 2:
        raise InvalidGameError("a Stackelberg game needs a leader and at least one follower")
    x0 = initial_state(spec, x0)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    nf = n - 1
    followers = list(range(1, n))

    Mx = np.empty((nf, T + 1, p, p))
    Mmu = np.zeros((nf, nf, T + 1, p, p))
    mv = np.zeros((nf, T + 1, p))
    Lx = np.empty((T + 1, p, p))
    Lmu = np.zeros((nf, T + 1, p, p))
    lv = np.zeros((T + 1, p))
    for k, i in enumerate(followers):
        Mx[k, T] = spec.stages[T - 1].Q[i]
    Lx[T] = spec.stages[T - 1].Q[0]

    maps: list[StageMaps] = [None] * T
    for t in range(T - 1, -1, -1):
        maps[t] = _backward_stage(spec, t, Mx, Mmu, mv, Lx, Lmu, lv)

    if initial_mu is None:
        mu0 = np.zeros((nf, p))
    else:
        mu0 = np.atleast_2d(np.asarray(initial_mu, dtype=float))
        if mu0.shape != (nf, p):
            raise InvalidGameError(
                f"initial_mu has shape {mu0.shape}, expected {(nf, p)}"
            )

    # Forward pass over the extended state (x, mu^1..mu^nf); the path laws
    # take the multiplier terms at their path values.
    G = [np.empty((T, m, p)) for m in spec.control_dims]
    g = [np.empty((T, m)) for m in spec.control_dims]
    controls = [np.empty((T, m)) for m in spec.control_dims]
    mu = np.empty((nf, T + 1, p))
    mu[:, 0] = mu0
    x = x0.copy()
    for t in range(T):
        sm = maps[t]
        mu_t = mu[:, t]
        path_gains = [(sm.P1x, sm.alpha1, sm.P1mu)] + list(zip(sm.Pix, sm.alphai, sm.Pimu))
        for i, (Px, alpha, Pmu) in enumerate(path_gains):
            mu_terms = sum(Pmu[j] @ mu_t[j] for j in range(nf))
            G[i][t], g[i][t] = Px, alpha + mu_terms
            controls[i][t] = Px @ x + alpha + mu_terms
        x_next = sm.Phix @ x + sm.phiv + sum(sm.Phimu[j] @ mu_t[j] for j in range(nf))
        for k in range(nf):
            mu[k, t + 1] = (sm.Psix[k] @ x + sm.psiv[k]
                            + sum(sm.Psimu[k][j] @ mu_t[j] for j in range(nf)))
        x = x_next

    traj = rollout(spec, controls, x0)
    return OpenLoopStackelbergSolution(
        spec=spec, x0=x0, initial_mu=mu0, trajectory=traj,
        laws=tuple(map(AffineLaw, G, g)), mu=mu,
        Mx=Mx, Mmu=Mmu, mv=mv, Lx=Lx, Lmu=Lmu, lv=lv, stages=tuple(maps),
    )


def _backward_stage(spec, t, Mx, Mmu, mv, Lx, Lmu, lv) -> StageMaps:
    """One backward step: cocontrol systems, control maps, transitions,
    then the costate coefficient updates (written into the arrays)."""
    st = spec.stages[t]
    p = spec.state_dim
    n = spec.n_players
    nf = n - 1
    followers = list(range(1, n))
    fdims = [spec.control_dims[i] for i in followers]
    A, s = st.A, st.s

    nxt = t + 1
    # Per follower i: K_i = R^{leader,i} (R^ii)^{-1} B^i', the weight the
    # leader's cost places on follower i's stationarity direction.
    K = []
    RinvBt = []
    for k, i in enumerate(followers):
        rb = solve_dense(st.R[i][i], st.B[i].T, context=f"stage {t} follower weight")
        RinvBt.append(rb)
        K.append(st.R[0][i] @ rb)

    # Stacked cocontrol operator; one factorization, 2 + nf right-hand families.
    C_rows = []
    for k, i in enumerate(followers):
        row = []
        for l, j in enumerate(followers):
            blk = (st.B[i].T @ (st.Q[j] + Lmu[l, nxt]) @ st.B[j]
                   - K[k] @ Mmu[k, l, nxt] @ st.B[j])
            if k == l:
                blk = blk + st.R[i][i]
            row.append(blk)
        C_rows.append(np.hstack(row))
    C = np.vstack(C_rows)

    rhs_x = np.vstack([K[k] @ Mx[k, nxt] - st.B[i].T @ Lx[nxt]
                       for k, i in enumerate(followers)])
    rhs_mu = [
        np.vstack([
            (K[k] @ Mmu[k, m, nxt] - st.B[i].T @ Lmu[m, nxt] - st.B[i].T @ st.Q[followers[m]]) @ A
            for k, i in enumerate(followers)
        ])
        for m in range(nf)
    ]
    rhs_c = np.concatenate([
        st.B[i].T @ (st.Q[0] @ st.x_target[0] - lv[nxt])
        - st.R[0][i] @ (-RinvBt[k] @ (mv[k, nxt] - st.Q[i] @ st.x_target[i])
                        + st.u_target[i][i] - st.u_target[0][i])
        for k, i in enumerate(followers)
    ])
    try:
        packed = solve_dense(C, np.hstack([rhs_x] + rhs_mu + [rhs_c[:, None]]),
                             context=f"stage {t} stacked cocontrol system")
    except SingularSystemError as exc:
        raise SingularSystemError(
            "the stacked cocontrol coefficient systems admit no unique solution "
            f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
        ) from exc
    blocks = np.split(packed, np.cumsum(fdims[:-1]), axis=0)
    Nx = [blk[:, :p] for blk in blocks]
    Nmu = [[blk[:, p * (1 + m):p * (2 + m)] for m in range(nf)] for blk in blocks]
    nv = [blk[:, p * (1 + nf)] for blk in blocks]

    # Follower control maps (on x_{t+1} and mu_t).
    Tx, Tmu, tv = [], [], []
    for k, i in enumerate(followers):
        Tx.append(-RinvBt[k] @ (Mx[k, nxt]
                                + sum(Mmu[k, l, nxt] @ st.B[j] @ Nx[l]
                                      for l, j in enumerate(followers))))
        Tmu.append([
            -RinvBt[k] @ (Mmu[k, m, nxt] @ A
                          + sum(Mmu[k, l, nxt] @ st.B[j] @ Nmu[l][m]
                                for l, j in enumerate(followers)))
            for m in range(nf)
        ])
        tv.append(-RinvBt[k] @ (sum(Mmu[k, l, nxt] @ st.B[j] @ nv[l]
                                    for l, j in enumerate(followers))
                                + mv[k, nxt] - st.Q[i] @ st.x_target[i])
                  + st.u_target[i][i])

    # Leader control map.
    Rl_invBt = solve_dense(st.R[0][0], st.B[0].T, context=f"stage {t} leader weight")
    Wx = -Rl_invBt @ (Lx[nxt] + sum((Lmu[l, nxt] + st.Q[j]) @ st.B[j] @ Nx[l]
                                    for l, j in enumerate(followers)))
    Wmu = [
        -Rl_invBt @ ((Lmu[m, nxt] + st.Q[followers[m]]) @ A
                     + sum((Lmu[l, nxt] + st.Q[j]) @ st.B[j] @ Nmu[l][m]
                           for l, j in enumerate(followers)))
        for m in range(nf)
    ]
    wv = (-Rl_invBt @ (lv[nxt] - st.Q[0] @ st.x_target[0]
                       + sum((Lmu[l, nxt] + st.Q[j]) @ st.B[j] @ nv[l]
                             for l, j in enumerate(followers)))
          + st.u_target[0][0])

    # State transition: make x_{t+1} explicit in the control maps.
    E = np.eye(p) - st.B[0] @ Wx - sum(st.B[j] @ Tx[l] for l, j in enumerate(followers))
    rhs_phi_mu = [st.B[0] @ Wmu[m] + sum(st.B[j] @ Tmu[l][m] for l, j in enumerate(followers))
                  for m in range(nf)]
    rhs_phi_c = st.B[0] @ wv + sum(st.B[j] @ tv[l] for l, j in enumerate(followers)) + s
    try:
        packed = solve_dense(E, np.hstack([A] + rhs_phi_mu + [rhs_phi_c[:, None]]),
                             context=f"stage {t} state transition operator")
    except SingularSystemError as exc:
        raise SingularSystemError(
            "the state transition operator I - B^0 W^x - sum_j B^j T^jx is singular "
            f"({exc})", context=f"stage {t}", cond_estimate=exc.cond_estimate,
        ) from exc
    Phix = packed[:, :p]
    Phimu = [packed[:, p * (1 + m):p * (2 + m)] for m in range(nf)]
    phiv = packed[:, p * (1 + nf)]

    # Multiplier transition.
    Psix, Psimu, psiv = [], [], []
    for k, i in enumerate(followers):
        Psix.append(st.B[i] @ Nx[k] @ Phix)
        row = []
        for m in range(nf):
            blk = st.B[i] @ (Nx[k] @ Phimu[m] + Nmu[k][m])
            if m == k:
                blk = blk + A
            row.append(blk)
        Psimu.append(row)
        psiv.append(st.B[i] @ (Nx[k] @ phiv + nv[k]))

    # Costate coefficient updates.
    for k, i in enumerate(followers):
        Mx[k, t] = (spec.prev_state_weight(t, i)
                    + A.T @ (Mx[k, nxt] @ Phix
                             + sum(Mmu[k, l, nxt] @ Psix[l] for l in range(nf))))
        for m in range(nf):
            Mmu[k, m, t] = A.T @ (Mx[k, nxt] @ Phimu[m]
                                  + sum(Mmu[k, l, nxt] @ Psimu[l][m] for l in range(nf)))
        mv[k, t] = A.T @ (Mx[k, nxt] @ phiv
                          + sum(Mmu[k, l, nxt] @ psiv[l] for l in range(nf))
                          + mv[k, nxt] - st.Q[i] @ st.x_target[i])
    Lx[t] = (spec.prev_state_weight(t, 0)
             + A.T @ (Lx[nxt] @ Phix
                      + sum(Lmu[l, nxt] @ Psix[l] for l in range(nf))
                      + sum(st.Q[j] @ st.B[j] @ Nx[l] @ Phix for l, j in enumerate(followers))))
    for m in range(nf):
        Lmu[m, t] = A.T @ (Lx[nxt] @ Phimu[m]
                           + sum(Lmu[l, nxt] @ Psimu[l][m] for l in range(nf))
                           + st.Q[followers[m]] @ A
                           + sum(st.Q[j] @ st.B[j] @ (Nx[l] @ Phimu[m] + Nmu[l][m])
                                 for l, j in enumerate(followers)))
    lv[t] = A.T @ (Lx[nxt] @ phiv
                   + sum(Lmu[l, nxt] @ psiv[l] for l in range(nf))
                   + lv[nxt] - st.Q[0] @ st.x_target[0]
                   + sum(st.Q[j] @ st.B[j] @ (Nx[l] @ phiv + nv[l])
                         for l, j in enumerate(followers)))

    # Path gains (controls as functions of x_t and mu_t).
    P1x = Wx @ Phix
    P1mu = [Wx @ Phimu[m] + Wmu[m] for m in range(nf)]
    alpha1 = Wx @ phiv + wv
    Pix = [Tx[k] @ Phix for k in range(nf)]
    Pimu = [[Tx[k] @ Phimu[m] + Tmu[k][m] for m in range(nf)] for k in range(nf)]
    alphai = [Tx[k] @ phiv + tv[k] for k in range(nf)]

    return StageMaps(
        Nx=tuple(Nx), Nmu=tuple(tuple(r) for r in Nmu), nv=tuple(nv),
        Tx=tuple(Tx), Tmu=tuple(tuple(r) for r in Tmu), tv=tuple(tv),
        Wx=Wx, Wmu=tuple(Wmu), wv=wv,
        Phix=Phix, Phimu=tuple(Phimu), phiv=phiv,
        Psix=tuple(Psix), Psimu=tuple(tuple(r) for r in Psimu), psiv=tuple(psiv),
        P1x=P1x, P1mu=tuple(P1mu), alpha1=alpha1,
        Pix=tuple(Pix), Pimu=tuple(tuple(r) for r in Pimu), alphai=tuple(alphai),
    )


def costate_reconstruction(sol: OpenLoopStackelbergSolution):
    """Multipliers along the path: leader costate lambda_0..lambda_T,
    follower costates p_0..p_T, and cocontrols v_0..v_{T-1}.

    lambda_T and p_T^i are exactly zero by the terminal conditions.
    """
    spec = sol.spec
    T, p, nf = spec.horizon, spec.state_dim, spec.n_players - 1
    followers = list(range(1, spec.n_players))
    x = sol.trajectory.states

    lam = np.empty((T + 1, p))
    pco = np.empty((nf, T + 1, p))
    for t in range(T + 1):
        lam[t] = (sol.Lx[t] - spec.prev_state_weight(t, 0)) @ x[t] + sol.lv[t]
        for j in range(nf):
            lam[t] = lam[t] + sol.Lmu[j, t] @ sol.mu[j, t]
        for k, i in enumerate(followers):
            pco[k, t] = (sol.Mx[k, t] - spec.prev_state_weight(t, i)) @ x[t] + sol.mv[k, t]
            for j in range(nf):
                pco[k, t] = pco[k, t] + sol.Mmu[k, j, t] @ sol.mu[j, t]

    v = [np.empty((T, m)) for m in (spec.control_dims[i] for i in followers)]
    for t, sm in enumerate(sol.stages):
        for k in range(nf):
            v[k][t] = sm.Nx[k] @ x[t + 1] + sm.nv[k]
            for j in range(nf):
                v[k][t] = v[k][t] + sm.Nmu[k][j] @ sol.mu[j, t]
    return lam, pco, tuple(v)


def kkt_residuals(sol: OpenLoopStackelbergSolution) -> dict[str, float]:
    """Max-norm residuals of the leader's minimum-principle system along
    the path: stationarity of both sides, costate and multiplier
    recursions, cocontrol consistency, and the state equation."""
    spec = sol.spec
    T, n = spec.horizon, spec.n_players
    nf = n - 1
    followers = list(range(1, n))
    x = sol.trajectory.states
    u = sol.trajectory.controls
    lam, pco, v = costate_reconstruction(sol)

    res = {k: 0.0 for k in ("leader_stationarity", "cocontrol", "leader_costate",
                            "multiplier", "follower_stationarity",
                            "follower_costate", "state")}

    def mx(key, val):
        res[key] = max(res[key], float(np.abs(val).max(initial=0.0)))

    for t in range(T):
        st = spec.stages[t]
        dx0 = x[t + 1] - st.x_target[0]
        qmu = [st.Q[j] @ (st.A @ sol.mu[l, t]) for l, j in enumerate(followers)]
        qv = [st.Q[j] @ (st.B[j] @ v[l][t]) for l, j in enumerate(followers)]

        g1 = (st.R[0][0] @ (u[0][t] - st.u_target[0][0])
              + st.B[0].T @ (st.Q[0] @ dx0 + lam[t + 1])
              + st.B[0].T @ sum(qmu) + st.B[0].T @ sum(qv))
        mx("leader_stationarity", g1)

        for k, i in enumerate(followers):
            qv_others = sum((qv[l] for l in range(nf) if l != k),
                            start=np.zeros(spec.state_dim))
            gi = (st.B[i].T @ (st.Q[0] @ dx0 + lam[t + 1])
                  + st.R[0][i] @ (u[i][t] - st.u_target[0][i])
                  + st.B[i].T @ sum(qmu)
                  + (st.B[i].T @ st.Q[i] @ st.B[i] + st.R[i][i]) @ v[k][t]
                  + st.B[i].T @ qv_others)
            mx("cocontrol", gi)

            dxi = x[t + 1] - st.x_target[i]
            mx("follower_stationarity",
               st.R[i][i] @ (u[i][t] - st.u_target[i][i])
               + st.B[i].T @ (st.Q[i] @ dxi + pco[k, t + 1]))
            mx("follower_costate",
               pco[k, t] - st.A.T @ (pco[k, t + 1] + st.Q[i] @ dxi))
            mx("multiplier",
               sol.mu[k, t + 1] - (st.A @ sol.mu[k, t] + st.B[i] @ v[k][t]))

        mx("leader_costate",
           lam[t] - (st.A.T @ (st.Q[0] @ dx0 + lam[t + 1]) + st.A.T @ sum(qmu)
                     + st.A.T @ sum(qv)))
        mx("state",
           x[t + 1] - (st.A @ x[t] + st.s + sum(st.B[j] @ u[j][t] for j in range(n))))

    mx("leader_costate", lam[T])
    for k in range(nf):
        mx("follower_costate", pco[k, T])
    return res
