"""Alternate formulations kept only to cross-check the library.

Two kinds live here.  The per-sample loop formulations of the sampling
oracles draw their random directions one sample at a time and roll out one
trajectory, or sum one tail of stage costs, per sample or finite-difference
probe, exactly as the library did before its oracles ran over a sample
axis.  Costs come from :func:`dyngame.game.stage_cost`, stage by stage, so
they do not share the batched rollout's vectorised cost pass.

The independent solver formulations (criterion 3 of the acceptance suite)
re-derive each equilibrium through another grouping of the same algebra:
feedback Nash by the direct-law recursion, open-loop Nash by the shifted
costate coefficients, single-player control by the pre-multiplied kernel,
and both two-player linear-quadratic Stackelberg solutions by closed
forms.  Each must agree with its library solver to roundoff.
"""

import numpy as np

from dyngame import feedback_stackelberg, lqr, openloop_stackelberg, verify
from dyngame.errors import InvalidGameError
from dyngame.feedback_nash import (FeedbackNashSolution, _split, _update_quadratics,
                                   stacked_stage_operator)
from dyngame.game import AffineLaw, require_valid, rollout, stage_cost
from dyngame.numerics import solve_dense
from dyngame.openloop_nash import OpenLoopNashSolution
from dyngame.solvers import OPEN_LOOP, solver_of

from conftest import act


def unit(rng, shape):
    d = rng.standard_normal(shape)
    norm = np.linalg.norm(d)
    return d if norm == 0 else d / norm


def sequence_perturbations(u, samples, magnitude, rng):
    scale = magnitude * max(1.0, np.linalg.norm(u))
    for _ in range(samples):
        yield u + scale * unit(rng, u.shape)


def law_perturbations(law, samples, magnitude, rng):
    """Perturbations of one player's law sequence, one sample at a time."""
    T, m, p = law.G.shape
    scale = magnitude * max(1.0, max(np.abs(G_t).max(initial=0.0) for G_t in law.G))
    for _ in range(samples):
        flat = unit(rng, T * (m * p + m)) * scale
        yield AffineLaw(law.G + flat[:T * m * p].reshape(T, m, p),
                        law.g + flat[T * m * p:].reshape(T, m))


def played_cost(spec, player, t, x, controls_at):
    """Player's cost of stages t..T-1 from pre-decision state x, with every
    player's stage-tau controls given by ``controls_at(tau, x_tau)``."""
    total = 0.0
    for tau in range(t, spec.horizon):
        st = spec.stages[tau]
        us = controls_at(tau, x)
        x_next = st.A @ x + st.s
        for j in range(spec.n_players):
            x_next = x_next + st.B[j] @ us[j]
        total += stage_cost(spec, player, tau, x_next, us)
        x = x_next
    return total


def tail_cost(spec, laws, t, x, player, stage_controls):
    return played_cost(spec, player, t, x, lambda tau, xx: stage_controls if tau == t
                       else [act(law, tau, xx) for law in laws])


def stationarity(spec, sol, h, x0=None):
    stackelberg = solver_of(sol).stackelberg
    if solver_of(sol).pattern == OPEN_LOOP:
        return _stationarity_open_loop(spec, sol, h, stackelberg)
    return _stationarity_feedback(spec, sol, h, np.asarray(x0, dtype=float), stackelberg)


def _stationarity_open_loop(spec, sol, h, stackelberg):
    T, n = spec.horizon, spec.n_players
    controls = [u.copy() for u in sol.trajectory.controls]
    out = {}
    for i in range(n):
        if stackelberg and i == 0:
            def cost(u_flat):
                return verify.leader_cost_open_loop(
                    spec, u_flat.reshape(T, spec.control_dims[0]), sol.x0)
        else:
            def cost(u_flat, i=i):
                us = [controls[j] if j != i else u_flat.reshape(T, spec.control_dims[i])
                      for j in range(n)]
                return rollout(spec, us, sol.x0).total_costs[i]
        grad = verify.central_gradient(cost, controls[i].ravel(), h)
        out[i] = float(np.abs(grad).max(initial=0.0))
    return out


def _stationarity_feedback(spec, sol, h, x0, stackelberg):
    T, n = spec.horizon, spec.n_players
    laws = sol.laws
    states = rollout(spec, laws, x0).states
    out = {i: 0.0 for i in range(n)}
    for t in range(T):
        x = states[t]
        base = [act(laws[j], t, x) for j in range(n)]
        for i in range(n):
            if stackelberg and i == 0:
                def cost(u1, t=t, x=x):
                    us = [np.asarray(u1)] + sol.stage_reaction(t, x, u1)
                    return tail_cost(spec, laws, t, x, 0, us)
            else:
                def cost(ui, t=t, x=x, i=i, base=base):
                    us = [base[j] if j != i else np.asarray(ui) for j in range(n)]
                    return tail_cost(spec, laws, t, x, i, us)
            grad = verify.central_gradient(cost, base[i], h)
            out[i] = max(out[i], float(np.abs(grad).max(initial=0.0)))
    return out


def deviation_gap(spec, sol, player, samples, magnitude, seed, x0=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = np.inf
    if solver_of(sol).pattern == OPEN_LOOP:
        controls = sol.trajectory.controls
        base = sol.trajectory.total_costs[player]
        for dev in sequence_perturbations(controls[player], samples, magnitude, rng):
            us = [controls[j] if j != player else dev for j in range(spec.n_players)]
            worst = min(worst, rollout(spec, us, sol.x0).total_costs[player] - base)
        return float(worst)
    laws = sol.laws
    base = rollout(spec, laws, x0).total_costs[player]
    for dev in law_perturbations(laws[player], samples, magnitude, rng):
        dev_laws = list(laws)
        dev_laws[player] = dev
        worst = min(worst, rollout(spec, dev_laws, x0).total_costs[player] - base)
    return float(worst)


def leader_cost_feedback(spec, sol, leader_law, x0):
    """Leader's realized cost when it plays ``leader_law`` and followers
    react stagewise through the solution's reaction maps."""
    def controls_at(t, x):
        u1 = act(leader_law, t, x)
        return [u1] + sol.stage_reaction(t, x, u1)
    return played_cost(spec, 0, 0, np.asarray(x0, dtype=float), controls_at)


def leader_gap_feedback(spec, sol, samples, magnitude, seed, x0):
    rng = np.random.Generator(np.random.PCG64(seed))
    base_law = sol.laws[0]
    base = leader_cost_feedback(spec, sol, base_law, x0)
    worst = np.inf
    for dev in law_perturbations(base_law, samples, magnitude, rng):
        worst = min(worst, leader_cost_feedback(spec, sol, dev, x0) - base)
    return float(worst)


# ---------------------------------------------------------------------------
# Independent solver formulations


def law_deviation(a, b) -> float:
    """Max entrywise gap between two solutions' laws (gains and offsets)."""
    return float(max(max(np.abs(la.G - lb.G).max(initial=0.0),
                         np.abs(la.g - lb.g).max(initial=0.0))
                     for la, lb in zip(a.laws, b.laws)))


def control_deviation(a, b) -> float:
    """Max entrywise gap between two solutions' control sequences and paths."""
    worst = max(
        np.abs(ua - ub).max(initial=0.0)
        for ua, ub in zip(a.trajectory.controls, b.trajectory.controls)
    )
    return float(max(worst, np.abs(a.trajectory.states - b.trajectory.states).max(initial=0.0)))


def feedback_nash_solve_alt(spec) -> FeedbackNashSolution:
    """Feedback Nash through the direct-law formulation.

    Solves for the laws u = G x + g directly (no sign flip), propagating
    H (= Z) and the shifted linear coefficient h instead of zeta.  A pure
    renaming of :func:`dyngame.feedback_nash.solve` algebraically, written
    as an independent code path so the two can be compared.
    """
    require_valid(spec)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    dims = spec.control_dims

    H = np.empty((n, T + 1, p, p))
    h = np.zeros((n, T + 1, p))
    for i in range(n):
        H[i, T] = spec.stages[T - 1].Q[i]
        h[i, T] = spec.stages[T - 1].Q[i] @ spec.stages[T - 1].x_target[i]

    # Value constants are not part of the rewrite; rebuilt with the shared
    # closed-loop update so the returned object still evaluates values.
    Z = np.empty((n, T + 1, p, p))
    zeta = np.zeros((n, T + 1, p))
    n_const = np.zeros((n, T + 1))
    for i in range(n):
        Z[i, T] = spec.stages[T - 1].Q[i]

    all_players = list(range(n))
    G_seq = [np.empty((T, m, p)) for m in dims]
    g_seq = [np.empty((T, m)) for m in dims]

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        H_next = [H[i, t + 1] for i in range(n)]
        C = stacked_stage_operator(st.B, H_next, st.R, all_players)
        rhs_G = np.vstack([-(st.B[i].T @ H_next[i] @ st.A) for i in range(n)])
        v = [st.B[i].T @ (H_next[i] @ st.s - h[i, t + 1]) - st.R[i][i] @ st.u_target[i][i]
             for i in range(n)]
        rhs_g = np.concatenate([-v[i] for i in range(n)])
        sol = solve_dense(C, np.hstack([rhs_G, rhs_g[:, None]]),
                          context=f"stage {t} direct-law system")
        blocks = _split(sol, dims)
        G = [blk[:, :p] for blk in blocks]
        g = [blk[:, p] for blk in blocks]
        for i in range(n):
            G_seq[i][t], g_seq[i][t] = G[i], g[i]

        K = st.A + sum(st.B[j] @ G[j] for j in range(n))
        k_vec = st.s + sum(st.B[j] @ g[j] for j in range(n))
        for i in range(n):
            Ht = (K.T @ H_next[i] @ K
                  + sum(G[j].T @ st.R[i][j] @ G[j] for j in range(n))
                  + spec.prev_state_weight(t, i))
            H[i, t] = 0.5 * (Ht + Ht.T)
            prev_xt = (spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p))
            h[i, t] = (spec.prev_state_weight(t, i) @ prev_xt
                       - K.T @ (H_next[i] @ k_vec - h[i, t + 1])
                       + sum(G[j].T @ st.R[i][j] @ (st.u_target[i][j] - g[j])
                             for j in range(n)))

        _update_quadratics(spec, t, [-Gi for Gi in G], [-gi for gi in g], Z, zeta, n_const)

    return FeedbackNashSolution(spec=spec, laws=tuple(map(AffineLaw, G_seq, g_seq)),
                                Z=Z, zeta=zeta, n_const=n_const)


def openloop_nash_solve_alt(spec, x0) -> OpenLoopNashSolution:
    """Open-loop Nash via the shifted costate coefficients (H, h).

    Rewrites m^i as h^i + Q^i xt_i and expresses the controls directly
    through the *next* state, u_t^i = ut_ii - (R^ii)^{-1} B^i'(H_{t+1}^i
    x_{t+1}* + h_{t+1}^i).  Must agree with
    :func:`dyngame.openloop_nash.solve` to ~1e-10.
    """
    require_valid(spec)
    x0 = np.asarray(x0, dtype=float)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players

    H = np.empty((n, T + 1, p, p))
    h = np.zeros((n, T + 1, p))
    for i in range(n):
        Qterm = spec.stages[T - 1].Q[i]
        H[i, T] = Qterm
        h[i, T] = -Qterm @ spec.stages[T - 1].x_target[i]
    Lam = np.empty((T, p, p))
    eta = np.empty((T, p))

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        L = np.eye(p)
        e = st.s.copy()
        for j in range(n):
            RinvBt = solve_dense(st.R[j][j], st.B[j].T, context=f"stage {t} control weight")
            L = L + st.B[j] @ RinvBt @ H[j, t + 1]
            e = e + st.B[j] @ (st.u_target[j][j] - RinvBt @ h[j, t + 1])
        Lam[t] = L
        eta[t] = e
        core = solve_dense(L, np.hstack([st.A, e[:, None]]),
                           context=f"stage {t} rewritten transition operator")
        for i in range(n):
            H[i, t] = spec.prev_state_weight(t, i) + st.A.T @ H[i, t + 1] @ core[:, :p]
            prev_xt = spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p)
            h[i, t] = (-spec.prev_state_weight(t, i) @ prev_xt
                       + st.A.T @ (H[i, t + 1] @ core[:, p] + h[i, t + 1]))

    controls = [np.empty((T, mm)) for mm in spec.control_dims]
    G = [np.empty((T, mm, p)) for mm in spec.control_dims]
    g = [np.empty((T, mm)) for mm in spec.control_dims]
    x = x0.copy()
    for t in range(T):
        st = spec.stages[t]
        packed = solve_dense(Lam[t], np.hstack([st.A, eta[t][:, None]]),
                             context=f"stage {t} state update")
        Phi_t, phi_t = packed[:, :p], packed[:, p]
        x_next = Phi_t @ x + phi_t
        for i in range(n):
            RinvBt = solve_dense(st.R[i][i], st.B[i].T, context=f"stage {t} control weight")
            controls[i][t] = st.u_target[i][i] - RinvBt @ (H[i, t + 1] @ x_next + h[i, t + 1])
            # Path-law form for parity with the library solver.
            G[i][t] = -RinvBt @ H[i, t + 1] @ Phi_t
            g[i][t] = st.u_target[i][i] - RinvBt @ (H[i, t + 1] @ phi_t + h[i, t + 1])
        x = x_next

    traj = rollout(spec, controls, x0)
    # Convert (H, h) back to (M, m) so the returned object is uniform.
    M = H.copy()
    m = np.zeros((n, T + 1, p))
    for i in range(n):
        for t in range(T + 1):
            if t == T:
                xt = spec.stages[T - 1].x_target[i]
                m[i, t] = h[i, t] + spec.stages[T - 1].Q[i] @ xt
            else:
                prev_xt = spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p)
                m[i, t] = h[i, t] + spec.prev_state_weight(t, i) @ prev_xt
    Phi = np.empty((T, p, p))
    phi = np.empty((T, p))
    for t in range(T):
        st = spec.stages[t]
        Phi[t] = solve_dense(Lam[t], st.A, context=f"stage {t} state update")
        phi[t] = solve_dense(Lam[t], eta[t], context=f"stage {t} state update")
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj,
                                laws=tuple(map(AffineLaw, G, g)), M=M, m=m, Phi=Phi, phi=phi)


def lqr_crosscheck_premultiplied(spec) -> float:
    """Max deviation between :func:`dyngame.lqr.solve_control` and the
    pre-multiplied rewrite.

    The rewrite factors the gain as (R + B'SB)^{-1} B' applied to S A and
    to (S s + sigma); it is the same algebra in a different grouping and a
    regression guard for the value-recursion constants.  Expected ~1e-12.
    """
    main = lqr.solve_control(spec)
    law = main.laws[0]
    T, p = spec.horizon, spec.state_dim

    S = np.empty((T + 1, p, p))
    sigma = np.zeros((T + 1, p))
    q_const = np.zeros(T + 1)
    S[T] = spec.stages[T - 1].Q[0]

    worst = 0.0
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B, s, R = st.A, st.B[0], st.s, st.R[0][0]
        # Pre-multiplied kernel: K = (R + B'SB)^{-1} B'
        K = solve_dense(R + B.T @ S[t + 1] @ B, B.T, context=f"stage {t} rewrite kernel")
        P = K @ S[t + 1] @ A
        alpha = K @ (S[t + 1] @ s + sigma[t + 1])

        G_dev = np.abs((-P) - law.G[t]).max(initial=0.0)
        g_dev = np.abs((-alpha) - law.g[t]).max(initial=0.0)
        worst = max(worst, G_dev, g_dev)

        F = A - B @ P
        d = s - B @ alpha
        St = F.T @ S[t + 1] @ F + P.T @ R @ P + spec.prev_state_weight(t, 0)
        S[t] = 0.5 * (St + St.T)
        sigma[t] = F.T @ (sigma[t + 1] + S[t + 1] @ d) + P.T @ R @ alpha
        q_const[t] = (q_const[t + 1] + 0.5 * d @ S[t + 1] @ d
                      + sigma[t + 1] @ d + 0.5 * alpha @ R @ alpha)

    worst = max(worst, np.abs(S[0] - main.Z[0]).max(initial=0.0),
                np.abs(sigma[0] - main.zeta[0]).max(initial=0.0),
                abs(q_const[0] - main.n_const[0]))
    return float(worst)


def require_two_player_lq(spec) -> None:
    """Refuse games outside the closed forms: two players, zero drift and
    targets, identity own-control weights."""
    if spec.n_players != 2:
        raise InvalidGameError("cross-check requires exactly two players")
    for t, st in enumerate(spec.stages):
        if np.any(st.s):
            raise InvalidGameError(f"stage {t}: cross-check requires zero drift")
        for i in range(2):
            if np.any(st.x_target[i]) or any(np.any(u) for u in st.u_target[i]):
                raise InvalidGameError(f"stage {t}: cross-check requires zero targets")
            if not np.allclose(st.R[i][i], np.eye(spec.control_dims[i]), atol=1e-12):
                raise InvalidGameError(
                    f"stage {t}: cross-check requires identity own-control weights"
                )


def feedback_stackelberg_crosscheck_two_player_lq(spec) -> float:
    """Two-player linear-quadratic cross-check via push-through closed forms.

    With n = 2, zero drift and targets, and identity own-control weights,
    the leader gain is expressible in closed form with the push-through
    inverse identities (no reaction coefficients appear); returns the max
    gain deviation from :func:`dyngame.feedback_stackelberg.solve`.  This
    guards the exact closed-form expression, which is easy to get wrong.
    """
    require_two_player_lq(spec)
    main = feedback_stackelberg.solve(spec)
    T, p = spec.horizon, spec.state_dim

    n = 2
    L = np.empty((n, T + 1, p, p))
    for i in range(n):
        L[i, T] = spec.stages[T - 1].Q[i]

    worst = 0.0
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B1, B2 = st.A, st.B[0], st.B[1]
        R12 = st.R[0][1]
        L1, L2 = L[0, t + 1], L[1, t + 1]
        m2 = B2.shape[1]

        # Push-through forms: with E = (I + B2 B2' L2)^{-1},
        # B1 + B2 rbar = E B1 and A + B2 W = E A.
        E = np.linalg.inv(np.eye(p) + B2 @ B2.T @ L2)
        core = np.linalg.inv(np.eye(m2) + B2.T @ L2 @ B2)
        cross = L2 @ B2 @ core @ R12 @ core @ B2.T @ L2
        S1 = np.linalg.solve(
            B1.T @ E.T @ L1 @ E @ B1 + B1.T @ cross @ B1 + np.eye(B1.shape[1]),
            B1.T @ (E.T @ L1 @ E + cross) @ A,
        )
        S2 = np.linalg.solve(np.eye(m2) + B2.T @ L2 @ B2,
                             B2.T @ L2 @ (A - B1 @ S1))

        # S^i is the recursion's P^i = -G^i.
        worst = max(worst,
                    np.abs(S1 + main.laws[0].G[t]).max(initial=0.0),
                    np.abs(S2 + main.laws[1].G[t]).max(initial=0.0))

        F = A - B1 @ S1 - B2 @ S2
        for i, (Si, Sj, Rij) in enumerate(((S1, S2, st.R[0][1]), (S2, S1, st.R[1][0]))):
            Lt = (F.T @ L[i, t + 1] @ F + Si.T @ Si + Sj.T @ Rij @ Sj
                  + spec.prev_state_weight(t, i))
            L[i, t] = 0.5 * (Lt + Lt.T)
    return float(worst)


def openloop_stackelberg_crosscheck_two_player_lq(spec, x0) -> float:
    """Two-player linear-quadratic open-loop Stackelberg cross-check with
    identity own weights.

    With one follower the stacked cocontrol system collapses to inverting
    B2'(Q2 + Lmu)B2 + I - R12 B2' Mmu B2, and every coefficient map has a
    closed scalar-block form.  Runs the whole specialized recursion and
    forward pass independently; returns the max control/state deviation
    from :func:`dyngame.openloop_stackelberg.solve`.
    """
    require_two_player_lq(spec)
    main = openloop_stackelberg.solve(spec, x0)
    T, p = spec.horizon, spec.state_dim
    m2 = spec.control_dims[1]

    MxS = spec.stages[T - 1].Q[1].copy()
    MmuS = np.zeros((p, p))
    LxS = spec.stages[T - 1].Q[0].copy()
    LmuS = np.zeros((p, p))

    seq = []
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B1, B2, R12, Q1, Q2 = st.A, st.B[0], st.B[1], st.R[0][1], st.Q[0], st.Q[1]
        core = B2.T @ (Q2 + LmuS) @ B2 + np.eye(m2) - R12 @ B2.T @ MmuS @ B2
        Nx = -np.linalg.solve(core, B2.T @ LxS - R12 @ B2.T @ MxS)
        Nmu = -np.linalg.solve(core, (B2.T @ (Q2 + LmuS) - R12 @ B2.T @ MmuS) @ A)
        Tx = -B2.T @ (MxS + MmuS @ B2 @ Nx)
        Tmu = -B2.T @ MmuS @ (A + B2 @ Nmu)
        Wx = -B1.T @ (LxS + (LmuS + Q2) @ B2 @ Nx)
        Wmu = -B1.T @ ((LmuS + Q2) @ A + (LmuS + Q2) @ B2 @ Nmu)
        E = np.eye(p) - B1 @ Wx - B2 @ Tx
        Phix = np.linalg.solve(E, A)
        Phimu = np.linalg.solve(E, B1 @ Wmu + B2 @ Tmu)
        Psix = B2 @ Nx @ Phix
        Psimu = A + B2 @ (Nx @ Phimu + Nmu)

        seq.append({
            "P1x": Wx @ Phix, "P1mu": Wx @ Phimu + Wmu,
            "P2x": Tx @ Phix, "P2mu": Tx @ Phimu + Tmu,
            "Phix": Phix, "Phimu": Phimu, "Psix": Psix, "Psimu": Psimu,
        })

        Mx_new = spec.prev_state_weight(t, 1) + A.T @ (MxS @ Phix + MmuS @ Psix)
        Mmu_new = A.T @ (MxS @ Phimu + MmuS @ Psimu)
        Lx_new = spec.prev_state_weight(t, 0) + A.T @ (LxS @ Phix + LmuS @ Psix
                                                       + Q2 @ B2 @ Nx @ Phix)
        Lmu_new = A.T @ (LxS @ Phimu + LmuS @ Psimu + Q2 @ A
                         + Q2 @ B2 @ (Nx @ Phimu + Nmu))
        MxS, MmuS, LxS, LmuS = Mx_new, Mmu_new, Lx_new, Lmu_new

    seq.reverse()
    x = np.asarray(x0, dtype=float).copy()
    mu = np.zeros(p)
    worst = 0.0
    for t in range(T):
        c = seq[t]
        u1 = c["P1x"] @ x + c["P1mu"] @ mu
        u2 = c["P2x"] @ x + c["P2mu"] @ mu
        worst = max(worst,
                    np.abs(u1 - main.trajectory.controls[0][t]).max(initial=0.0),
                    np.abs(u2 - main.trajectory.controls[1][t]).max(initial=0.0))
        x, mu = c["Phix"] @ x + c["Phimu"] @ mu, c["Psix"] @ x + c["Psimu"] @ mu
        worst = max(worst, np.abs(x - main.trajectory.states[t + 1]).max(initial=0.0))
    return float(worst)
