import json
from dataclasses import replace

import numpy as np
import pytest

from dyngame.errors import InvalidGameError
from dyngame.game import (AffineLaw, GameSpec, constant_game, reorder_players, rollout,
                          stage_cost, total_cost, truncate, validate)
from dyngame.gameio import (GameFormatError, game_from_dict, game_to_dict,
                            load_game, save_game)

import reference_formulations as ref
from conftest import (GOLDEN, random_game, random_x0, rng_for, scalar_unit_lqr,
                      scalar_unit_two_player)


def test_validate_scalar_unit_spec_is_clean():
    assert validate(scalar_unit_lqr()).ok


def test_validate_flags_negative_q():
    spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[-1.0]]], R=[[[[1.0]]]], T=1)
    report = validate(spec)
    assert not report.ok
    assert any("Q/0" in m and "semidefinite" in m for m in report.messages())


def test_validate_flags_zero_r():
    spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[[0.0]]]], T=1)
    report = validate(spec)
    assert any("R/0/0" in m and "definite" in m for m in report.messages())


def test_validate_flags_dimension_mismatch():
    spec = constant_game(A=np.eye(2), B=[np.ones((2, 1))], Q=[np.eye(2)],
                         R=[[np.eye(1)]], T=2)
    bad = spec.stages[0]
    from dyngame.game import GameSpec, StageData
    broken = StageData(A=bad.A, B=(np.ones((3, 1)),), s=bad.s, Q=bad.Q, R=bad.R,
                       x_target=bad.x_target, u_target=bad.u_target)
    spec2 = GameSpec(horizon=2, state_dim=2, players=spec.players,
                     stages=(broken, bad))
    messages = validate(spec2).messages()
    assert any("stages/0/B/0" in m for m in messages)


def test_validate_rejects_degenerate_dimensions():
    spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[[1.0]]]], T=1)
    from dyngame.game import GameSpec
    zero_T = GameSpec(horizon=0, state_dim=1, players=spec.players, stages=())
    assert any("horizon" in m for m in validate(zero_T).messages())


@pytest.mark.parametrize("kwargs, message", [
    ({"T": 2.0}, "T must be an integer, got 2.0"), ({"T": True}, "T must be an integer, got True"),
    ({"T": "3"}, "T must be an integer, got '3'"),
    ({"T": 2, "names": ["only"]}, "expected 2 names, got 1"),
    ({"T": 2, "names": ["a", "b", "c"]}, "expected 2 names, got 3")])
def test_constant_game_refuses_a_non_integer_horizon_or_a_wrong_name_count(kwargs, message):
    # a bare TypeError or IndexError before; extra names were dropped
    with pytest.raises(InvalidGameError, match=f"^{message}$"):
        constant_game(A=np.eye(2), B=[np.ones((2, 1))] * 2, Q=[np.eye(2)] * 2,
                      R=[[np.eye(1)] * 2] * 2, **kwargs)


def test_validate_stackelberg_mode_checks_leader_cross_weights():
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]], Q=[[[1.0]], [[1.0]]],
                         R=[[[[1.0]], [[-0.5]]], [[[0.0]], [[1.0]]]], T=1)
    assert validate(spec).ok
    assert not validate(spec, for_stackelberg=True).ok


class TestStageCost:
    def test_zero_everything(self):
        spec = scalar_unit_lqr()
        assert stage_cost(spec, 0, 0, np.zeros(1), [np.zeros(1)]) == 0.0

    def test_non_finite_values_are_priced(self):
        # numbers that are not finite are priced, as total_cost prices a
        # path that diverged; only what is not numeric is refused
        spec = scalar_unit_lqr()
        assert np.isnan(stage_cost(spec, 0, 0, np.array([np.nan]), [np.zeros(1)]))
        assert stage_cost(spec, 0, 0, np.zeros(1), [np.array([np.inf])]) == np.inf

    def test_hand_value(self):
        # 1/2 * 2^2 * 1 + 1/2 * 1^2 * 1 = 2.5
        spec = scalar_unit_lqr()
        assert stage_cost(spec, 0, 0, np.array([2.0]), [np.array([1.0])]) == pytest.approx(2.5)

    def test_minimum_at_targets(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[2.0]]], R=[[[[3.0]]]],
                             T=1, x_target=[[0.7]], u_target=[[[-0.2]]])
        val = stage_cost(spec, 0, 0, np.array([0.7]), [np.array([-0.2])])
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_translation_invariance(self):
        rng = rng_for(13)
        spec = random_game(13, n_players=2, state_dim=2, horizon=2)
        d = rng.standard_normal(2)
        x_next = rng.standard_normal(2)
        us = [rng.standard_normal(m) for m in spec.control_dims]
        base = stage_cost(spec, 0, 0, x_next, us)
        st = spec.stages[0]
        from dyngame.game import GameSpec, StageData
        shifted_stage = StageData(
            A=st.A, B=st.B, s=st.s, Q=st.Q, R=st.R,
            x_target=(st.x_target[0] + d, st.x_target[1] + d),
            u_target=st.u_target)
        shifted = GameSpec(horizon=spec.horizon, state_dim=2, players=spec.players,
                           stages=(shifted_stage,) + spec.stages[1:])
        assert stage_cost(shifted, 0, 0, x_next + d, us) == pytest.approx(base, rel=1e-12)

    def test_dimension_error(self):
        spec = scalar_unit_lqr()
        with pytest.raises(InvalidGameError):
            stage_cost(spec, 0, 0, np.zeros(2), [np.zeros(1)])
        with pytest.raises(InvalidGameError):
            stage_cost(spec, 0, 5, np.zeros(1), [np.zeros(1)])


@pytest.mark.parametrize("call, message", [
    (lambda spec, traj: stage_cost(spec, -1, 0, traj.states[1], [u[0] for u in traj.controls]),
     r"player -1 outside \[0, 1\]"),
    (lambda spec, traj: stage_cost(spec, 2, 0, traj.states[1], [u[0] for u in traj.controls]),
     r"player 2 outside \[0, 1\]"),
    (lambda spec, traj: total_cost(spec, traj, -1), r"player -1 outside \[0, 1\]"),
    (lambda spec, traj: total_cost(spec, traj, 2), r"player 2 outside \[0, 1\]"),
    (lambda spec, traj: spec.prev_state_weight(-1, 0), r"stage -1 outside \[0, 3\]"),
    (lambda spec, traj: spec.prev_state_weight(4, 0), r"stage 4 outside \[0, 3\]"),
    (lambda spec, traj: spec.prev_state_weight(5, 0), r"stage 5 outside \[0, 3\]"),
    (lambda spec, traj: spec.prev_state_weight(1, -1), r"player -1 outside \[0, 1\]"),
    (lambda spec, traj: spec.prev_state_weight(0, 2), r"player 2 outside \[0, 1\]"),
], ids=["stage-cost-player-1", "stage-cost-player-n", "total-cost-player-1",
        "total-cost-player-n", "weight-stage-1", "weight-stage-T+1", "weight-stage-T+2",
        "weight-player-1", "weight-player-n"])
def test_costs_and_weights_refuse_a_stage_or_player_outside_the_game(call, message):
    # a negative index would silently count from the end
    spec = load_game(GOLDEN / "two_player.json")
    traj = rollout(spec, [np.zeros((3, m)) for m in spec.control_dims], np.array([1.0, -0.5]))
    with pytest.raises(InvalidGameError, match=f"^{message}$"):
        call(spec, traj)


@pytest.mark.parametrize("call, message", [
    (lambda spec, traj: stage_cost(spec, 0, 1.5, traj.states[1], [u[0] for u in traj.controls]),
     "stage must be an integer, got 1.5"),
    (lambda spec, traj: stage_cost(spec, 0, True, traj.states[1], [u[0] for u in traj.controls]),
     "stage must be an integer, got True"),
    (lambda spec, traj: stage_cost(spec, 0, 3, traj.states[1], [u[0] for u in traj.controls]),
     r"stage 3 outside \[0, 2\]"),
    (lambda spec, traj: stage_cost(spec, True, 0, traj.states[1], [u[0] for u in traj.controls]),
     "player must be an integer, got True"),
    (lambda spec, traj: truncate(spec, 1.5), "truncation stage must be an integer, got 1.5"),
    (lambda spec, traj: truncate(spec, True), "truncation stage must be an integer, got True"),
    (lambda spec, traj: truncate(spec, 3), r"truncation stage 3 outside \[0, 2\]"),
    (lambda spec, traj: reorder_players(spec, [True, 0]), "player must be an integer, got True"),
    (lambda spec, traj: reorder_players(spec, [1.0, 0]), "player must be an integer, got 1.0"),
    (lambda spec, traj: total_cost(spec, traj, False), "player must be an integer, got False"),
], ids=["stage-cost-stage-float", "stage-cost-stage-bool", "stage-cost-stage-T",
        "stage-cost-player-bool", "truncate-float", "truncate-bool", "truncate-T",
        "reorder-bool", "reorder-float", "total-cost-player-bool"])
def test_stages_and_players_must_be_integers(call, message):
    # True would count as stage or player 1, and 1.5 end in a TypeError
    spec = load_game(GOLDEN / "two_player.json")
    traj = rollout(spec, [np.zeros((3, m)) for m in spec.control_dims], np.array([1.0, -0.5]))
    with pytest.raises(InvalidGameError, match=f"^{message}$"):
        call(spec, traj)


@pytest.mark.parametrize("call, message", [
    (lambda spec, traj: rollout(spec, None, traj.states[0]),
     "expected a sequence of 2 control sequences or law sequences, got None"),
    (lambda spec, traj: rollout(spec, 3, traj.states[0]),
     "expected a sequence of 2 control sequences or law sequences, got 3"),
    (lambda spec, traj: stage_cost(spec, 0, 0, traj.states[1], None),
     "expected a sequence of 2 controls, got None"),
    (lambda spec, traj: stage_cost(spec, 0, 0, traj.states[1], 3),
     "expected a sequence of 2 controls, got 3"),
    (lambda spec, traj: total_cost(spec, traj.states, 0), "traj must be a Trajectory, got ndarray"),
    (lambda spec, traj: total_cost(spec, None, 0), "traj must be a Trajectory, got NoneType"),
    (lambda spec, traj: stage_cost(spec, 0, 0, "a", [u[0] for u in traj.controls]),
     "x_next is not a numeric array: could not convert string to float: 'a'"),
    (lambda spec, traj: stage_cost(spec, 0, 0, traj.states[1], [traj.controls[0][0], "b"]),
     "control 1 is not a numeric array: could not convert string to float: 'b'"),
], ids=["rollout-none", "rollout-int", "stage-cost-none", "stage-cost-int", "total-cost-array",
        "total-cost-none", "stage-cost-state-text", "stage-cost-control-text"])
def test_an_argument_that_is_not_a_sequence_is_refused(call, message):
    # each ended in a bare TypeError, AttributeError or ValueError; the
    # last two are sequences, of entries that are not numbers
    spec = load_game(GOLDEN / "two_player.json")
    traj = rollout(spec, [np.zeros((3, m)) for m in spec.control_dims], np.array([1.0, -0.5]))
    with pytest.raises(InvalidGameError, match=f"^{message}$"):
        call(spec, traj)


@pytest.mark.parametrize("field", ["players", "stages"])
def test_a_game_without_players_or_stages_is_refused(field):
    # None ended in a bare TypeError while the game was built
    spec = scalar_unit_two_player(T=3)
    parts = dict(horizon=3, state_dim=1, players=spec.players, stages=spec.stages)
    parts[field] = None
    with pytest.raises(InvalidGameError, match=f"^{field} must be a sequence, got None$"):
        GameSpec(**parts)


_UNIT = dict(Q=[[[1.0]], [[1.0]]], R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=3)


@pytest.mark.parametrize("build, message", [
    (lambda spec: GameSpec(3, 1, (1, 2), spec.stages), "players/0 must be a Player, got 1"),
    (lambda spec: GameSpec(3, 1, (spec.players[0], None), spec.stages),
     "players/1 must be a Player, got None"),
    (lambda spec: GameSpec(3, 1, spec.players, (1, 2, 3)), "stages/0 must be a StageData, got 1"),
    (lambda spec: replace(spec.stages[0], A="x"),
     "A is not a numeric array: could not convert string to float: 'x'"),
    (lambda spec: replace(spec.stages[0], R=((spec.stages[0].R[0][0], "a"), spec.stages[0].R[1])),
     "R/0/1 is not a numeric array: could not convert string to float: 'a'"),
    (lambda spec: replace(spec.stages[0], B=None), "B must be a sequence, got None"),
    (lambda spec: constant_game("x", [[[1.0]], [[1.0]]], **_UNIT),
     "A is not a numeric array: could not convert string to float: 'x'"),
    (lambda spec: constant_game([[1.0]], None, **_UNIT), "B must be a sequence, got None"),
], ids=["int-players", "none-player", "int-stages", "text-A", "text-R", "none-B",
        "constant-text-A", "constant-none-B"])
def test_malformed_game_parts_are_refused_by_name(build, message):
    # each ended in a bare AttributeError, ValueError or TypeError
    with pytest.raises(InvalidGameError, match=f"^{message}$"):
        build(scalar_unit_two_player(T=3))


@pytest.mark.parametrize("broken", ["state-weight-shape", "stage-count", "control-count"])
def test_costs_and_weights_refuse_a_misshapen_game(broken):
    """As rollout does, the costs, the previous-state weight and the player
    reorder refuse a game with a (3, 3) Q^0 for p = 2, 2 stages for horizon
    3, or one control matrix for two players, with validate's violations,
    not a bare numpy error, a misshapen weight or a reordered game."""
    spec = load_game(GOLDEN / "two_player.json")
    st = spec.stages[0]
    stages = {"state-weight-shape": (replace(st, Q=(np.eye(3), st.Q[1])),) * 3,
              "stage-count": spec.stages[:2], "control-count": (replace(st, B=st.B[:1]),) * 3}
    bad = GameSpec(spec.horizon, spec.state_dim, spec.players, stages[broken])
    traj = rollout(spec, [np.zeros((3, m)) for m in spec.control_dims], np.array([1.0, -0.5]))
    expected = validate(bad).messages()
    assert expected
    for call in (lambda: stage_cost(bad, 0, 2, traj.states[3], [u[2] for u in traj.controls]),
                 lambda: total_cost(bad, traj, 0), lambda: bad.prev_state_weight(3, 0),
                 lambda: reorder_players(bad, [1, 0])):
        with pytest.raises(InvalidGameError) as info:
            call()
        assert info.value.violations == expected


class TestRollout:
    def test_identity_dynamics_constant_state(self):
        spec = constant_game(A=np.eye(2), B=[np.zeros((2, 1))], Q=[np.eye(2)],
                             R=[[np.eye(1)]], T=3)
        traj = rollout(spec, [np.ones((3, 1))], np.array([1.0, -2.0]))
        assert np.allclose(traj.states, np.array([1.0, -2.0]))

    def test_hand_step(self):
        spec = constant_game(A=[[2.0]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[[1.0]]]], T=1)
        traj = rollout(spec, [np.array([[1.0]])], np.array([1.0]))
        assert traj.states[1] == pytest.approx(3.0)

    def test_law_offsets_hit_targets(self):
        ut = np.array([0.4])
        spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[[1.0]]]],
                             T=3, u_target=[[ut]])
        laws = [AffineLaw(np.zeros((3, 1, 1)), np.tile(ut, (3, 1)))]
        traj = rollout(spec, laws, np.array([0.0]))
        assert np.allclose(traj.controls[0], ut)

    def test_total_cost_matches_stage_additive_sum(self):
        spec = random_game(17, n_players=3)
        x0 = random_x0(17, spec)
        rng = rng_for(18)
        us = [rng.standard_normal((spec.horizon, m)) for m in spec.control_dims]
        traj = rollout(spec, us, x0)
        for i in range(3):
            assert total_cost(spec, traj, i) == pytest.approx(
                traj.total_costs[i], rel=1e-12)
            assert traj.total_costs[i] == pytest.approx(
                traj.stage_costs[i].sum(), rel=1e-12)

    def test_bad_x0_rejected(self):
        with pytest.raises(InvalidGameError):
            rollout(scalar_unit_lqr(), [np.zeros((1, 1))], np.zeros(3))


class TestTransformations:
    def test_truncate_shapes(self):
        spec = random_game(19, horizon=4)
        tail = truncate(spec, 2)
        assert tail.horizon == 2
        # the tail stacks itself: new stage objects, shared as before, with equal entries
        assert tail.stages[0] is tail.stages[1] and tail.stages[0] is not spec.stages[2]

        def entries(st):
            return [st.A, *st.B, st.s, *st.Q, *(r for row in st.R for r in row), *st.x_target,
                    *(u for row in st.u_target for u in row)]

        for new, old in zip(tail.stages, spec.stages[2:]):
            assert all(np.array_equal(a, b) for a, b in zip(entries(new), entries(old), strict=True))

    def test_fold_player_controls_matches_manual_rollout(self):
        spec = random_game(21, n_players=2)
        rng = rng_for(22)
        u0 = rng.standard_normal((spec.horizon, spec.control_dims[0]))
        u1 = rng.standard_normal((spec.horizon, spec.control_dims[1]))
        x0 = random_x0(21, spec)
        full = rollout(spec, [u0, u1], x0)
        reduced = ref.fold_player_controls(spec, 0, u0)
        red_traj = rollout(reduced, [u1], x0)
        assert np.allclose(red_traj.states, full.states, atol=1e-12)

    def test_reorder_players_permutes_costs_consistently(self):
        from dyngame.game import reorder_players
        spec = random_game(25, n_players=3)
        order = [2, 0, 1]
        swapped = reorder_players(spec, order)
        rng = rng_for(26)
        us = [rng.standard_normal((spec.horizon, m)) for m in spec.control_dims]
        x0 = random_x0(25, spec)
        full = rollout(spec, us, x0)
        perm = rollout(swapped, [us[i] for i in order], x0)
        assert np.allclose(perm.states, full.states, atol=1e-13)
        for new_i, old_i in enumerate(order):
            assert perm.total_costs[new_i] == pytest.approx(
                full.total_costs[old_i], rel=1e-12)
        with pytest.raises(InvalidGameError):
            reorder_players(spec, [0, 0, 1])


def test_game_data_is_immutable():
    spec = scalar_unit_lqr()
    with pytest.raises(ValueError):
        spec.stages[0].A[0, 0] = 2.0
    traj = rollout(spec, [np.zeros((1, 1))], np.zeros(1))
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0


class TestJsonRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        spec = random_game(23, n_players=2, time_varying=True)
        path = tmp_path / "game.json"
        save_game(spec, path)
        loaded = load_game(path)
        assert loaded.horizon == spec.horizon
        for st_a, st_b in zip(spec.stages, loaded.stages):
            assert np.array_equal(st_a.A, st_b.A)
            for a, b in zip(st_a.B, st_b.B):
                assert np.array_equal(a, b)
            for a, b in zip(st_a.Q, st_b.Q):
                assert np.array_equal(a, b)
            for row_a, row_b in zip(st_a.R, st_b.R):
                for a, b in zip(row_a, row_b):
                    assert np.array_equal(a, b)
            assert np.array_equal(st_a.s, st_b.s)

    def test_broadcast_stage(self):
        doc = {
            "horizon": 5,
            "state_dim": 1,
            "players": [{"name": "only", "control_dim": 1}],
            "stage": {"A": [[1.0]], "B": [[[1.0]]], "Q": [[[1.0]]], "R": [[[[1.0]]]]},
        }
        spec = game_from_dict(doc)
        assert spec.horizon == 5
        assert len(spec.stages) == 5
        assert all(st is spec.stages[0] for st in spec.stages)

    def test_defaults_are_zero(self):
        doc = {
            "horizon": 1, "state_dim": 2,
            "players": [{"control_dim": 1}],
            "stage": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[[1.0], [0.0]]],
                      "Q": [[[1.0, 0.0], [0.0, 1.0]]], "R": [[[[1.0]]]]},
        }
        spec = game_from_dict(doc)
        assert not np.any(spec.stages[0].s)
        assert not np.any(spec.stages[0].x_target[0])

    def test_nonsquare_q_reported_with_pointer(self):
        doc = {
            "horizon": 1, "state_dim": 2,
            "players": [{"control_dim": 1}],
            "stage": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[[1.0], [0.0]]],
                      "Q": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], "R": [[[[1.0]]]]},
        }
        with pytest.raises(GameFormatError, match="/stage/Q/0"):
            game_from_dict(doc)

    @pytest.mark.parametrize("field, text", [
        ("s", '[NaN, 0]'), ("s", '[0, -Infinity]'), ("A", '[[1e999, 0], [0, 1]]'),
        ("A", '[[1' + '0' * 400 + ', 0], [0, 1]]'), ("Q", '[[[1, 0], [0, Infinity]]]'),
    ], ids=["nan", "minus-infinity", "float-overflow", "int-overflow", "infinity"])
    def test_non_finite_numbers_rejected_with_pointer(self, tmp_path, field, text):
        stage = {"A": "[[1, 0], [0, 1]]", "B": "[[[1], [0]]]", "s": "[0, 0]",
                 "Q": "[[[1, 0], [0, 1]]]", "R": "[[[[1]]]]"}
        stage[field] = text
        body = ", ".join(f'"{k}": {v}' for k, v in stage.items())
        path = tmp_path / "game.json"
        path.write_text('{"horizon": 2, "state_dim": 2, "players": [{"control_dim": 1}], '
                        f'"stage": {{{body}}}}}')
        with pytest.raises(GameFormatError, match=f"/stage/{field}"):
            load_game(path)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError):
            load_game(path)

    def test_serialized_dict_is_json_clean(self):
        doc = game_to_dict(scalar_unit_two_player())
        json.dumps(doc)  # must not raise
