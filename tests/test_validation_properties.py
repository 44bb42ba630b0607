"""Property test of ``validate``'s reports against the per-matrix loop.

Hypothesis draws small games, broadcast or time-varying, and spoils up to
four stages with the malformations of ``test_validation``: NaN or Inf,
asymmetry, indefinite weights, wrong shapes and wrong counts.  Each game
object is validated at every tolerance in both mode orders, plain then
leader and leader then plain, so the reports kept from construction at
1e-9 and those tested afresh at other tolerances are all compared with
``reference_formulations.validate``, whatever ran before them.
"""

from dataclasses import replace

import pytest

from dyngame.game import validate

import reference_formulations as ref
from conftest import random_game, rng_for
from test_validation import MALFORMATIONS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOLERANCES = (1e-9, 1e-6, -1e-6)


@st.composite
def malformed_games(draw):
    n, p, T = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    spec = random_game(draw(st.integers(0, 2 ** 16)), n_players=n, state_dim=p, control_dims=dims,
                       horizon=T, time_varying=draw(st.booleans()))
    stages = list(spec.stages)
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(0, T - 1))
        old = stages[t]
        try:
            new = draw(st.sampled_from(MALFORMATIONS))(old, rng_for(draw(st.integers(0, 2 ** 16))))
        except IndexError:  # an earlier malformation removed what this one changes
            continue
        if draw(st.booleans()):  # the shared object itself, so every stage holding it
            stages = [new if st_ is old else st_ for st_ in stages]
        else:
            stages[t] = new
    return replace(spec, stages=tuple(stages))


def test_both_mode_orders_equal_the_per_matrix_loop():
    # @given sits on an inner function: a failure is then reported as the
    # assertion it is, without the pytest plugin's patch writer, whose
    # imports raise a DeprecationWarning, an error in this suite.
    @hypothesis.settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @hypothesis.given(malformed_games())
    def both_orders(spec):
        expected = {(tol, leader): ref.validate(spec, tol=tol, for_stackelberg=leader).violations
                    for tol in TOLERANCES for leader in (False, True)}
        for order in ((False, True), (True, False)):
            game = replace(spec)  # a new game, so its stacks hold no outcome yet
            for tol in TOLERANCES:
                for leader in order:
                    assert validate(game, tol=tol, for_stackelberg=leader).violations == \
                        expected[tol, leader], (tol, order)

    both_orders()
