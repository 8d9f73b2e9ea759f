"""Successor-index transition layout checked against its densified twin."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capmdp import (
    LinearMMDPSpec,
    MMDPEnvironment,
    Solver,
    StateSpace,
    TabularMMDP,
    TransitionKernel,
    assemble_linear_mmdp,
    certify_approx_dynamics,
    certify_team_generalization,
    perturb_dynamics,
    policy_evaluation,
    successor_features,
    transition_deviation_exact,
    value_iteration,
)
from capmdp.envs.fruit_forage import build_fruit_forage, desk_config


def densify(mmdp: TabularMMDP) -> TabularMMDP:
    """The dense (S, A, S) twin of an indexed MDP; repeated successors add up."""
    dense = np.zeros((mmdp.num_states, mmdp.num_joint_actions, mmdp.num_states))
    s, u = np.indices(dense.shape[:2])
    for k in range(mmdp.next_states.shape[2]):
        np.add.at(dense, (s, u, mmdp.next_states[:, :, k]), mmdp.transitions[:, :, k])
    return TabularMMDP(
        states=mmdp.states,
        num_agents=mmdp.num_agents,
        actions_per_agent=mmdp.actions_per_agent,
        rewards=mmdp.rewards,
        transitions=dense,
        gamma=mmdp.gamma,
        rho=mmdp.rho,
    )


def random_indexed(rng, num_states, num_joint, width, feature_dim=3, gamma=0.9):
    """One agent with num_joint actions; width successors per row, repeats allowed."""
    shape = (num_states, num_joint)
    probs = rng.dirichlet(np.ones(width), size=shape) if width > 1 else np.ones(shape + (1,))
    return TabularMMDP(
        states=StateSpace(rng.uniform(0.0, 1.0, (num_states, feature_dim))),
        num_agents=1,
        actions_per_agent=num_joint,
        rewards=rng.uniform(0.0, 1.0, num_states),
        transitions=probs,
        gamma=gamma,
        rho=rng.dirichlet(np.ones(num_states)),
        next_states=rng.integers(0, num_states, shape + (width,)),
    )


def solve_both(mmdp, policy):
    values, greedy = value_iteration(mmdp)
    evaluated = policy_evaluation(mmdp, policy)
    features = successor_features(mmdp, policy)
    return values, greedy, evaluated, features


twin_sizes = dict(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(1, 12),
    num_joint=st.integers(1, 9),
)


@given(**twin_sizes)
def test_deterministic_index_solves_bit_identically_to_dense(seed, num_states, num_joint):
    indexed = random_indexed(np.random.default_rng(seed), num_states, num_joint, width=1)
    assert np.all(indexed.transitions == 1.0)
    dense = densify(indexed)
    policy = value_iteration(dense)[1]
    vt_i, greedy_i, ev_i, sf_i = solve_both(indexed, policy)
    vt_d, greedy_d, ev_d, sf_d = solve_both(dense, policy)
    assert np.array_equal(vt_i.v, vt_d.v)
    assert np.array_equal(vt_i.q, vt_d.q)
    assert np.array_equal(greedy_i.actions, greedy_d.actions)
    assert np.array_equal(ev_i.v, ev_d.v)
    assert np.array_equal(sf_i.mu_per_state, sf_d.mu_per_state)
    assert np.array_equal(sf_i.mu_scalar, sf_d.mu_scalar)


@given(**twin_sizes)
def test_stochastic_index_agrees_with_dense_to_1e12(seed, num_states, num_joint):
    indexed = random_indexed(np.random.default_rng(seed), num_states, num_joint, width=3)
    dense = densify(indexed)
    policy = value_iteration(dense)[1]
    vt_i, _, ev_i, sf_i = solve_both(indexed, policy)
    vt_d, _, ev_d, sf_d = solve_both(dense, policy)
    np.testing.assert_allclose(vt_i.q, vt_d.q, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ev_i.v, ev_d.v, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(sf_i.mu_per_state, sf_d.mu_per_state, rtol=1e-12, atol=0.0)


def indexed_fields(rng):
    mmdp = random_indexed(rng, num_states=4, num_joint=3, width=2)
    return {
        "states": mmdp.states, "num_agents": 1, "actions_per_agent": 3,
        "rewards": mmdp.rewards, "transitions": mmdp.transitions, "gamma": 0.9,
        "rho": mmdp.rho, "next_states": mmdp.next_states,
    }


def test_indexed_validation_names_the_offending_pair():
    fields = indexed_fields(np.random.default_rng(3))
    TabularMMDP(**fields)

    negative = fields["transitions"].copy()
    negative[1, 2] = [1.5, -0.5]
    with pytest.raises(ValueError, match=r"\(s=1, u=2\) has a negative entry"):
        TabularMMDP(**{**fields, "transitions": negative})

    short = fields["transitions"].copy()
    short[2, 0] = [0.3, 0.3]
    with pytest.raises(ValueError, match=r"\(s=2, u=0\) sums to"):
        TabularMMDP(**{**fields, "transitions": short})

    for bad_state in (4, -1):
        outside = fields["next_states"].copy()
        outside[3, 1, 1] = bad_state
        with pytest.raises(ValueError, match=r"\(s=3, u=1\) names a state outside"):
            TabularMMDP(**{**fields, "next_states": outside})

    with pytest.raises(ValueError, match="integer"):
        TabularMMDP(**{**fields, "next_states": fields["next_states"].astype(float)})
    with pytest.raises(ValueError, match="match next_states"):
        TabularMMDP(**{**fields, "transitions": fields["transitions"][:, :, :1]})


def test_indexed_kernel_validation_names_the_offending_pair():
    next_states = np.zeros((2, 3, 1), dtype=np.int64)
    ones = np.ones((2, 2, 3, 1))
    kernel = TransitionKernel(ones, next_states=next_states)
    assert (kernel.num_states, kernel.num_joint_actions) == (2, 3)
    outside = next_states.copy()
    outside[1, 2, 0] = 2
    with pytest.raises(ValueError, match=r"\(s=1, u=2\) names a state outside"):
        TransitionKernel(ones, next_states=outside)
    halves = ones.copy()
    halves[1, 0, 1] = 0.5
    with pytest.raises(ValueError, match=r"component 1 row \(s=0, u=1\)"):
        TransitionKernel(halves, next_states=next_states)
    with pytest.raises(ValueError, match="shape"):
        TransitionKernel(np.ones((2, 2, 3, 2)) / 2, next_states=next_states)


def test_json_round_trips_keep_the_successor_index():
    mmdp = TabularMMDP(**indexed_fields(np.random.default_rng(4)))
    loaded = TabularMMDP.from_json(mmdp.to_json())
    assert loaded.equals(mmdp)
    assert np.array_equal(loaded.next_states, mmdp.next_states)
    assert not densify(mmdp).equals(mmdp)
    assert "next_states" not in json.loads(densify(mmdp).to_json())

    spec = build_fruit_forage(desk_config("x", grid_size=2))
    spec_loaded = LinearMMDPSpec.from_json(spec.to_json())
    assert spec_loaded.transition_kernel.equals(spec.transition_kernel)
    assert assemble_linear_mmdp(spec_loaded).equals(assemble_linear_mmdp(spec))


def test_perturb_dynamics_rejects_an_indexed_mdp():
    mmdp = TabularMMDP(**indexed_fields(np.random.default_rng(5)))
    with pytest.raises(ValueError, match="dense transition tensor"):
        perturb_dynamics(mmdp, 0.01, 0.01, seed=0)


def test_transition_gaps_compare_across_layouts():
    rng = np.random.default_rng(6)
    indexed = random_indexed(rng, num_states=5, num_joint=4, width=3)
    dense = densify(indexed)
    assert indexed.transition_gaps(dense) == (0.0, 0.0)
    other = densify(
        replace(
            indexed,
            transitions=rng.dirichlet(np.ones(2), size=(5, 4)),
            next_states=rng.integers(0, 5, (5, 4, 2)),
        )
    )
    assert transition_deviation_exact(indexed, other) == pytest.approx(
        transition_deviation_exact(dense, other), abs=1e-15
    )
    assert indexed.transition_gaps(other)[0] == pytest.approx(
        dense.transition_gaps(other)[0], abs=1e-15
    )


def test_approx_dynamics_accepts_dense_actuals_for_indexed_specs():
    spec_x = build_fruit_forage(desk_config("x", grid_size=2))
    spec_y = build_fruit_forage(desk_config("y", grid_size=2))
    actual_x = densify(assemble_linear_mmdp(spec_x))
    actual_y = densify(assemble_linear_mmdp(spec_y))
    report = Solver().report(certify_approx_dynamics, spec_x, spec_y, actual_x, actual_y)
    assert report.constituents["eps_hat_p"] == 0.0
    assert report.constituents["eps_hat_r"] == 0.0
    exact = Solver().report(certify_team_generalization, spec_x, spec_y)
    assert report.bound_value == exact.bound_value
    assert report.actual_value == exact.actual_value


def test_environment_steps_to_the_indexed_successors():
    mmdp = TabularMMDP(**indexed_fields(np.random.default_rng(7)))
    env = MMDPEnvironment(mmdp, episode_limit=50, seed=0)
    [state] = env.reset()
    for step in range(50):
        action = step % mmdp.num_joint_actions
        [next_state], _, _ = env.step([action])
        row = mmdp.next_states[state, action][mmdp.transitions[state, action] > 0]
        assert next_state in row
        state = next_state
