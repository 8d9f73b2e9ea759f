"""Exact-solver tests against independent linear-algebra oracles."""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capmdp import (
    JointPolicy,
    SolverConvergenceError,
    StateSpace,
    SuccessorFeatures,
    TabularMMDP,
    ValueTable,
    check_distribution,
    policy_evaluation,
    policy_evaluation_stack,
    successor_features,
    value_iteration,
    value_iteration_stack,
)

DATA = Path(__file__).parent / "data"


def make_mmdp(rng, num_states=4, num_agents=2, actions_per_agent=2, feature_dim=3, gamma=0.9):
    num_joint = actions_per_agent**num_agents
    return TabularMMDP(
        states=StateSpace(rng.uniform(0.0, 1.0, (num_states, feature_dim))),
        num_agents=num_agents,
        actions_per_agent=actions_per_agent,
        rewards=rng.uniform(0.0, 1.0, num_states),
        transitions=rng.dirichlet(np.ones(num_states), size=(num_states, num_joint)),
        gamma=gamma,
        rho=rng.dirichlet(np.ones(num_states)),
    )


def solve_policy_linear(mmdp, actions):
    """Independent oracle: V^pi from the exact linear system."""
    p_pi = mmdp.transitions[np.arange(mmdp.num_states), list(actions)]
    lhs = np.eye(mmdp.num_states) - mmdp.gamma * p_pi
    return np.linalg.solve(lhs, mmdp.rewards)


def optimal_values_by_enumeration(mmdp):
    """Independent oracle: elementwise max of V^pi over every deterministic policy."""
    best = np.full(mmdp.num_states, -np.inf)
    for assignment in itertools.product(range(mmdp.num_joint_actions), repeat=mmdp.num_states):
        best = np.maximum(best, solve_policy_linear(mmdp, assignment))
    return best


def test_value_iteration_matches_policy_enumeration():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mmdp = make_mmdp(rng, num_states=3, num_agents=2, actions_per_agent=2)
        table, policy = value_iteration(mmdp, tol=1e-10)
        oracle = optimal_values_by_enumeration(mmdp)
        assert np.max(np.abs(table.v - oracle)) < 1e-7
        # the greedy policy must itself attain the optimal values
        assert np.max(np.abs(solve_policy_linear(mmdp, policy.actions) - oracle)) < 1e-7


def test_value_iteration_single_agent_three_actions():
    rng = np.random.default_rng(11)
    mmdp = make_mmdp(rng, num_states=4, num_agents=1, actions_per_agent=3, gamma=0.7)
    table, _ = value_iteration(mmdp, tol=1e-10)
    oracle = optimal_values_by_enumeration(mmdp)
    assert np.max(np.abs(table.v - oracle)) < 1e-7


def test_policy_evaluation_matches_linear_solve():
    rng = np.random.default_rng(3)
    mmdp = make_mmdp(rng, num_states=6, num_agents=2, actions_per_agent=3)
    actions = rng.integers(0, mmdp.num_joint_actions, mmdp.num_states)
    table = policy_evaluation(mmdp, JointPolicy(actions=actions), tol=1e-11)
    oracle = solve_policy_linear(mmdp, actions)
    assert np.max(np.abs(table.v - oracle)) < 1e-7
    assert table.scalar(mmdp.rho) == pytest.approx(float(mmdp.rho @ oracle), abs=1e-7)


def test_value_iteration_bellman_residual_and_greedy_consistency():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        mmdp = make_mmdp(rng, num_states=7, actions_per_agent=3, gamma=0.9)
        table, policy = value_iteration(mmdp, tol=1e-10)
        backup = (mmdp.rewards[:, None] + mmdp.gamma * (mmdp.transitions @ table.v)).max(axis=1)
        assert np.max(np.abs(backup - table.v)) < 1e-9
        assert np.array_equal(policy.actions, table.q.argmax(axis=1))
        assert np.array_equal(table.v, table.q.max(axis=1))


def test_single_state_value_is_reward_over_one_minus_gamma():
    mmdp = TabularMMDP(
        states=StateSpace([[0.5]]),
        num_agents=1,
        actions_per_agent=2,
        rewards=[0.3],
        transitions=[[[1.0], [1.0]]],
        gamma=0.9,
        rho=[1.0],
    )
    table, _ = value_iteration(mmdp)
    assert table.v[0] == pytest.approx(0.3 / 0.1, abs=1e-7)


def test_golden_fixture_two_state_chain():
    mmdp = TabularMMDP.from_json((DATA / "two_state_chain.json").read_text())
    table, policy = value_iteration(mmdp, tol=1e-12)
    # hand solved: stay on the rewarding state, walk toward it from the other
    assert table.v == pytest.approx([1.0, 2.0], abs=1e-9)
    assert list(policy.actions) == [1, 1]
    assert table.scalar(mmdp.rho) == pytest.approx(1.0, abs=1e-9)


def test_serialization_round_trip_is_stable():
    rng = np.random.default_rng(9)
    mmdp = make_mmdp(rng)
    text = mmdp.to_json()
    copy = TabularMMDP.from_json(text)
    assert copy.equals(mmdp)
    assert copy.to_json() == text


def test_joint_action_indexing_row_major():
    rng = np.random.default_rng(0)
    mmdp = make_mmdp(rng, num_agents=2, actions_per_agent=3)
    assert mmdp.joint_action_index((1, 2)) == 5
    assert mmdp.joint_action_tuple(5) == (1, 2)
    assert mmdp.num_joint_actions == 9
    for u in range(9):
        assert mmdp.joint_action_index(mmdp.joint_action_tuple(u)) == u
    # agent 0 varies slowest
    assert mmdp.joint_action_tuple(1) == (0, 1)
    assert mmdp.joint_action_tuple(3) == (1, 0)


def test_transition_row_errors_name_the_offending_pair():
    rng = np.random.default_rng(2)
    mmdp = make_mmdp(rng, num_states=3)
    bad = mmdp.transitions.copy()
    bad[1, 2] = 0.0
    with pytest.raises(ValueError, match=r"s=1.*u=2"):
        TabularMMDP(
            states=mmdp.states,
            num_agents=mmdp.num_agents,
            actions_per_agent=mmdp.actions_per_agent,
            rewards=mmdp.rewards,
            transitions=bad,
            gamma=mmdp.gamma,
            rho=mmdp.rho,
        )


def test_constructor_validation():
    states = StateSpace([[0.0], [1.0]])
    eye = np.stack([np.eye(2), np.eye(2)], axis=1)
    good = dict(
        states=states, num_agents=1, actions_per_agent=2,
        rewards=[0.0, 1.0], transitions=eye, gamma=0.9, rho=[0.5, 0.5],
    )
    TabularMMDP(**good)
    with pytest.raises(ValueError, match="rewards"):
        TabularMMDP(**{**good, "rewards": [0.0, 1.0, 2.0]})
    with pytest.raises(ValueError, match="gamma"):
        TabularMMDP(**{**good, "gamma": 1.0})
    with pytest.raises(ValueError, match="rho"):
        TabularMMDP(**{**good, "rho": [0.9, 0.3]})
    with pytest.raises(ValueError, match="finite"):
        TabularMMDP(**{**good, "rewards": [np.nan, 1.0]})
    with pytest.raises(ValueError):
        TabularMMDP(**{**good, "num_agents": 0})
    with pytest.raises(ValueError, match="shape"):
        TabularMMDP(**{**good, "transitions": np.eye(2)[None]})


def test_state_space_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        StateSpace([[1.5]])
    with pytest.raises(ValueError, match="non-empty"):
        StateSpace(np.zeros((0, 2)))
    a = StateSpace([[0.1, 0.2]])
    b = StateSpace([[0.1, 0.2]])
    assert a.equals(b)
    assert a.num_states == 1 and a.feature_dim == 2


def test_value_table_rejects_inconsistent_q():
    with pytest.raises(ValueError, match="max of q"):
        ValueTable(v=np.array([1.0]), q=np.array([[0.5, 0.2]]))
    table = ValueTable(v=np.array([0.5]), q=np.array([[0.5, 0.2]]))
    assert table.scalar(np.array([1.0])) == 0.5


def test_joint_policy_validation():
    with pytest.raises(ValueError, match="integer"):
        JointPolicy(actions=np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        JointPolicy(actions=np.array([-1, 0]))
    rng = np.random.default_rng(4)
    mmdp = make_mmdp(rng, num_states=3)
    with pytest.raises(ValueError, match="length"):
        JointPolicy(actions=np.zeros(2, dtype=np.int64)).validate_for(mmdp)
    with pytest.raises(ValueError, match="out-of-range"):
        JointPolicy(actions=np.full(3, 99, dtype=np.int64)).validate_for(mmdp)


def test_successor_features_value_identity():
    # reward linear in the state features -> value is <w, mu> everywhere
    rng = np.random.default_rng(7)
    base = make_mmdp(rng, num_states=5, feature_dim=3)
    w = rng.uniform(-1.0, 1.0, 3)
    mmdp = TabularMMDP(
        states=base.states,
        num_agents=base.num_agents,
        actions_per_agent=base.actions_per_agent,
        rewards=base.states.features @ w,
        transitions=base.transitions,
        gamma=base.gamma,
        rho=base.rho,
    )
    policy = JointPolicy(actions=rng.integers(0, mmdp.num_joint_actions, 5))
    values = policy_evaluation(mmdp, policy, tol=1e-11)
    sf = successor_features(mmdp, policy, tol=1e-11)
    assert np.max(np.abs(sf.mu_per_state @ w - values.v)) < 1e-7
    assert float(sf.mu_scalar @ w) == pytest.approx(values.scalar(mmdp.rho), abs=1e-7)


def test_successor_features_fixed_point():
    rng = np.random.default_rng(8)
    mmdp = make_mmdp(rng, num_states=4, feature_dim=2)
    policy = JointPolicy(actions=np.zeros(4, dtype=np.int64))
    sf = successor_features(mmdp, policy, tol=1e-11)
    p_pi = mmdp.transitions[np.arange(4), policy.actions]
    recovered = mmdp.states.features + mmdp.gamma * (p_pi @ sf.mu_per_state)
    assert np.max(np.abs(recovered - sf.mu_per_state)) < 1e-9
    assert np.allclose(sf.mu_scalar, mmdp.rho @ sf.mu_per_state)


def test_successor_features_shape_validation():
    with pytest.raises(ValueError):
        SuccessorFeatures(mu_per_state=np.zeros((2, 3)), mu_scalar=np.zeros(2))


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
def test_check_distribution_normalized_vectors_pass(raw):
    vec = np.asarray(raw) / np.sum(raw)
    out = check_distribution(vec, "probs")
    assert out.shape == vec.shape


def test_check_distribution_errors():
    with pytest.raises(ValueError, match="probs"):
        check_distribution([0.5, 0.6], "probs")
    with pytest.raises(ValueError, match="negative"):
        check_distribution([-0.1, 1.1], "probs")


def test_solver_convergence_error_carries_diagnostics():
    rng = np.random.default_rng(5)
    mmdp = make_mmdp(rng, gamma=0.99)
    with pytest.raises(SolverConvergenceError) as info:
        value_iteration(mmdp, tol=1e-12, max_iters=3)
    assert info.value.iterations == 3
    assert info.value.residual > 0
    with pytest.raises(ValueError, match="tol"):
        value_iteration(mmdp, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        policy_evaluation(mmdp, JointPolicy(actions=np.zeros(4, dtype=np.int64)), tol=-1.0)


# ---- stacked solves ------------------------------------------------------------------


def textbook_value_iteration(mmdp, tol=1e-9, max_iters=10**6):
    """The plain one-MDP sweep loop: (final q, sweeps to tol), or (None, last residual)."""
    r, g = mmdp.rewards, mmdp.gamma
    if mmdp.next_states is None:
        def expect(v):
            return mmdp.transitions @ v
    else:
        def expect(v):
            return (mmdp.transitions * v[mmdp.next_states]).sum(axis=2)
    v = np.zeros(mmdp.num_states)
    residual = np.inf
    for sweep in range(1, max_iters + 1):
        v_new = (r[:, None] + g * expect(v)).max(axis=1)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual <= tol:
            return r[:, None] + g * expect(v), sweep
    return None, residual


def stack_members(rng, layout, count, num_states=6, num_joint=4):
    """count MDPs of one layout, shape and discount whose reward scales span 1e4.

    layout is "dense" or "indexed-K" (K successors per row). The scales make
    the members reach tol on different sweeps.
    """
    members = []
    for scale in np.geomspace(0.01, 100.0, count):
        shape = (num_states, num_joint)
        if layout == "dense":
            transitions = rng.dirichlet(np.ones(num_states), size=shape)
            next_states = None
        else:
            width = int(layout.split("-")[1])
            transitions = rng.dirichlet(np.ones(width), size=shape)
            next_states = rng.integers(0, num_states, shape + (width,))
        members.append(
            TabularMMDP(
                states=StateSpace(rng.uniform(0.0, 1.0, (num_states, 2))),
                num_agents=1,
                actions_per_agent=num_joint,
                rewards=scale * rng.uniform(0.0, 1.0, num_states),
                transitions=transitions,
                gamma=0.9,
                rho=rng.dirichlet(np.ones(num_states)),
                next_states=next_states,
            )
        )
    return members


@pytest.mark.parametrize("layout", ["dense", "indexed-1", "indexed-3"])
@pytest.mark.parametrize("count", [1, 3, 9])
def test_a_stacked_solve_matches_each_member_alone_bit_for_bit(layout, count):
    members = stack_members(np.random.default_rng(count), layout, count)
    solutions, sweeps = value_iteration_stack(members)
    for mmdp, stacked, stacked_sweeps in zip(members, solutions, sweeps):
        q, textbook_sweeps = textbook_value_iteration(mmdp)
        assert stacked_sweeps == textbook_sweeps
        for values, policy in (stacked, value_iteration(mmdp)):
            assert np.array_equal(values.q, q)
            assert np.array_equal(values.v, q.max(axis=1))
            assert np.array_equal(policy.actions, q.argmax(axis=1))
    # the members stop on their own sweeps
    assert len(set(sweeps)) == count


def test_a_stack_out_of_sweeps_reports_the_worst_unconverged_residual():
    members = stack_members(np.random.default_rng(7), "dense", 4)
    _, sweeps = value_iteration_stack(members)
    limit = sorted(sweeps)[1]
    with pytest.raises(SolverConvergenceError) as info:
        value_iteration_stack(members, max_iters=limit)
    unconverged = [m for m, n in zip(members, sweeps) if n > limit]
    assert len(unconverged) == 2
    assert info.value.iterations == limit
    assert info.value.residual == max(
        textbook_value_iteration(m, max_iters=limit)[1] for m in unconverged
    )
    # the slowest member's own sweep count is enough for the whole stack
    assert value_iteration_stack(members, max_iters=max(sweeps))[1] == sweeps


def textbook_policy_evaluation(mmdp, actions, tol=1e-9, max_iters=10**6):
    """The plain one-policy sweep loop: (v, sweeps to tol), or (None, last residual)."""
    rows = (np.arange(mmdp.num_states), actions)
    probs = mmdp.transitions[rows]
    if mmdp.next_states is None:
        def expect(v):
            return probs @ v
    else:
        successors = mmdp.next_states[rows]

        def expect(v):
            return (probs * v[successors]).sum(axis=1)
    v = np.zeros(mmdp.num_states)
    residual = np.inf
    for sweep in range(1, max_iters + 1):
        v_new = mmdp.rewards + mmdp.gamma * expect(v)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual <= tol:
            return v, sweep
    return None, residual


def random_policies(rng, members):
    return [
        JointPolicy(rng.integers(0, m.num_joint_actions, m.num_states)) for m in members
    ]


@pytest.mark.parametrize("layout", ["dense", "indexed-1", "indexed-3"])
@pytest.mark.parametrize("count", [1, 3, 9])
def test_a_stacked_evaluation_matches_each_policy_alone_bit_for_bit(layout, count):
    rng = np.random.default_rng(count)
    members = stack_members(rng, layout, count)
    policies = random_policies(rng, members)
    values, sweeps = policy_evaluation_stack(list(zip(members, policies)))
    for mmdp, policy, stacked, stacked_sweeps in zip(members, policies, values, sweeps):
        v, textbook_sweeps = textbook_policy_evaluation(mmdp, policy.actions)
        assert stacked_sweeps == textbook_sweeps
        assert np.array_equal(stacked.v, v)
        assert np.array_equal(policy_evaluation(mmdp, policy).v, v)
    # the members stop on their own sweeps (two random policies may tie)
    assert len(set(sweeps)) == 1 if count == 1 else len(set(sweeps)) > count // 2


def test_a_stacked_evaluation_out_of_sweeps_reports_the_worst_unconverged_residual():
    rng = np.random.default_rng(7)
    members = stack_members(rng, "dense", 4)
    pairs = list(zip(members, random_policies(rng, members)))
    _, sweeps = policy_evaluation_stack(pairs)
    limit = sorted(sweeps)[1]
    with pytest.raises(SolverConvergenceError, match="policy evaluation") as info:
        policy_evaluation_stack(pairs, max_iters=limit)
    unconverged = [pair for pair, n in zip(pairs, sweeps) if n > limit]
    assert len(unconverged) == 2
    assert info.value.iterations == limit
    assert info.value.residual == max(
        textbook_policy_evaluation(m, p.actions, max_iters=limit)[1] for m, p in unconverged
    )
    # the slowest member's own sweep count is enough for the whole stack
    assert policy_evaluation_stack(pairs, max_iters=max(sweeps))[1] == sweeps


def test_a_stack_needs_one_layout_shape_and_discount():
    rng = np.random.default_rng(3)
    [dense] = stack_members(rng, "dense", 1)
    [indexed] = stack_members(rng, "indexed-1", 1)
    [wider] = stack_members(rng, "dense", 1, num_states=7)
    for other in (indexed, wider, replace(dense, gamma=0.8)):
        with pytest.raises(ValueError, match="share one layout"):
            value_iteration_stack([dense, other])
        with pytest.raises(ValueError, match="share one layout"):
            policy_evaluation_stack(
                [(mmdp, JointPolicy(np.zeros(mmdp.num_states, dtype=np.int64)))
                 for mmdp in (dense, other)]
            )
    assert value_iteration_stack([]) == ([], [])
    assert policy_evaluation_stack([]) == ([], [])
