"""Bound calculators checked against hand values and exact-solver measurements."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capmdp import (
    BOUND_TOLERANCE,
    BoundReport,
    ExperimentConfig,
    GeneratorRanges,
    InfluenceWeights,
    JointPolicy,
    LinearMMDPSpec,
    RewardKernel,
    Solver,
    StateSpace,
    TabularMMDP,
    TeamComposition,
    ValueTable,
    assemble_linear_mmdp,
    certify_instance,
    certify_approx_dynamics,
    certify_capability_estimation,
    certify_out_of_distribution,
    certify_policy_transfer,
    bound_polynomial_deviation,
    certify_population_change,
    certify_team_generalization,
    d_a_metric,
    gamma_factor,
    generate_linear_pair,
    policy_evaluation_stack,
    psi,
    reward_deviation_exact,
    s_max,
    transition_deviation_exact,
    v_mid,
    value_iteration,
    value_iteration_stack,
)
import capmdp.bounds
import capmdp.mdp
from capmdp.harness import CHECKS, ExperimentConfig, _instance_cases, run_fruit_forage

GAMMA_CROSSOVER = (np.sqrt(5.0) - 1.0) / 2.0

SMALL = GeneratorRanges(
    num_states=(3, 6), num_agents=(2, 3), actions_per_agent=(2, 2),
    capability_dim=(2, 3), feature_dim=(2, 3),
)


def small_pair(seed):
    return generate_linear_pair(SMALL, np.random.default_rng(seed))


def make_team(rows):
    return TeamComposition(tuple(np.asarray(r, dtype=float) for r in rows))


# ---- psi -------------------------------------------------------------------------


def test_psi_weight_shift_hand_value():
    # identical members, weights moved entirely from one agent to the other
    team = make_team([(1.0, 0.0), (0.0, 1.0)])
    wx = InfluenceWeights(np.array([1.0, 0.0]))
    wy = InfluenceWeights(np.array([0.0, 1.0]))
    assert psi(team, wx, team, wy) == pytest.approx(1.0, abs=1e-15)


def test_psi_permutation_hand_value():
    team_x = make_team([(1.0, 0.0), (0.8, 0.2)])
    wx = InfluenceWeights(np.array([0.9, 0.1]))
    team_y = make_team([(0.8, 0.2), (1.0, 0.0)])
    wy = InfluenceWeights(np.array([0.5, 0.5]))
    assert psi(team_x, wx, team_y, wy) == pytest.approx(0.24, abs=1e-12)


@given(st.integers(0, 10**6))
def test_psi_identity_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    team = make_team(rng.uniform(0.0, 1.0, (3, 2)))
    other = make_team(rng.uniform(0.0, 1.0, (3, 2)))
    w = InfluenceWeights(rng.dirichlet(np.ones(3)))
    w2 = InfluenceWeights(rng.dirichlet(np.ones(3)))
    assert psi(team, w, team, w) == 0.0
    assert psi(team, w, other, w2) >= 0.0


def test_psi_shape_errors():
    a = make_team([(1.0, 0.0)])
    b = make_team([(1.0, 0.0), (0.0, 1.0)])
    w1 = InfluenceWeights(np.array([1.0]))
    w2 = InfluenceWeights(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="same size"):
        psi(a, w1, b, w2)
    with pytest.raises(ValueError, match="dimension"):
        psi(a, w1, make_team([(1.0, 0.0, 0.0)]), w1)


# ---- scalar constituents ------------------------------------------------------------


def test_s_max_hand_value():
    kernel = RewardKernel(np.array([[1.0, -2.0], [0.0, 1.0]]))
    states = StateSpace(np.array([[1.0, 1.0], [0.0, 0.5]]))
    # rows of |phi W^T|: (|-1|+|1|)=2 and (|-1|+|0.5|)=1.5
    assert s_max(kernel, states) == 2.0
    with pytest.raises(ValueError, match="feature dimension"):
        s_max(kernel, StateSpace([[1.0, 1.0, 1.0]]))


def test_v_mid_is_half_the_max():
    assert v_mid(ValueTable(v=np.array([1.0, 3.0]))) == 1.5


def test_gamma_factor_closed_forms():
    for g in (0.1, 0.3, 0.5):
        assert gamma_factor(g) == pytest.approx((1 + g) / (1 - g), abs=1e-15)
    for g in (0.7, 0.9):
        assert gamma_factor(g) == pytest.approx(1.0 / (g * (1 - g)), abs=1e-15)
    assert gamma_factor(0.5) == pytest.approx(3.0, abs=1e-15)


def test_gamma_factor_continuous_at_crossover():
    below = gamma_factor(GAMMA_CROSSOVER - 1e-9)
    above = gamma_factor(GAMMA_CROSSOVER + 1e-9)
    assert abs(below - above) < 1e-6


@given(st.floats(0.01, 0.99))
def test_gamma_factor_is_min_of_both_forms(g):
    expected = min((1 + g) / (1 - g), 1.0 / (g * (1 - g)))
    assert gamma_factor(g) == pytest.approx(expected, rel=1e-12)
    assert gamma_factor(g) >= 1.0 / (1 - g)


def test_gamma_factor_domain():
    with pytest.raises(ValueError):
        gamma_factor(0.0)
    with pytest.raises(ValueError):
        gamma_factor(1.0)


# ---- task distance ------------------------------------------------------------------


@given(st.integers(0, 10**6))
def test_d_a_is_a_pseudometric(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (make_team(rng.uniform(0.0, 1.0, (3, 3))) for _ in range(3))
    w = InfluenceWeights(rng.dirichlet(np.ones(3)))
    assert d_a_metric(x, x, w) == 0.0
    assert d_a_metric(x, y, w) == d_a_metric(y, x, w)
    assert d_a_metric(x, z, w) <= d_a_metric(x, y, w) + d_a_metric(y, z, w) + 1e-12
    assert d_a_metric(x, y, w) >= 0.0


def toward_vertex(team, share):
    """team with each member moved share of the way to the first simplex vertex."""
    vertex = np.eye(team.dim)[0]
    return TeamComposition(tuple((1.0 - share) * m.c + share * vertex for m in team.members))


def test_d_a_set_distance_and_selection():
    spec_x, _ = small_pair(5)
    far, near = toward_vertex(spec_x.team, 0.5), toward_vertex(spec_x.team, 0.1)
    twin = TeamComposition(near.members)  # an equal team: an exact tie with near
    distance = d_a_metric(spec_x.team, near, spec_x.weights)
    assert 0.0 < distance < d_a_metric(spec_x.team, far, spec_x.weights)
    for support, selected in (([far, near, twin], 1), ([twin, near, far], 0)):
        report = Solver().report(certify_out_of_distribution, support, spec_x)
        assert report.constituents["selected_index"] == float(selected)
        assert report.constituents["d_a"] == distance
        assert report.satisfied


def test_out_of_distribution_rejects_an_empty_or_mismatched_support():
    spec_x, spec_y = small_pair(13)
    with pytest.raises(ValueError, match="at least one team"):
        Solver().report(certify_out_of_distribution, [], spec_x)
    wider = TeamComposition(tuple(np.append(m.c, 0.0) for m in spec_y.team.members))
    with pytest.raises(ValueError, match="capability dimension"):
        Solver().report(certify_out_of_distribution, [spec_y.team, wider], spec_x)


# ---- bound reports -------------------------------------------------------------------


def test_report_build_satisfied_edges():
    ok = BoundReport.build("x", {}, 1.0, 1.0 + 0.5 * BOUND_TOLERANCE)
    assert ok.satisfied and ok.slack < 0
    bad = BoundReport.build("x", {}, 1.0, 1.0 + 2.0 * BOUND_TOLERANCE)
    assert not bad.satisfied


def test_report_json_round_trip_and_csv_row():
    report = BoundReport.build("demo", {"psi": 0.25, "s_max": 2.0}, 3.0, 1.5)
    copy = BoundReport(**json.loads(report.to_json()))
    assert copy == report
    assert report.to_json() == (
        '{"actual_value": 1.5, "bound_name": "demo", "bound_value": 3.0, '
        '"constituents": {"psi": 0.25, "s_max": 2.0}, "satisfied": true, "slack": 1.5}'
    )
    row = report.to_csv_row()
    assert row["bound_name"] == "demo"
    assert row["psi"] == 0.25 and row["slack"] == 1.5
    # the json output format writes a row's keys in this order
    assert list(row) == [
        "bound_name", "bound_value", "actual_value", "satisfied", "slack", "psi", "s_max",
    ]


def test_solver_tol_must_be_positive_and_finite():
    assert Solver().tol == 1e-9
    assert Solver(1e-6).tol == 1e-6
    for tol in (0.0, -1e-9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            Solver(tol)


# ---- value bounds for team changes --------------------------------------------------


def test_generalization_bound_holds_and_reports_constituents():
    for seed in range(5):
        spec_x, spec_y = small_pair(seed)
        report = Solver().report(certify_team_generalization, spec_x, spec_y)
        assert report.satisfied
        c = report.constituents
        rebuilt = (
            c["gamma_factor"]
            * (c["s_max"] + c["gamma"] * c["capability_dim"] * c["v_mid"])
            * c["psi"]
        )
        assert report.bound_value == rebuilt
        assert report.actual_value == abs(c["value_x"] - c["value_y"])
        assert c["actual_state_max"] + 1e-12 >= report.actual_value


def test_transfer_bound_is_twice_the_generalization_bound():
    spec_x, spec_y = small_pair(3)
    gen = Solver().report(certify_team_generalization, spec_x, spec_y)
    transfer = Solver().report(certify_policy_transfer, spec_x, spec_y)
    assert transfer.bound_value == 2.0 * gen.bound_value
    assert transfer.satisfied
    assert transfer.actual_value >= -2e-9


def test_generalization_actual_is_symmetric():
    spec_x, spec_y = small_pair(7)
    forward = Solver().report(certify_team_generalization, spec_x, spec_y)
    backward = Solver().report(certify_team_generalization, spec_y, spec_x)
    assert forward.actual_value == backward.actual_value
    assert forward.satisfied and backward.satisfied


def test_singleton_distribution_reduces_to_policy_transfer():
    spec_x, spec_y_raw = small_pair(11)
    # the support acts with the query's weights, so compare against that task
    spec_y = spec_y_raw.with_team(spec_y_raw.team, spec_x.weights)
    ood = Solver().report(certify_out_of_distribution, [spec_y.team], spec_x)
    transfer = Solver().report(certify_policy_transfer, spec_x, spec_y)
    assert ood.bound_value == transfer.bound_value
    assert ood.actual_value == transfer.actual_value
    assert ood.constituents["selected_index"] == 0.0
    assert ood.constituents["d_a"] == d_a_metric(spec_x.team, spec_y.team, spec_x.weights)


def test_population_decrease_bound_is_product_of_constituents():
    spec_x, _ = small_pair(17)
    report = Solver().report(certify_population_change, spec_x, "remove-last")
    assert report.satisfied
    c = report.constituents
    rebuilt = (
        c["gamma_factor"]
        * (c["s_max"] + c["gamma"] * c["capability_dim"] * c["v_mid"])
        * c["changed_weight"]
        * c["mixture_gap"]
    )
    assert report.bound_value == rebuilt
    assert report.bound_name == "population_decrease"


def test_population_increase_with_zero_weight_changes_nothing():
    spec_x, _ = small_pair(19)
    dim = spec_x.capability_dim
    report = Solver().report(
        certify_population_change, spec_x, "add-member",
        new_capability=np.full(dim, 1.0 / dim), new_weight=0.0,
    )
    assert report.bound_value == 0.0
    assert report.actual_value <= 2e-9
    assert report.bound_name == "population_increase"


def test_population_change_argument_errors():
    spec_x, _ = small_pair(23)
    dim = spec_x.capability_dim
    with pytest.raises(ValueError, match="unknown population-change mode"):
        Solver().report(certify_population_change, spec_x, "swap")
    with pytest.raises(ValueError, match="needs new_capability"):
        Solver().report(certify_population_change, spec_x, "add-member")
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        Solver().report(
            certify_population_change, spec_x, "add-member",
            new_capability=np.full(dim, 1.0 / dim), new_weight=1.0,
        )
    lonely = LinearMMDPSpec(
        team=TeamComposition((spec_x.team.members[0],)),
        weights=InfluenceWeights(np.array([1.0])),
        reward_kernel=spec_x.reward_kernel,
        transition_kernel=spec_x.transition_kernel,
        states=spec_x.states,
        num_agents=spec_x.num_agents,
        actions_per_agent=spec_x.actions_per_agent,
        gamma=spec_x.gamma,
        rho=spec_x.rho,
    )
    with pytest.raises(ValueError, match="at least two"):
        Solver().report(certify_population_change, lonely, "remove-last")


def test_degenerate_removal_rejected_when_last_member_has_all_influence():
    spec_x, _ = small_pair(29)
    n = spec_x.team.num_agents
    weights = np.zeros(n)
    weights[-1] = 1.0
    loaded = spec_x.with_team(spec_x.team, InfluenceWeights(weights))
    with pytest.raises(ValueError, match="degenerate"):
        Solver().report(certify_population_change, loaded, "remove-last")


def test_capability_estimation_with_exact_estimates_is_zero():
    spec_x, _ = small_pair(31)
    report = Solver().report(certify_capability_estimation, spec_x, spec_x)
    assert report.constituents["eps_t"] == 0.0
    assert report.bound_value == 0.0
    assert report.actual_value <= 2e-9


def test_capability_estimation_requires_identical_weights():
    spec_x, spec_y = small_pair(37)
    # weights a relative 1e-7 apart, well inside numpy's default rtol
    a = spec_x.weights.a
    nudged = a * (1.0 + 1e-7 * (-1.0) ** np.arange(a.size))
    near = spec_x.with_team(spec_x.team, InfluenceWeights(nudged / nudged.sum()))
    assert np.max(np.abs(near.weights.a - a)) > 1e-12
    with pytest.raises(ValueError, match="identical influence weights"):
        Solver().report(certify_capability_estimation, spec_x, near)
    if np.allclose(spec_x.weights.a, spec_y.weights.a):
        pytest.skip("sampled pair happens to share weights")
    with pytest.raises(ValueError, match="identical influence weights"):
        Solver().report(certify_capability_estimation, spec_x, spec_y)


@pytest.mark.parametrize(
    ("calculator", "inputs", "label"),
    [
        (certify_policy_transfer, lambda x: (x, x), "transferred"),
        (certify_capability_estimation, lambda x: (x, x), "inferred"),
        (certify_out_of_distribution, lambda x: ([x.team], x), "selected"),
    ],
    ids=["policy_transfer", "capability_estimation", "out_of_distribution"],
)
def test_a_policy_beating_the_optimal_value_is_a_solver_inconsistency(
    monkeypatch, calculator, inputs, label
):
    # unraised, each regret reads about +0.8 tol: raising every evaluated
    # value by 2.5 tol leaves it negative but inside the -2 tol guard, by
    # 4 tol takes it below
    spec_x, _ = small_pair(47)
    tol = 1e-9
    evaluate_stack = capmdp.bounds._evaluate_stack

    def raised_by(offset):
        def raised(pairs, tol):
            values, sweeps = evaluate_stack(pairs, tol)
            return [ValueTable(table.v + offset) for table in values], sweeps

        return raised

    monkeypatch.setattr(capmdp.bounds, "_evaluate_stack", raised_by(2.5 * tol))
    report = Solver(tol).report(calculator, *inputs(spec_x))
    assert -2.0 * tol <= report.actual_value < -tol
    monkeypatch.setattr(capmdp.bounds, "_evaluate_stack", raised_by(4.0 * tol))
    with pytest.raises(RuntimeError, match=f"{label} policy beat the optimal value"):
        Solver(tol).report(calculator, *inputs(spec_x))


def test_approx_dynamics_with_zero_deviation_reduces_exactly():
    spec_x, spec_y = small_pair(41)
    gen = Solver().report(certify_team_generalization, spec_x, spec_y)
    report = Solver().report(
        certify_approx_dynamics,
        spec_x, spec_y, assemble_linear_mmdp(spec_x), assemble_linear_mmdp(spec_y),
    )
    assert report.constituents["eps_hat_r"] == 0.0
    assert report.constituents["eps_hat_p"] == 0.0
    assert report.bound_value == gen.bound_value
    assert report.actual_value == gen.actual_value


def test_shared_frame_mismatches_are_rejected():
    spec_x, spec_y = small_pair(43)
    other_kernel = RewardKernel(spec_x.reward_kernel.w + 1.0)
    broken = LinearMMDPSpec(
        team=spec_y.team, weights=spec_y.weights, reward_kernel=other_kernel,
        transition_kernel=spec_y.transition_kernel, states=spec_y.states,
        num_agents=spec_y.num_agents, actions_per_agent=spec_y.actions_per_agent,
        gamma=spec_y.gamma, rho=spec_y.rho,
    )
    with pytest.raises(ValueError, match="reward kernel"):
        Solver().report(certify_team_generalization, spec_x, broken)
    slower = dataclasses.replace(spec_y, gamma=spec_y.gamma / 2)
    with pytest.raises(ValueError, match="discount"):
        Solver().report(certify_policy_transfer, spec_x, slower)


def test_deviation_chain_is_bounded_by_psi():
    # reward gaps within s_max * psi, transition rows within dim * psi
    for seed in range(10):
        spec_x, spec_y = small_pair(100 + seed)
        psi_value = psi(spec_x.team, spec_x.weights, spec_y.team, spec_y.weights)
        smax = s_max(spec_x.reward_kernel, spec_x.states)
        mmdp_x = assemble_linear_mmdp(spec_x)
        mmdp_y = assemble_linear_mmdp(spec_y)
        assert reward_deviation_exact(mmdp_x, mmdp_y) <= smax * psi_value + 1e-12
        assert (
            transition_deviation_exact(mmdp_x, mmdp_y)
            <= spec_x.capability_dim * psi_value + 1e-12
        )


def test_polynomial_deviation_closed_form():
    # degree 3 series: 1*1 + 2*2 + 3*4 = 17
    assert bound_polynomial_deviation(1.0, 3, 1.0, 1.0) == 17.0
    assert bound_polynomial_deviation(0.5, 3, 2.0, 0.1) == pytest.approx(1.7, abs=1e-12)
    assert bound_polynomial_deviation(1.0, 0, 5.0, 0.5) == 0.0
    with pytest.raises(ValueError, match="non-negative"):
        bound_polynomial_deviation(-1.0, 2, 1.0, 0.1)


# ---- solver cache -------------------------------------------------------------------


def test_solver_returns_a_repeated_solve_from_its_cache_read_only():
    spec_x, _ = small_pair(5)
    solver = Solver()
    [first] = solver.solve_all([assemble_linear_mmdp(spec_x)])
    # a separately assembled MDP with the same content is the same entry
    [again] = solver.solve_all([assemble_linear_mmdp(spec_x)])
    assert again is first
    assert (solver.solves, solver.hits) == (1, 1)
    # the hit adds no sweeps
    _, [sweeps] = value_iteration_stack([assemble_linear_mmdp(spec_x)])
    assert solver.counts() == {
        "value_iteration_solves": 1, "cache_hits": 1, "sweeps": sweeps, "max_sweeps": sweeps,
        "policy_evaluations": 0, "evaluation_hits": 0, "evaluation_sweeps": 0,
    }
    fresh_values, fresh_policy = value_iteration(assemble_linear_mmdp(spec_x))
    values, policy = first
    assert np.array_equal(values.v.view(np.int64), fresh_values.v.view(np.int64))
    assert np.array_equal(policy.actions, fresh_policy.actions)
    assert fresh_values.v.flags.writeable
    for arr in (values.v, policy.actions):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def one_hot_twins(seed, num_states=5, num_joint=4):
    """A deterministic (S, A, 1) indexed MDP and its dense one-hot twin."""
    rng = np.random.default_rng(seed)
    successors = rng.integers(0, num_states, (num_states, num_joint, 1))
    dense = np.zeros((num_states, num_joint, num_states))
    np.put_along_axis(dense, successors, 1.0, axis=2)
    common = dict(
        states=StateSpace(rng.uniform(0.0, 1.0, (num_states, 2))),
        num_agents=1,
        actions_per_agent=num_joint,
        rewards=rng.uniform(0.0, 1.0, num_states),
        gamma=0.9,
        rho=np.full(num_states, 1.0 / num_states),
    )
    indexed = TabularMMDP(
        transitions=np.ones((num_states, num_joint, 1)), next_states=successors, **common
    )
    return indexed, TabularMMDP(transitions=dense, **common)


def test_solver_keys_on_kernel_content_and_layout():
    indexed, dense = one_hot_twins(3)
    solver = Solver()
    base, twin = solver.solve_all([dense, indexed])
    assert (solver.solves, solver.hits) == (2, 0)
    # the twins solve bit for bit alike, yet keep separate entries
    assert np.array_equal(base[0].v, twin[0].v)
    assert twin is not base
    again_twin, again_base = solver.solve_all([indexed, dense])
    assert again_twin is twin and again_base is base
    assert (solver.solves, solver.hits) == (2, 2)
    # same probabilities, other successors
    shifted = dataclasses.replace(
        indexed, next_states=(indexed.next_states + 1) % indexed.num_states
    )
    [moved] = solver.solve_all([shifted])
    assert moved is not twin
    assert (solver.solves, solver.hits) == (3, 2)


def test_solve_all_answers_every_request_from_stacked_solves(monkeypatch):
    spec_x, _ = small_pair(5)
    base = assemble_linear_mmdp(spec_x)
    slow = dataclasses.replace(base, rewards=100.0 * base.rewards)
    indexed, dense = one_hot_twins(3, num_states=7)
    distinct = (base, slow, indexed, dense)
    alone = [value_iteration_stack([mmdp]) for mmdp in distinct]
    stacks = []

    def spy(mmdps, *args):
        stacks.append(len(mmdps))
        return value_iteration_stack(mmdps, *args)

    monkeypatch.setattr(capmdp.bounds, "value_iteration_stack", spy)
    for entries, expected_stacks in ((capmdp.bounds.STACK_ENTRIES, [2, 1, 1]), (1, [1] * 4)):
        monkeypatch.setattr(capmdp.bounds, "STACK_ENTRIES", entries)
        stacks.clear()
        solver = Solver()
        answers = solver.solve_all([base, slow, indexed, base, dense, slow])
        # base and slow share layout, shape and discount; the twins do not
        assert stacks == expected_stacks
        assert answers[3] is answers[0] and answers[5] is answers[1]
        for mmdp_index, (values, policy) in zip((0, 1, 2, 0, 3, 1), answers):
            [(alone_values, alone_policy)], _ = alone[mmdp_index]
            assert np.array_equal(values.v.view(np.int64), alone_values.v.view(np.int64))
            assert np.array_equal(policy.actions, alone_policy.actions)
        sweeps = [n for _, [n] in alone]
        assert sweeps[1] > sweeps[0]
        assert solver.counts() == {
            "value_iteration_solves": 4,
            "cache_hits": 2,
            "sweeps": sum(sweeps),
            "max_sweeps": max(sweeps),
            "policy_evaluations": 0,
            "evaluation_hits": 0,
            "evaluation_sweeps": 0,
        }


def test_indexed_solves_stack_by_successor_index_object(monkeypatch):
    rng = np.random.default_rng(8)
    num_states, num_joint = 6, 4
    index = rng.integers(0, num_states, (num_states, num_joint, 1))

    def member(next_states):
        return TabularMMDP(
            states=StateSpace(rng.uniform(0.0, 1.0, (num_states, 2))),
            num_agents=1,
            actions_per_agent=num_joint,
            rewards=rng.uniform(0.0, 1.0, num_states),
            transitions=np.ones((num_states, num_joint, 1)),
            gamma=0.9,
            rho=np.full(num_states, 1.0 / num_states),
            next_states=next_states,
        )

    # five MDPs on one index object, and one on an equal copy of it
    mmdps = [member(index) for _ in range(5)] + [member(index.copy())]
    assert all(mmdp.next_states is index for mmdp in mmdps[:5])
    alone = [value_iteration_stack([mmdp]) for mmdp in mmdps]
    stacks = []

    def spy(stack, *args):
        assert all(mmdp.next_states is stack[0].next_states for mmdp in stack)
        stacks.append(len(stack))
        return value_iteration_stack(stack, *args)

    monkeypatch.setattr(capmdp.bounds, "value_iteration_stack", spy)
    # STACK_ENTRIES bounds dense solves and evaluations, not indexed solves
    monkeypatch.setattr(capmdp.bounds, "STACK_ENTRIES", 1)
    for states, expected_stacks in (
        (capmdp.bounds.INDEXED_STACK_STATES, [5, 1]), (2 * num_states, [2, 2, 1, 1]),
    ):
        monkeypatch.setattr(capmdp.bounds, "INDEXED_STACK_STATES", states)
        stacks.clear()
        answers = Solver().solve_all(mmdps)
        assert stacks == expected_stacks
        for (values, policy), [[(alone_values, alone_policy)], _] in zip(answers, alone):
            assert np.array_equal(values.v.view(np.int64), alone_values.v.view(np.int64))
            assert np.array_equal(policy.actions, alone_policy.actions)


def test_evaluate_all_answers_every_request_from_stacked_evaluations(monkeypatch):
    spec_x, _ = small_pair(5)
    base = assemble_linear_mmdp(spec_x)
    slow = dataclasses.replace(base, rewards=100.0 * base.rewards)
    indexed, dense = one_hot_twins(3, num_states=7)
    rng = np.random.default_rng(0)

    def random_policy(mmdp):
        return JointPolicy(rng.integers(0, mmdp.num_joint_actions, mmdp.num_states))

    first, second = random_policy(base), random_policy(base)
    assert not np.array_equal(first.actions, second.actions)
    twin_policy = random_policy(dense)
    distinct = [
        (base, first), (base, second), (slow, first), (indexed, twin_policy), (dense, twin_policy),
    ]
    alone = [policy_evaluation_stack([pair]) for pair in distinct]
    stacks = []

    def spy(pairs, *args):
        stacks.append(len(pairs))
        return policy_evaluation_stack(pairs, *args)

    monkeypatch.setattr(capmdp.bounds, "policy_evaluation_stack", spy)
    # a policy with the same actions is the same request
    requests = distinct[:3] + [(base, JointPolicy(first.actions.copy()))] + distinct[3:]
    requests.append((slow, first))
    for entries, expected_stacks in ((capmdp.bounds.STACK_ENTRIES, [3, 1, 1]), (1, [1] * 5)):
        monkeypatch.setattr(capmdp.bounds, "STACK_ENTRIES", entries)
        stacks.clear()
        solver = Solver()
        answers = solver.evaluate_all(requests)
        # base and slow share layout, shape and discount; the twins do not
        assert stacks == expected_stacks
        assert answers[3] is answers[0] and answers[6] is answers[2]
        for pair_index, values in zip((0, 1, 2, 0, 3, 4, 2), answers):
            [alone_values], _ = alone[pair_index]
            assert np.array_equal(values.v, alone_values.v)
            assert not values.v.flags.writeable
        sweeps = [n for _, [n] in alone]
        assert solver.counts() == {
            "value_iteration_solves": 0,
            "cache_hits": 0,
            "sweeps": 0,
            "max_sweeps": 0,
            "policy_evaluations": 5,
            "evaluation_hits": 2,
            "evaluation_sweeps": sum(sweeps),
        }
        # a second request is answered from the cache
        [again] = solver.evaluate_all([distinct[1]])
        assert again is answers[1]
        assert (solver.evaluations, solver.evaluation_hits) == (5, 3)


def test_the_desk_mdps_digest_their_shared_index_once(monkeypatch):
    digested = []
    array_digest = capmdp.bounds._array_digest

    def counting_digest(arr):
        digested.append(arr)
        return array_digest(arr)

    monkeypatch.setattr(capmdp.bounds, "_array_digest", counting_digest)
    solved = []
    solve_all = Solver.solve_all

    def spy(solver, mmdps):
        mmdps = list(mmdps)
        solved.extend(mmdps)
        return solve_all(solver, mmdps)

    monkeypatch.setattr(Solver, "solve_all", spy)
    run_fruit_forage(ExperimentConfig.from_doc({"kind": "fruit-forage"}))
    index = solved[0].next_states
    assert not index.flags.writeable and index.flags.owndata
    # four distinct desk MDPs share the one read-only index, hashed once
    assert len({id(mmdp) for mmdp in solved}) == 4
    assert all(mmdp.next_states is index for mmdp in solved)
    assert sum(arr is index for arr in digested) == 1
    # each one's unit probabilities are one read-only entry, broadcast over
    # every state and joint action, so a digest of them reads that entry alone
    for mmdp in solved:
        unit = mmdp.transitions
        assert unit.shape == index.shape and not unit.flags.writeable
        assert capmdp.mdp._backing(unit).shape == (1, 1, 1) and np.all(unit == 1.0)
    units = [arr for arr in digested if arr.ndim == 3 and arr is not index]
    assert units and all(capmdp.mdp._backing(arr).size == 1 for arr in units)
    # the key stays content-based: a writable copy of the index is a hit
    solver = Solver()
    solver.solve_all([solved[0]])
    solver.solve_all([dataclasses.replace(solved[0], next_states=index.copy())])
    assert (solver.solves, solver.hits) == (1, 1)


def test_the_desk_mdps_validate_their_shared_arrays_once(monkeypatch):
    checked = []
    for name in ("check_next_states", "_check_transition_rows"):
        def spy(arr, *args, check=getattr(capmdp.mdp, name)):
            checked.append(arr)
            return check(arr, *args)

        monkeypatch.setattr(capmdp.mdp, name, spy)
    solved = []
    solve_all = Solver.solve_all

    def solve_spy(solver, mmdps):
        mmdps = list(mmdps)
        solved.extend(mmdps)
        return solve_all(solver, mmdps)

    monkeypatch.setattr(Solver, "solve_all", solve_spy)
    run_fruit_forage(ExperimentConfig.from_doc({"kind": "fruit-forage"}))
    assert len({id(mmdp) for mmdp in solved}) == 4
    index = solved[0].next_states
    assert all(mmdp.next_states is index for mmdp in solved)
    # the four desk MDPs validate their one index once, not once each
    assert sum(arr is index for arr in checked) == 1
    # and every row check reads one stored unit entry, not an (S, A) array of them
    rows = [arr for arr in checked if arr.dtype == float]
    assert rows and all(capmdp.mdp._backing(arr).size == 1 for arr in rows)
    # a read-only array that fails is rejected, naming its row, every time it is used
    unit = solved[0].transitions
    bad = np.ones(unit.shape)
    bad[3, 2, 0] = 0.5
    bad.flags.writeable = False
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\(s=3, u=2\) sums to"):
            dataclasses.replace(solved[0], transitions=bad)
    # a broadcast entry that fails names the first row it stands for
    with pytest.raises(ValueError, match=r"\(s=0, u=0\) sums to"):
        dataclasses.replace(solved[0], transitions=np.broadcast_to(0.5, unit.shape))
    outside = index.copy()
    outside[5, 1, 0] = index.shape[0]
    outside.flags.writeable = False
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\(s=5, u=1\) names a state outside"):
            dataclasses.replace(solved[0], next_states=outside)


def test_a_read_only_array_is_digested_once_across_solvers(monkeypatch):
    digested = []
    array_digest = capmdp.bounds._array_digest

    def counting_digest(arr):
        digested.append(arr)
        return array_digest(arr)

    monkeypatch.setattr(capmdp.bounds, "_array_digest", counting_digest)
    spec_x, _ = small_pair(5)
    base = assemble_linear_mmdp(spec_x)
    shared = [base.rewards, base.transitions]
    assert all(not arr.flags.writeable and arr.flags.owndata for arr in shared)
    twin = dataclasses.replace(base)  # the same arrays in another object
    policy = JointPolicy(np.zeros(base.num_states, dtype=np.int64))
    solver = Solver()
    solver.solve_all([base, base, twin])
    solver.evaluate_all([(base, policy), (twin, policy)])
    Solver().solve_all([base])
    # six requests on two solvers digest each read-only array once
    assert [id(arr) for arr in digested] == [id(arr) for arr in shared]
    _, [sweeps] = value_iteration_stack([base])
    _, [evaluation_sweeps] = policy_evaluation_stack([(base, policy)])
    assert solver.counts() == {
        "value_iteration_solves": 1, "cache_hits": 2, "sweeps": sweeps, "max_sweeps": sweeps,
        "policy_evaluations": 1, "evaluation_hits": 1, "evaluation_sweeps": evaluation_sweeps,
    }
    # a writable copy is digested on every request, and its content is a hit
    copy = dataclasses.replace(base, rewards=base.rewards.copy())
    digested.clear()
    solver.solve_all([copy, copy])
    assert [arr is copy.rewards for arr in digested] == [True, True]
    assert (solver.solves, solver.hits) == (1, 4)


def test_dense_mdps_one_ulp_apart_get_different_solve_keys():
    spec_x, _ = small_pair(5)
    base = assemble_linear_mmdp(spec_x)
    assert base.next_states is None
    nudged = base.transitions.copy()
    nudged[0, 0, 0] = np.nextafter(nudged[0, 0, 0], 1.0)
    apart = dataclasses.replace(base, transitions=nudged)
    equal = dataclasses.replace(
        base, rewards=base.rewards.copy(), transitions=base.transitions.copy()
    )
    key = capmdp.bounds._solve_key(base)
    assert capmdp.bounds._solve_key(apart) != key
    assert capmdp.bounds._solve_key(equal) == key
    # the key holds the three digests and the discount, with no second hash over them
    assert key[2:] == (None, repr(base.gamma))
    solver = Solver()
    solver.solve_all([base, apart, equal])
    assert (solver.solves, solver.hits) == (2, 1)


def test_broadcast_probabilities_key_by_their_entries_and_their_broadcast_axes():
    rng = np.random.default_rng(4)
    shape = (4, 4, 2)
    mmdp = TabularMMDP(
        states=StateSpace(rng.uniform(0.0, 1.0, (4, 2))),
        num_agents=1,
        actions_per_agent=4,
        rewards=rng.uniform(0.0, 1.0, 4),
        transitions=np.broadcast_to([0.5, 0.5], shape),
        gamma=0.9,
        rho=np.full(4, 0.25),
        next_states=rng.integers(0, 4, shape),
    )
    rows = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0], [0.0, 1.0]])
    variants = [
        np.broadcast_to(np.full((1, 1, 2), 0.5), shape),  # the same row, broadcast alike
        np.broadcast_to([0.5, 0.5000000000000001], shape),  # another row
        np.full(shape, 0.5),  # materialized
        # the same stored bytes, one row per joint action or one per state
        np.broadcast_to(rows[None], shape),
        np.broadcast_to(rows[:, None], shape),
    ]
    key = capmdp.bounds._solve_key(mmdp)
    keys = [capmdp.bounds._solve_key(dataclasses.replace(mmdp, transitions=t)) for t in variants]
    assert keys[0] == key
    assert len({key, *keys[1:]}) == 5
    # so a twin broadcast otherwise, or not at all, is a cache miss and never a wrong hit
    solver = Solver()
    answers = solver.solve_all([mmdp] + [dataclasses.replace(mmdp, transitions=t) for t in variants])
    assert (solver.solves, solver.hits) == (5, 1)
    assert answers[1] is answers[0] and answers[3] is not answers[0]
    assert np.array_equal(answers[3][0].v.view(np.int64), answers[0][0].v.view(np.int64))


def test_an_array_changed_in_place_between_requests_gets_a_fresh_solve():
    spec_x, _ = small_pair(5)
    linear = assemble_linear_mmdp(spec_x)
    mmdp = dataclasses.replace(linear, rewards=linear.rewards.copy())
    policy = JointPolicy(np.zeros(mmdp.num_states, dtype=np.int64))
    solver = Solver()
    [(before, _)] = solver.solve_all([mmdp])
    [evaluated_before] = solver.evaluate_all([(mmdp, policy)])
    mmdp.rewards[:] *= 2.0
    [(after, greedy)] = solver.solve_all([mmdp])
    [evaluated] = solver.evaluate_all([(mmdp, policy)])
    assert (solver.solves, solver.hits) == (2, 0)
    assert (solver.evaluations, solver.evaluation_hits) == (2, 0)
    assert not np.array_equal(after.v, before.v)
    assert not np.array_equal(evaluated.v, evaluated_before.v)
    fresh = Solver()
    [(fresh_values, fresh_policy)] = fresh.solve_all([mmdp])
    [fresh_evaluated] = fresh.evaluate_all([(mmdp, policy)])
    assert np.array_equal(after.v.view(np.int64), fresh_values.v.view(np.int64))
    assert np.array_equal(greedy.actions, fresh_policy.actions)
    assert np.array_equal(evaluated.v.view(np.int64), fresh_evaluated.v.view(np.int64))


EXIT_SCRIPT = """
import numpy as np

import capmdp
import capmdp.mdp
from capmdp.envs.fruit_forage import build_fruit_forage, desk_config


def spy_on_checks():
    seen = []
    check = capmdp.mdp.check_next_states

    def counted(arr, *args):
        seen.append(arr)
        return check(arr, *args)

    capmdp.mdp.check_next_states = counted
    capmdp.Solver().solve_all([capmdp.assemble_linear_mmdp(build_fruit_forage(desk_config()))])
    capmdp.mdp.check_next_states = check


spy_on_checks()
# numpy does not garbage-collect object arrays, so this cycle keeps capmdp.mdp
# alive until the interpreter clears its globals at exit
KEEP = np.empty(2, dtype=object)
KEEP[:] = KEEP, capmdp.mdp
"""


def test_the_memo_forgets_dead_arrays_quietly_at_interpreter_exit():
    # the memo's key holds the spy, and the spy the last reference to the desk
    # arrays; so they die while the interpreter clears capmdp.mdp's globals,
    # and their weak-reference callbacks run without those globals
    env = dict(os.environ, PYTHONPATH=str(Path(capmdp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", EXIT_SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stderr == ""


def test_a_solver_solves_at_its_own_tol(monkeypatch):
    spec_x, spec_y = small_pair(5)
    tols = []
    evaluation_tols = []

    def spy(mmdps, tol, *args):
        tols.append(tol)
        return value_iteration_stack(mmdps, tol, *args)

    def spy_evaluation(pairs, tol, *args):
        evaluation_tols.append(tol)
        return policy_evaluation_stack(pairs, tol, *args)

    monkeypatch.setattr(capmdp.bounds, "value_iteration_stack", spy)
    monkeypatch.setattr(capmdp.bounds, "policy_evaluation_stack", spy_evaluation)
    tight = Solver().report(certify_policy_transfer, spec_x, spec_y)
    loose = Solver(1e-3).report(certify_policy_transfer, spec_x, spec_y)
    assert tols == evaluation_tols == [1e-9, 1e-3]
    assert loose.actual_value != tight.actual_value


def test_every_check_reports_alike_one_shot_warm_and_batched():
    # Solver(tol).report runs one check alone; a warm solver shared by the
    # checks of an instance, and certify_instance's one batched solve_all,
    # must give each check the same report, bit for bit
    config = ExperimentConfig(kind="verify-bounds", tol=1e-8, ranges=SMALL)
    for index in range(3):
        batched = Solver(config.tol)
        rows, _ = certify_instance(config, index, batched)
        cases = list(_instance_cases(config, index))
        assert [row["bound_name"] for row in rows] == [name for name, _ in cases]
        warm = Solver(config.tol)
        for (name, case), row in zip(cases, rows):
            alone = Solver(config.tol).report(CHECKS[name].run, case)
            assert warm.report(CHECKS[name].run, case) == alone
            assert row == {"instance": index, "wall_time": row["wall_time"], **alone.to_csv_row()}
        # the warm solver solved each distinct MDP once, as the batched one did
        assert warm.counts() == batched.counts()
        # and answers every request of a second pass from its cache
        for name, case in cases:
            warm.report(CHECKS[name].run, case)
        assert warm.solves == batched.solves
        assert warm.hits == batched.hits + batched.solves + batched.hits
