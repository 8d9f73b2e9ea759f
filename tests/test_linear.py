"""Linear assembly tested term-by-term against explicit summation oracles."""

import numpy as np
import pytest

from capmdp import (
    CapabilityVector,
    InfluenceWeights,
    LinearMMDPSpec,
    LipschitzRewardSpec,
    PolynomialRewardSpec,
    RewardKernel,
    StateSpace,
    TabularMMDP,
    TeamComposition,
    TransitionKernel,
    assemble_linear_mmdp,
    assemble_lipschitz_mmdp,
    perturb_dynamics,
    polynomial_reward,
    reward_deviation_exact,
    transition_deviation_exact,
)


def random_spec(rng, num_states=8, feature_dim=4, dim=3, num_agents=2,
                actions_per_agent=2, gamma=0.9, relax=False):
    num_joint = actions_per_agent**num_agents
    team = TeamComposition(tuple(rng.dirichlet(np.ones(dim)) for _ in range(num_agents)))
    return LinearMMDPSpec(
        team=team,
        weights=InfluenceWeights(rng.dirichlet(np.ones(num_agents))),
        reward_kernel=RewardKernel(rng.uniform(0.0, 1.0, (dim, feature_dim))),
        transition_kernel=TransitionKernel(
            rng.dirichlet(np.ones(num_states), size=(dim, num_states, num_joint))
        ),
        states=StateSpace(rng.uniform(0.0, 1.0, (num_states, feature_dim))),
        num_agents=num_agents,
        actions_per_agent=actions_per_agent,
        gamma=gamma,
        rho=rng.dirichlet(np.ones(num_states)),
        relax_simplex=relax,
    )


def test_assembly_matches_term_by_term_summation():
    # d=3, k=4, 8 states, 4 joint actions, 2 agents
    rng = np.random.default_rng(42)
    spec = random_spec(rng)
    mmdp = assemble_linear_mmdp(spec)
    caps = spec.team.matrix()
    a = spec.weights.a
    w = spec.reward_kernel.w
    n, d = spec.num_agents, spec.capability_dim
    for s in range(spec.states.num_states):
        phi = spec.states.features[s]
        total = 0.0
        for i in range(n):
            for j in range(d):
                total += a[i] * caps[i, j] * float(w[j] @ phi)
        assert abs(mmdp.rewards[s] - total) < 1e-12
    mix = a @ caps
    components = spec.transition_kernel.components
    expected = np.zeros_like(mmdp.transitions)
    for j in range(d):
        expected += mix[j] * components[j]
    assert np.max(np.abs(mmdp.transitions - expected)) < 1e-12


def test_a_spec_is_assembled_once_into_a_read_only_mdp():
    spec = random_spec(np.random.default_rng(3))
    mmdp = assemble_linear_mmdp(spec)
    assert assemble_linear_mmdp(spec) is mmdp
    for arr in (mmdp.rewards, mmdp.transitions):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # another spec object with the same content gets its own, equal MDP
    twin = spec.with_team(spec.team, spec.weights)
    assert assemble_linear_mmdp(twin) is not mmdp
    assert assemble_linear_mmdp(twin).equals(mmdp)


def test_two_member_swap_assembles_identically():
    # relabeling members permutes a commutative mixture; only FMA rounding
    # inside the matvec can differ, so agreement must hold to the last ulp
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, num_agents=2)
        swapped = spec.with_team(
            TeamComposition(spec.team.members[::-1]),
            InfluenceWeights(spec.weights.a[[1, 0]]),
        )
        a = assemble_linear_mmdp(spec)
        b = assemble_linear_mmdp(swapped)
        assert np.max(np.abs(a.rewards - b.rewards)) < 1e-14
        assert np.max(np.abs(a.transitions - b.transitions)) < 1e-15


def test_capability_mixture_is_weighted_sum():
    rng = np.random.default_rng(1)
    spec = random_spec(rng, num_agents=3)
    assert np.allclose(spec.capability_mixture(), spec.weights.a @ spec.team.matrix())


def test_relax_simplex_scales_rewards_not_transitions():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, dim=2)
    # exact binary fractions so the mixture sums land on exact floats
    exact = spec.with_team(
        TeamComposition(((0.25, 0.75), (0.5, 0.5))), spec.weights
    )
    doubled = LinearMMDPSpec(
        team=TeamComposition(((0.5, 1.5), (1.0, 1.0))),
        weights=exact.weights,
        reward_kernel=exact.reward_kernel,
        transition_kernel=exact.transition_kernel,
        states=exact.states,
        num_agents=2,
        actions_per_agent=2,
        gamma=exact.gamma,
        rho=exact.rho,
        relax_simplex=True,
    )
    base = assemble_linear_mmdp(exact)
    scaled = assemble_linear_mmdp(doubled)
    assert np.array_equal(scaled.rewards, 2.0 * base.rewards)
    assert np.array_equal(scaled.transitions, base.transitions)


def test_non_simplex_team_rejected_without_flag():
    rng = np.random.default_rng(4)
    spec = random_spec(rng)
    bad = spec.with_team(
        TeamComposition(((0.9, 0.9, 0.9), spec.team.members[1].c)), spec.weights
    )
    with pytest.raises(ValueError, match=r"\[0\].*relax_simplex"):
        assemble_linear_mmdp(bad)


def test_all_zero_mixture_rejected_under_relax():
    rng = np.random.default_rng(6)
    spec = random_spec(rng)
    zero = LinearMMDPSpec(
        team=TeamComposition(((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
        weights=spec.weights,
        reward_kernel=spec.reward_kernel,
        transition_kernel=spec.transition_kernel,
        states=spec.states,
        num_agents=2,
        actions_per_agent=2,
        gamma=spec.gamma,
        rho=spec.rho,
        relax_simplex=True,
    )
    with pytest.raises(ValueError, match="all-zero"):
        assemble_linear_mmdp(zero)


def test_spec_json_round_trip():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, relax=False)
    copy = LinearMMDPSpec.from_json(spec.to_json())
    assert assemble_linear_mmdp(copy).equals(assemble_linear_mmdp(spec))
    assert copy.to_json() == spec.to_json()


def test_reward_deviation_constant_offset():
    rng = np.random.default_rng(8)
    spec = random_spec(rng)
    mmdp = assemble_linear_mmdp(spec)
    shifted_rewards = mmdp.rewards.copy()
    shifted_rewards[2] += 0.3
    shifted = TabularMMDP(
        states=mmdp.states, num_agents=mmdp.num_agents,
        actions_per_agent=mmdp.actions_per_agent, rewards=shifted_rewards,
        transitions=mmdp.transitions, gamma=mmdp.gamma, rho=mmdp.rho,
    )
    assert reward_deviation_exact(mmdp, shifted) == pytest.approx(0.3, abs=1e-15)
    assert transition_deviation_exact(mmdp, shifted) == 0.0


def test_transition_deviation_row_swap_is_two():
    states = StateSpace([[0.0], [1.0]])
    eye = np.stack([np.eye(2), np.eye(2)], axis=1)
    kwargs = dict(states=states, num_agents=1, actions_per_agent=2,
                  rewards=[0.0, 0.0], gamma=0.9, rho=[0.5, 0.5])
    a = TabularMMDP(transitions=eye, **kwargs)
    flipped = eye.copy()
    flipped[0, 0] = [0.0, 1.0]
    b = TabularMMDP(transitions=flipped, **kwargs)
    assert transition_deviation_exact(a, b) == 2.0


def test_deviation_requires_shared_frame():
    rng = np.random.default_rng(9)
    a = assemble_linear_mmdp(random_spec(rng, num_states=4))
    b = assemble_linear_mmdp(random_spec(rng, num_states=5))
    with pytest.raises(ValueError, match="state space"):
        reward_deviation_exact(a, b)
    with pytest.raises(ValueError, match="state space"):
        transition_deviation_exact(a, b)


# ---- perturbation ---------------------------------------------------------------


def test_perturbation_zero_magnitudes_is_identity():
    rng = np.random.default_rng(10)
    mmdp = assemble_linear_mmdp(random_spec(rng))
    out = perturb_dynamics(mmdp, 0.0, 0.0, seed=1)
    assert np.array_equal(out.rewards, mmdp.rewards)
    assert np.array_equal(out.transitions, mmdp.transitions)


def test_perturbation_respects_magnitudes_and_stays_stochastic():
    rng = np.random.default_rng(11)
    mmdp = assemble_linear_mmdp(random_spec(rng, num_states=6))
    for seed in range(5):
        out = perturb_dynamics(mmdp, eps_r=0.05, eps_p=0.02, seed=seed)
        assert np.max(np.abs(out.rewards - mmdp.rewards)) <= 0.05 + 1e-12
        assert np.min(out.rewards) >= 0.0
        assert np.max(np.abs(out.transitions - mmdp.transitions)) <= 0.02 + 1e-12
        sums = out.transitions.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_perturbation_is_seed_deterministic():
    rng = np.random.default_rng(12)
    mmdp = assemble_linear_mmdp(random_spec(rng))
    a = perturb_dynamics(mmdp, 0.03, 0.01, seed=5)
    b = perturb_dynamics(mmdp, 0.03, 0.01, seed=5)
    c = perturb_dynamics(mmdp, 0.03, 0.01, seed=6)
    assert a.equals(b)
    assert not a.equals(c)


def test_perturbation_rejects_infeasible_magnitudes():
    rng = np.random.default_rng(13)
    mmdp = assemble_linear_mmdp(random_spec(rng))
    with pytest.raises(ValueError, match="non-negative"):
        perturb_dynamics(mmdp, -0.1, 0.0, seed=0)
    # a NaN radius would otherwise skip the noise it names
    for eps_r, eps_p in ((np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            perturb_dynamics(mmdp, eps_r, eps_p, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        perturb_dynamics(mmdp, 0.0, 1.0, seed=0)


# ---- polynomial rewards ------------------------------------------------------------


def poly_oracle(spec, team, kernel, phi):
    """Independent evaluation: every monomial expanded with scalar loops."""
    caps = team.matrix()
    total = 0.0
    for idx, coef in spec.terms.items():
        for j in range(team.dim):
            mono = coef
            for i, k in enumerate(idx):
                mono *= caps[i, j] ** k
            total += mono * float(kernel.w[j] @ phi)
    return total


def test_polynomial_reward_matches_monomial_oracle():
    rng = np.random.default_rng(14)
    team = TeamComposition(tuple(rng.uniform(0.0, 1.0, 3) for _ in range(2)))
    kernel = RewardKernel(rng.uniform(0.0, 1.0, (3, 4)))
    spec = PolynomialRewardSpec(
        terms={(0, 0): 0.4, (1, 0): -0.7, (0, 2): 0.9, (2, 1): 0.25},
        alpha=1.0,
        degree=3,
    )
    for _ in range(20):
        phi = rng.uniform(0.0, 1.0, 4)
        got = polynomial_reward(spec, team, kernel, phi)
        assert got == pytest.approx(poly_oracle(spec, team, kernel, phi), abs=1e-10)


def test_degree_one_polynomial_equals_linear_mixture():
    rng = np.random.default_rng(15)
    spec = random_spec(rng, num_agents=2)
    a = spec.weights.a
    poly = PolynomialRewardSpec(
        terms={(1, 0): float(a[0]), (0, 1): float(a[1])},
        alpha=1.0,
        degree=1,
    )
    mmdp = assemble_linear_mmdp(spec)
    for s in range(spec.states.num_states):
        got = polynomial_reward(poly, spec.team, spec.reward_kernel, spec.states.features[s])
        assert got == pytest.approx(mmdp.rewards[s], abs=1e-12)


def test_polynomial_spec_validation():
    with pytest.raises(ValueError, match="degree"):
        PolynomialRewardSpec(terms={(2, 2): 0.1}, alpha=1.0, degree=3)
    with pytest.raises(ValueError, match="alpha"):
        PolynomialRewardSpec(terms={(1, 0): 2.0}, alpha=1.0, degree=1)
    with pytest.raises(ValueError, match="negative"):
        PolynomialRewardSpec(terms={(-1, 0): 0.1}, alpha=1.0, degree=1)
    with pytest.raises(ValueError, match="alpha"):
        PolynomialRewardSpec(terms={}, alpha=-1.0, degree=1)


def test_polynomial_spec_json_round_trip():
    spec = PolynomialRewardSpec(terms={(1, 0): 0.5, (0, 2): -0.25}, alpha=1.0, degree=2)
    copy = PolynomialRewardSpec.from_json(spec.to_json())
    assert copy.terms == spec.terms
    assert copy.alpha == spec.alpha and copy.degree == spec.degree


def test_polynomial_reward_rejects_mismatched_index_length():
    rng = np.random.default_rng(16)
    team = TeamComposition(tuple(rng.uniform(0.0, 1.0, 2) for _ in range(3)))
    kernel = RewardKernel(np.ones((2, 2)))
    spec = PolynomialRewardSpec(terms={(1, 0): 0.5}, alpha=1.0, degree=1)
    with pytest.raises(ValueError, match="length"):
        polynomial_reward(spec, team, kernel, np.zeros(2))


# ---- lipschitz rewards ------------------------------------------------------------


def test_lipschitz_assembly_with_linear_map_matches_linear_assembly():
    rng = np.random.default_rng(17)
    spec = random_spec(rng)
    linear = assemble_linear_mmdp(spec)
    reward_map = LipschitzRewardSpec(
        f=lambda team, a=spec.weights.a: a @ team.matrix(),
        lipschitz_constants=spec.weights.a,
    )
    built = assemble_lipschitz_mmdp(
        reward_map, spec.team, spec.reward_kernel, linear.transitions,
        spec.states, spec.num_agents, spec.actions_per_agent, spec.gamma, spec.rho,
    )
    assert np.allclose(built.rewards, linear.rewards, atol=1e-14)
    assert np.array_equal(built.transitions, linear.transitions)


def test_lipschitz_spec_validation():
    with pytest.raises(ValueError, match="non-negative"):
        LipschitzRewardSpec(f=lambda t: np.zeros(2), lipschitz_constants=[-1.0])
    rng = np.random.default_rng(18)
    spec = random_spec(rng)
    bad_map = LipschitzRewardSpec(f=lambda t: np.zeros(7), lipschitz_constants=[1.0, 1.0])
    with pytest.raises(ValueError, match="weight per capability"):
        assemble_lipschitz_mmdp(
            bad_map, spec.team, spec.reward_kernel,
            assemble_linear_mmdp(spec).transitions, spec.states,
            spec.num_agents, spec.actions_per_agent, spec.gamma, spec.rho,
        )


# ---- component types ---------------------------------------------------------------


def test_capability_vector_flags_strict_simplex():
    assert CapabilityVector(np.array([0.25, 0.75])).strict_simplex
    assert not CapabilityVector(np.array([0.5, 0.75])).strict_simplex
    with pytest.raises(ValueError, match="non-negative"):
        CapabilityVector(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError, match="1-d"):
        CapabilityVector(np.zeros((2, 2)))


def test_team_composition_operations():
    team = TeamComposition(((0.2, 0.8), (0.5, 0.5), (1.0, 0.0)))
    assert team.num_agents == 3 and team.dim == 2
    assert team.drop_last().num_agents == 2
    assert team.append_member(CapabilityVector(np.array([0.3, 0.7]))).num_agents == 4
    replaced = team.replace_member(1, CapabilityVector(np.array([0.0, 1.0])))
    assert np.array_equal(replaced.matrix()[1], [0.0, 1.0])
    with pytest.raises(ValueError, match="at least one"):
        TeamComposition(())
    with pytest.raises(ValueError, match="dimension"):
        TeamComposition(((0.5, 0.5), (1.0,)))
    with pytest.raises(ValueError, match="only member"):
        TeamComposition(((1.0, 0.0),)).drop_last()


def test_influence_weights_must_be_simplex():
    InfluenceWeights(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="influence"):
        InfluenceWeights(np.array([0.5, 0.6]))


def test_transition_kernel_errors_name_component_and_row():
    good = np.tile(np.eye(2)[None, :, None, :], (2, 1, 3, 1))
    TransitionKernel(good)
    bad = good.copy()
    bad[1, 0, 2] = [0.4, 0.4]
    with pytest.raises(ValueError, match=r"component 1 row \(s=0, u=2\)"):
        TransitionKernel(bad)
    negative = good.copy()
    negative[0, 1, 1] = [1.5, -0.5]
    with pytest.raises(ValueError, match="negative"):
        TransitionKernel(negative)


def test_reward_kernel_validation():
    with pytest.raises(ValueError, match="finite"):
        RewardKernel(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="matrix"):
        RewardKernel(np.zeros(3))


def test_spec_cross_validation():
    rng = np.random.default_rng(19)
    spec = random_spec(rng)
    with pytest.raises(ValueError, match="matching sizes"):
        spec.with_team(spec.team, InfluenceWeights(np.array([1.0])))
    with pytest.raises(ValueError, match="capability dimension"):
        spec.with_team(
            TeamComposition(((0.5, 0.5), (0.5, 0.5))), spec.weights
        )
