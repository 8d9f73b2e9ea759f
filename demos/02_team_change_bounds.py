"""
Certify team-change guarantees on randomly generated task pairs.

Two teams facing the same reward and transition kernels induce two
different MDPs. The bounds below promise that optimal value, transferred
policy value, and the value shift from dropping a member are all
controlled by how far apart the weighted capability profiles are.
Each report pairs the analytic bound with the exact solved gap, so a
violation would be visible immediately.
"""

import numpy as np

import capmdp

ranges = capmdp.GeneratorRanges(
    num_states=(4, 8),
    num_agents=(2, 3),
    actions_per_agent=(2, 2),
    capability_dim=(2, 3),
    feature_dim=(2, 3),
)

rng = np.random.default_rng(7)
spec_x, spec_y = capmdp.generate_linear_pair(ranges, rng)

print("team x:", [np.round(m.c, 3).tolist() for m in spec_x.team.members])
print("team y:", [np.round(m.c, 3).tolist() for m in spec_y.team.members])

# the raw ingredient every bound consumes: the largest gap between the
# weighted capability mixtures of the two teams
gap = capmdp.psi(spec_x.team, spec_x.weights, spec_y.team, spec_y.weights)
print("capability profile gap psi:", round(gap, 6))

# ---------------------------------------------------------------------------
# optimal-value and transferred-policy guarantees
# ---------------------------------------------------------------------------

# a Solver runs each calculator at its solve tolerance and solves each
# distinct MDP once, so the transfer report reuses both optimal solves
solver = capmdp.Solver()

for calculator in (capmdp.certify_team_generalization, capmdp.certify_policy_transfer):
    report = solver.report(calculator, spec_x, spec_y)
    print(
        f"{report.bound_name}: bound {report.bound_value:.6f}"
        f"  actual {report.actual_value:.6f}"
        f"  satisfied {report.satisfied}"
    )

# ---------------------------------------------------------------------------
# population changes: drop the last member, then add a fresh one
# ---------------------------------------------------------------------------

removal = solver.report(capmdp.certify_population_change, spec_x, "remove-last")
print(
    f"{removal.bound_name} (remove): bound {removal.bound_value:.6f}"
    f"  actual {removal.actual_value:.6f}  satisfied {removal.satisfied}"
)

newcomer = capmdp.CapabilityVector(spec_x.team.members[0].c.copy())
addition = solver.report(
    capmdp.certify_population_change,
    spec_x, "add-member", new_capability=newcomer, new_weight=0.25,
)
print(
    f"{addition.bound_name} (add): bound {addition.bound_value:.6f}"
    f"  actual {addition.actual_value:.6f}  satisfied {addition.satisfied}"
)

# ---------------------------------------------------------------------------
# the removal bound is tight at zero: replacing the last member with the
# reweighted blend of the others makes dropping it a no-op
# ---------------------------------------------------------------------------

a = spec_x.weights.a
reduced = a[:-1] / (1.0 - float(a[-1]))
substitute = reduced @ spec_x.team.drop_last().matrix()
blended_team = spec_x.team.replace_member(
    spec_x.team.num_agents - 1, capmdp.CapabilityVector(substitute)
)
blended = spec_x.with_team(blended_team, spec_x.weights)

no_op = solver.report(capmdp.certify_population_change, blended, "remove-last")
print(
    f"redundant member removal: bound {no_op.bound_value}"
    f"  actual {no_op.actual_value:.2e}"
)

# every report serializes, which is what the experiment harness writes out
print("\nreport as JSON:")
print(removal.to_json()[:200], "...")
