"""
Certify the foraging gridworld: three team comparisons on one map.

Agents walk a small grid toward fruit trees; reaching a tree forages it
for good. Each capability component is a per-fruit yield, so a team's
weighted capability mixture fixes both rewards and movement odds through
the same machinery the random-instance experiments certify. Teams:

  x  two strong, complementary foragers
  y  two weak, identical foragers
  z  same-skill team used for the member-removal check

The x-vs-y comparisons bound how much optimal value and transferred
policy value can move between the teams. The z check bounds the value
shift when the last member walks away and the rest are reweighted.
"""

import numpy as np

import capmdp
from capmdp.envs.fruit_forage import build_fruit_forage, desk_config

GRID = 3  # the bundled `capmdp fruit-forage` experiment runs the 4x4 desk

config_x = desk_config("x", grid_size=GRID)
config_y = desk_config("y", grid_size=GRID)
config_z = desk_config("z", grid_size=GRID)

for label, cfg in (("x", config_x), ("y", config_y), ("z", config_z)):
    print(f"team {label}: members {cfg.team}")

spec_x = build_fruit_forage(config_x)
spec_y = build_fruit_forage(config_y)
spec_z = build_fruit_forage(config_z)

num_states = spec_x.states.features.shape[0]
print(f"\n{GRID}x{GRID} grid, {config_x.num_agents} agents,",
      f"{config_x.num_fruit_types} fruit types -> {num_states} states")

# yields above 1 mean the capability vectors leave the probability
# simplex, so the assembled transition mixture is renormalized
print("simplex-relaxed team x:", spec_x.relax_simplex)

# ---------------------------------------------------------------------------
# certify the three desk comparisons
# ---------------------------------------------------------------------------

solver = capmdp.Solver()
reports = [
    solver.report(capmdp.certify_team_generalization, spec_x, spec_y),
    solver.report(capmdp.certify_policy_transfer, spec_x, spec_y),
    solver.report(capmdp.certify_population_change, spec_z, "remove-last"),
]

print(f"\n{'comparison':<24}{'bound':>12}{'actual':>12}  holds")
for report in reports:
    print(
        f"{report.bound_name:<24}{report.bound_value:>12.4f}"
        f"{report.actual_value:>12.4f}  {report.satisfied}"
    )

# ---------------------------------------------------------------------------
# peek inside one report
# ---------------------------------------------------------------------------

gen = reports[0]
parts = gen.constituents
print("\nteam_generalization ingredients:")
for key in sorted(parts):
    print(f"  {key:<22}{parts[key]:.6f}")

# the bound rebuilds from its own constituents
rebuilt = (
    parts["gamma_factor"]
    * (parts["s_max"] + spec_x.gamma * parts["capability_dim"] * parts["v_mid"])
    * parts["psi"]
)
print("rebuilt from ingredients:", np.isclose(rebuilt, gen.bound_value, rtol=0, atol=0))
