"""Quickstart: which logged trajectories help or hurt a learned LQR controller?

Generates a DC-motor dataset, fits a ridge model, scores every trajectory's
influence on the plug-in cost Tr(P W), and checks the ranking against exact
leave-one-trajectory-out retraining.  Negative scores mark trajectories whose
removal would *lower* the certainty-equivalent cost (they hurt the controller);
large positive scores mark the ones doing the most good.
"""
import numpy as np

from lqrinfluence.bench import GenerationConfig, system_spec, generate_dataset
from lqrinfluence.experiments import spearman
from lqrinfluence.influence import build_score_table
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence.sysid import fit_ridge

spec = system_spec("dc_motor")
data = generate_dataset(spec, GenerationConfig(n_trajectories=50, t_min=5, t_max=40, seed=0))
print(f"{data.N} trajectories, {data.M} transitions")

fit = fit_ridge(data, lam=1e-3)
Q, R = np.eye(spec.n_x), np.eye(spec.n_u)
art = riccati_artifacts(fit, Q, R)
print(f"plug-in cost Tr(P W) = {np.trace(art.P0 @ fit.W_hat):.4f}")

# score every trajectory, then retrain without each one to get the exact shifts
table = build_score_table(fit, art, with_exact=True)

order = np.argsort(table.if_stoch)
print("\nmost cost-reducing removals (most harmful trajectories):")
print("   k   T_k   score (stoch)   exact shift")
for k in order[:5]:
    print(f"  {k:2d}   {table.lengths[k]:3d}   {table.if_stoch[k]:13.3e}   {table.delta_j_exact[k]:11.3e}")

print("\nmost valuable trajectories (removal raises the cost):")
for k in order[-3:]:
    print(f"  {k:2d}   {table.lengths[k]:3d}   {table.if_stoch[k]:13.3e}   {table.delta_j_exact[k]:11.3e}")

rho = spearman(table.if_stoch, table.delta_j_exact)
print(f"\nSpearman(score, exact shift) = {rho:.4f}")
print(f"scoring took {table.score_time * 1e3:.1f} ms; the exact sweep took "
      f"{table.refit_time * 1e3:.1f} ms ({table.refit_time / table.score_time:.0f}x longer)")
