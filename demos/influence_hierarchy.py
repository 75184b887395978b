"""The three-level influence hierarchy, and why the covariance channel matters.

Level 1 (model side): IF_m_k approximates the parameter shift from removing
trajectory k.  Level 2 (fixed covariance): chains IF_m through the Riccati
gradient, treating the noise covariance as frozen.  Level 3 (stochastic):
also tracks how removing k changes the *estimated* covariance W_hat — both
through k's own residuals leaving the average (the direct term) and through
the parameter shift moving everyone's residuals (the h correction).

On a mass-spring-damper with per-trajectory noise drawn from a wide range,
the covariance channel dominates: the fixed-covariance score misranks the
noisy trajectories, the stochastic score nails them.
"""
import numpy as np

from lqrinfluence.bench import GenerationConfig, system_spec, generate_dataset
from lqrinfluence.experiments import spearman, topk_jaccard
from lqrinfluence.influence import build_score_table
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence.sysid import fit_ridge, loto_refit, model_influence

spec = system_spec("msd")   # sigma_k^2 ~ Uniform(0.01, 1.0) per trajectory
data = generate_dataset(spec, GenerationConfig(50, 5, 40, seed=0))
fit = fit_ridge(data, 1e-3)
art = riccati_artifacts(fit, np.eye(4), np.eye(2))

# level 1: the model-side surrogate vs the exact refit parameter shift, every
# removal at once: one stacked refit and one Hessian solve for all 50 IF_m_k
delta_theta = loto_refit(fit)[0] - fit.theta
if_m = model_influence(fit)
rels = np.linalg.norm(if_m - delta_theta, axis=1) / np.linalg.norm(delta_theta, axis=1)
print("||IF_m - exact delta_theta|| / ||delta_theta|| over 50 removals: "
      f"median {np.median(rels):.1%}, worst {max(rels):.1%}")

# levels 2 and 3 against exact cost shifts, for every trajectory
table = build_score_table(fit, art, with_exact=True)
dj = table.delta_j_exact
print("\nrank agreement with exact retraining over 50 trajectories:")
print(f"  fixed-covariance score : Spearman {spearman(table.if_fixed, dj):.3f}, "
      f"top-5 Jaccard {topk_jaccard(table.if_fixed, dj, 5):.3f}")
print(f"  stochastic score       : Spearman {spearman(table.if_stoch, dj):.3f}, "
      f"top-5 Jaccard {topk_jaccard(table.if_stoch, dj, 5):.3f}")

# the direct covariance term is what separates them: it is exact bookkeeping
# of k's residuals leaving W_hat, and for noisy trajectories it is the story
noisiest = np.argsort([np.trace(c) for c in fit.per_traj_cov])[-3:]
print("\nthe three noisiest trajectories:")
print("   k   tr(W_bar_k)   direct term   stoch score   exact shift")
for k in noisiest:
    print(f"  {k:2d}   {np.trace(fit.per_traj_cov[k]):11.3f}   "
          f"{table.direct_trace[k]:11.3e}   {table.if_stoch[k]:11.3e}   {dj[k]:11.3e}")
