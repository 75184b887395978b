"""Where first-order attribution starts to strain: nonlinear model mismatch.

The quadrotor benchmarks fit a *linear* model to nonlinear flight data.  Near
hover the linearization is honest and both scores stay sharp.  Mission logs
mix gentle cruise sorties with a minority of aggressive dashes whose drag
curvature the linear model cannot represent; the residuals turn structured,
and the fixed-covariance score (which ignores the covariance channel
entirely) collapses while the stochastic score holds up.
"""
import numpy as np

from lqrinfluence.bench import (
    GenerationConfig,
    generate_dataset,
    residual_lag1_autocorr,
    system_spec,
)
from lqrinfluence.experiments import spearman
from lqrinfluence.influence import build_score_table
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence.sysid import fit_ridge

GEN = {
    "uav_hover": GenerationConfig(30, 20, 60, seed=0),
    "uav_mission": GenerationConfig(30, 30, 60, seed=0),
}

for kind in ("uav_hover", "uav_mission"):
    spec = system_spec(kind)
    rows = []
    for seed in range(3):
        import dataclasses

        data = generate_dataset(spec, dataclasses.replace(GEN[kind], seed=seed))
        fit = fit_ridge(data, 1e-3)
        art = riccati_artifacts(fit, np.eye(4), np.eye(2))
        table = build_score_table(fit, art, with_exact=True)
        mask = np.isfinite(table.delta_j_exact)
        rows.append((
            spearman(table.if_stoch[mask], table.delta_j_exact[mask]),
            spearman(table.if_fixed[mask], table.delta_j_exact[mask]),
            residual_lag1_autocorr(fit),
            np.linalg.norm(data.states[:, 2:], axis=1).max(),
        ))
    stoch, fixed, rho, vmax = (np.mean([r[i] for r in rows]) for i in range(4))
    print(f"{kind} (3 seeds):")
    print(f"  max speed seen            : {vmax:5.1f} m/s")
    print(f"  residual lag-1 autocorr   : {rho:+.3f}  (0 = white, the linear ideal)")
    print(f"  Spearman stochastic score : {stoch:.3f}")
    print(f"  Spearman fixed-cov score  : {fixed:.3f}\n")

print("hover stays near-linear: small autocorrelation, both scores sharp.")
print("mission dashes leave the linear regime: structured residuals, and only")
print("the stochastic score (which tracks the covariance shift) keeps ranking well.")
