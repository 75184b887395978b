"""Exact bookkeeping of one removal: five terms, three remainders, two bounds.

The exact plug-in cost shift from removing trajectory k splits as

    dJ_k = (zeta - h)^T dtheta_k   (first-order parameter channel)
         + direct_k                (k's residuals leaving W_hat, exact)
         + R_ric + R_w + R_cross   (Taylor remainders, computed by subtraction)

and the identity holds to machine precision once the remainders are evaluated
explicitly.  R_w has an a priori bound computed from the data; the modular
bound on the score's error is a posteriori, read off the exact sweep.
"""
import numpy as np

from lqrinfluence.bench import GenerationConfig, system_spec, generate_dataset
from lqrinfluence.influence import (
    diagnostics_from_record,
    direct_trace_term,
    exact_loto_sweep,
    modular_error_bound,
    score_all,
)
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence.sysid import fit_ridge

spec = system_spec("dc_motor")
data = generate_dataset(spec, GenerationConfig(30, 5, 40, seed=2))
fit = fit_ridge(data, 1e-3)
art = riccati_artifacts(fit, np.eye(2), np.eye(1))

sweep = exact_loto_sweep(fit, art)   # every removal: one stacked refit, N refit DAREs
diag = diagnostics_from_record(fit, art, sweep)   # every removal's remainders at once
bound = modular_error_bound(fit, art, sweep, diag)
k = int(np.argmax(fit.lengths))    # longest trajectory, largest leverage
dj = np.trace(sweep.P[k] @ sweep.W[k]) - np.trace(art.P0 @ fit.W_hat)

first_order = (art.zeta - art.h) @ (sweep.theta[k] - fit.theta)
direct = direct_trace_term(fit, art)[k]
print(f"removing trajectory {k} (T_k = {fit.lengths[k]}):")
print(f"  exact cost shift dJ_k        = {dj:+.6e}")
print(f"  first-order parameter term   = {first_order:+.6e}")
print(f"  direct covariance term       = {direct:+.6e}")
print(f"  Riccati remainder R_ric      = {diag.r_ric[k]:+.6e}")
print(f"  covariance remainder R_w     = {diag.r_w[k]:+.6e}")
print(f"  cross remainder R_cross      = {diag.r_cross[k]:+.6e}")
total = first_order + direct + diag.r_ric[k] + diag.r_w[k] + diag.r_cross[k]
print(f"  five-term sum                = {total:+.6e}")
print(f"  bookkeeping gap              = {abs(total - dj):.2e}")

# the covariance remainder obeys ||P0|| * (L_phi^2 |dt|^2 + 4 (T_k/M) L_e L_phi |dt|)
cap = np.linalg.norm(art.P0, 2) * diag.bound_w[k]
print(f"\n|R_w| = {abs(diag.r_w[k]):.3e}  <=  bound {cap:.3e}")

# and the full score-vs-exact gap obeys the modular bound
gap = abs(score_all(fit, art)[1][k] - dj)
print(f"|score - dJ_k| = {gap:.3e}  <=  modular bound {bound[k]:.3e}")
