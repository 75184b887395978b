"""Trajectory influence scores for certainty-equivalent stochastic LQR.

Fit a ridge least-squares model [A B] from trajectory data, solve the
discrete-time Riccati equation for the plug-in controller, and score how the
controller's stationary cost Tr(P W) would shift if any single training
trajectory were removed — without ever refitting.  Exact leave-one-out
machinery validates the scores, and four simulated benchmarks (DC motor,
mass-spring-damper, UAV hover, UAV mission) probe them from clean linear data
to heavy model mismatch.

The modules are the import path (lqrinfluence.sysid, .lqr, .influence,
.bench, .experiments, .linalg, .errors, .cli); the package binds only
__version__.
"""

__version__ = "0.1.0"
