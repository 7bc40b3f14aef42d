"""Reference forms the tests compare the program against.

Each is the plain, step-by-step form of something the solver computes in a
fused way: a rollout under a policy, the simulated cost of a linear gain
policy, the sample-average objective of one stage and what a sweep hands a
stage update.
"""

import numpy as np

from kernelpi.costs import CostSpec, evaluate_cost_to_go, stage_cost
from kernelpi.dynamics import LinearSystem, check_guard
from kernelpi.kernels import KernelPolicy, cross_gram, eval_policy_batch


def policy_rollout(sys: LinearSystem, policy, x0_batch, horizon=None):
    """(states (N, T+1, n), controls (N, T, m)) of every sample simulated under policy.

    policy is a KernelPolicy (horizon defaults to its own) or a callable
    (t, states (N, n)) -> (N, m).  The states entering each stage and the
    final states meet the divergence guard (dynamics.check_guard).
    """
    if isinstance(policy, KernelPolicy):
        T = policy.horizon if horizon is None else horizon
        fn = lambda t, X: eval_policy_batch(policy, t, X)
    else:
        T, fn = horizon, policy
    X = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    states = np.empty((X.shape[0], T + 1, sys.n))
    controls = np.empty((X.shape[0], T, sys.m))
    states[:, 0] = X
    for t in range(T):
        check_guard(X, t)
        U = np.asarray(fn(t, X), dtype=float)
        controls[:, t] = U
        X = X @ sys.A.T + U @ sys.B.T
        states[:, t + 1] = X
    check_guard(X, T)
    return states, controls


def simulate_gain_cost(sys: LinearSystem, sol, Q, R, Q_F, x0_batch) -> float:
    """Batch-mean simulated cost of the gain policy u_t = -K_t x_t of a RiccatiSolution."""
    states, controls = policy_rollout(sys, lambda t, X: -X @ sol.K[t].T, x0_batch, sol.horizon)
    return evaluate_cost_to_go(states, controls, CostSpec(Q=Q, R=R, Q_F=Q_F)).total_cost


def empirical_stage_objective(candidate_coeffs, states_at_t, successor_value, sys, spec, cross) -> float:
    """Sample-average one-stage cost of candidate coefficients plus continuation.

    Controls at the sampled states are the cross-Gram matrix (sampled states
    by dictionary points, as cross_gram returns it) times the candidate
    coefficients; successor_value returns continuation values at the induced
    successor states.
    """
    X = np.atleast_2d(np.asarray(states_at_t, dtype=float))
    pi = cross @ np.asarray(candidate_coeffs, dtype=float)
    Y = X @ sys.A.T + pi @ sys.B.T
    vals = stage_cost(X, pi, spec) + np.asarray(successor_value(Y), dtype=float)
    return float(vals.mean())


def hand_over(solver, c_old, tail, states_at_t):
    """(handed, stage_costs): what a sweep passes offline.solve_implicit_update at c_old.

    handed is the trajectory of one tail call from the successors of the
    states under c_old, and stage_costs the stage's cost at the states under
    c_old, per row, from costs.stage_cost.
    """
    X = np.atleast_2d(np.asarray(states_at_t, dtype=float))
    pi = cross_gram(solver.kernel, X, solver.dictionary) @ np.asarray(c_old, dtype=float)
    Y = X @ solver.sys.A.T + pi @ solver.sys.B.T
    return tail.values(Y)[1], stage_cost(X, pi, solver.spec)
