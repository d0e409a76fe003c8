"""Offline multistart oracle for the quadratic-sigmoid acceptance check.

Runs box-projected gradient descent on an exact penalty of the true
constraint functions from many random starts and reports the best feasible
objective. Independent of the package's refinement path on purpose: only
the instance generator is shared. Regenerate the frozen constant in
test_acceptance.py with:

    python tests/oracle_qsigmoid.py [n m seed restarts]
"""

import sys

import numpy as np

sys.path.insert(0, "src")

from surropt.benchmarks import generate_quadratic_sigmoid  # noqa: E402


def run_oracle(n=10, m=2, seed=2024, restarts=10_000, iters=300):
    problem = generate_quadratic_sigmoid(n, m, seed=seed)
    lo, hi = problem.box()
    c = problem.objective.coeffs
    cons = problem.nonlinear
    rng = np.random.default_rng(123456789)

    def total_violation(x):
        return sum(max(0.0, con.value(x)) for con in cons)

    def merit_grad(x, mu):
        g = c.copy()
        for con in cons:
            if con.value(x) > 0.0:
                g = g + mu * con.grad(x)
        return g

    best = np.inf
    best_x = None
    mu = 100.0
    for _ in range(restarts):
        x = rng.uniform(lo, hi)
        step = 0.25
        fx = float(c @ x) + mu * total_violation(x)
        for _ in range(iters):
            g = merit_grad(x, mu)
            cand = np.clip(x - step * g, lo, hi)
            fc = float(c @ cand) + mu * total_violation(cand)
            if fc < fx - 1e-15:
                x, fx = cand, fc
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        if total_violation(x) <= 1e-9:
            val = float(c @ x)
            if val < best:
                best, best_x = val, x.copy()
    return best, best_x


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    n = args[0] if len(args) > 0 else 10
    m = args[1] if len(args) > 1 else 2
    seed = args[2] if len(args) > 2 else 2024
    restarts = args[3] if len(args) > 3 else 10_000
    value, x = run_oracle(n, m, seed, restarts)
    print(f"n={n} m={m} seed={seed} restarts={restarts}")
    print(f"best feasible objective: {value!r}")
    print(f"x = {np.array2string(x, precision=8)}")
