"""Rebuild ``references.json``, the optima the benchmark checks results against.

Run from the repository root:  python3 bench/references.py

Each reference comes from the plain-numpy problem statements in
``checks.py`` and scipy, never from the program under test:

- illustrative: the optimum sits where g2 = 0 meets the row g4 = 0; along
  that row g2 is one equation in x1, solved by root finding.
- speed-reducer: SLSQP over the six continuous variables for each of the
  twelve values of the integer x3, with every constraint divided by a
  fixed scale, from several starts; the best feasible point wins.
- qsigmoid: c @ x >= -2 ||c||_1 on the box [-2, 2]^n, with equality at the
  corner -2 sign(c). When that corner is feasible it is the global optimum.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import brentq, minimize

import checks


def illustrative_reference() -> dict:
    # g4 = 0 gives x2 = 2.6 - 1.5 x1; g2 then reads 1.3 x1 - 1.4 + 0.33 ln(x1 - 0.4)
    x1 = brentq(lambda t: 1.3 * t - 1.4 + 0.33 * math.log(t - 0.4), 0.51, 1.5, xtol=1e-14)
    x = np.array([x1, 2.6 - 1.5 * x1])
    if np.max(checks.illustrative_constraints(x)) > 1e-9:
        raise RuntimeError("the g2/g4 crossing is not feasible")
    return {"objective": checks.illustrative_objective(x), "x": x.tolist()}


# rough magnitude of each gearbox constraint, so SLSQP sees them on one scale
_SPEED_REDUCER_SCALE = np.array([27, 397.5, 1.93, 1.93, 1.3e3, 1.3e3, 40, 1, 1, 1, 1])


def speed_reducer_reference() -> dict:
    lo, hi = checks.SPEED_REDUCER_LO, checks.SPEED_REDUCER_HI
    cont = [0, 1, 3, 4, 5, 6]
    best = None
    for x3 in range(int(lo[2]), int(hi[2]) + 1):
        def full(z, x3=x3):
            return np.array([z[0], z[1], x3, z[2], z[3], z[4], z[5]], dtype=float)

        cons = {"type": "ineq", "fun": lambda z: -checks.speed_reducer_constraints(full(z)) / _SPEED_REDUCER_SCALE}
        starts = [(lo[cont] + hi[cont]) / 2.0, lo[cont].copy(), hi[cont].copy()]
        for start in starts:
            res = minimize(
                lambda z: checks.speed_reducer_objective(full(z)) / 1e3,
                start, method="SLSQP", bounds=list(zip(lo[cont], hi[cont])),
                constraints=[cons], options={"ftol": 1e-12, "maxiter": 500},
            )
            x = full(res.x)
            if np.max(checks.speed_reducer_constraints(x)) > 1e-6:
                continue
            value = checks.speed_reducer_objective(x)
            if best is None or value < best["objective"]:
                best = {"objective": value, "x": x.tolist()}
    if best is None:
        raise RuntimeError("SLSQP found no feasible gearbox design")
    return best


def qsigmoid_reference() -> dict:
    c, quads = checks.qsigmoid_instance(**checks.QSIGMOID)
    corner = -2.0 * np.sign(c)
    if np.max(checks.qsigmoid_constraints(corner, quads)) > 0.0:
        raise RuntimeError("the corner -2 sign(c) is infeasible; the bound is not attained")
    return {"objective": float(c @ corner), "x": corner.tolist()}


def main() -> None:
    refs = {
        "illustrative": illustrative_reference(),
        "speed-reducer": speed_reducer_reference(),
        "qsigmoid": qsigmoid_reference(),
    }
    with open(checks.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    for name, ref in refs.items():
        print(f"{name}: {ref['objective']:.6f}")


if __name__ == "__main__":
    main()
