"""LP files read by HiGHS, the solver scipy bundles: a reader of the dialect
``milp.export_lp_file`` writes that shares no code with this package.

HiGHS drops coefficients with |a| < 1e-9 and refuses a file with |a| > 1e15,
so the models these helpers check keep their coefficients in that range.
"""

import numpy as np
from scipy.optimize._highspy import _core


def read_lp(path):
    """A quiet HiGHS instance holding the model of the LP file at ``path``."""
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    status = highs.readModel(str(path))
    assert status == _core.HighsStatus.kOk, f"HiGHS could not read {path}: {status}"
    return highs


def assert_reads_as(path, model):
    """HiGHS reads the LP file at ``path`` as ``model``: the same bounds,
    integrality flags, costs, objective constant, coefficients and row bounds,
    each equal as a double. Columns are matched by name, as HiGHS numbers
    them in order of first appearance; rows by position."""
    lp = read_lp(path).getLp()
    want = model.to_lp()
    assert lp.sense_ == _core.ObjSense.kMinimize
    assert (lp.num_col_, lp.num_row_) == (model.n_vars, model.n_rows)
    # column k of HiGHS is column col[k] of the model, named z<j> when integral
    col = [int(name[1:]) for name in lp.col_names_]
    assert sorted(col) == list(range(model.n_vars))
    assert list(lp.col_names_) == [("z" if model.integral[j] else "x") + str(j) for j in col]
    integrality = list(lp.integrality_) or [_core.HighsVarType.kContinuous] * lp.num_col_
    integer = [flag == _core.HighsVarType.kInteger for flag in integrality]
    assert integer == [model.integral[j] for j in col]
    assert list(lp.col_lower_) == list(want.lower[col])
    assert list(lp.col_upper_) == list(want.upper[col])
    assert list(lp.col_cost_) == list(want.c[col])
    assert lp.offset_ == want.const
    senses = np.array(want.senses, dtype=object)
    assert list(lp.row_lower_) == list(np.where(senses == "<=", -np.inf, want.rhs))
    assert list(lp.row_upper_) == list(np.where(senses == ">=", np.inf, want.rhs))
    matrix = lp.a_matrix_
    assert matrix.format_ == _core.MatrixFormat.kColwise
    got = np.zeros((lp.num_row_, lp.num_col_))
    for k in range(lp.num_col_):
        span = slice(matrix.start_[k], matrix.start_[k + 1])
        got[matrix.index_[span], k] = matrix.value_[span]
    assert np.array_equal(got, want.rows[:, col])


def solve_lp_file(path):
    """(model status, objective with its constant, column values by name) of
    the LP file at ``path`` under HiGHS."""
    highs = read_lp(path)
    highs.run()
    values = dict(zip(highs.getLp().col_names_, highs.getSolution().col_value))
    return highs.getModelStatus(), highs.getInfo().objective_function_value, values
