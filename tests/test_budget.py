"""Factorization budget of the fit op.

One fit op, ``solvent_set -> decompose -> stationary_acvf -> sampled_varma``,
is bound by call overhead on small matrices, so the number of
``numpy.linalg`` factorizations it makes is a cost that does not depend on
the machine.  These tests pin the counts reached so far: a change that adds
a factorization to the op fails here.
"""

from collections import Counter

import pytest

from mcarma_ou import mcarma, sampling

H = 0.25
LAGS = [k * H for k in range(11)]

# per op at h = 0.25, not counting the one solve per doubling step of the MA
# fit (5 steps on carma2x2, 9 on corpus #8), whose number rounding can move
BUDGET = {
    "carma2x2": Counter(svd=8, solve=5, inv=2, eigvalsh=4, eigvals=1),
    "corpus-8": Counter(svd=13, solve=6, inv=2, eigvalsh=4, eigvals=1),
}


def fit_op(model):
    decomp = mcarma.decompose(model, model.solvent_set())
    mcarma.stationary_acvf(decomp, LAGS)
    return sampling.sampled_varma(decomp, H)


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_fit_op_within_budget(name, example_model, corpus, linalg_calls):
    model = example_model if name == "carma2x2" else corpus[8]
    linalg_calls.clear()
    steps = fit_op(model).ma_steps
    linalg_calls["solve"] -= steps
    over = linalg_calls - BUDGET[name]
    assert not over, f"{name}: factorizations over budget {dict(over)}"


def test_decompose_solves_only_the_residues(example_model, corpus, linalg_calls):
    for model in (example_model, corpus[8]):
        S = model.solvent_set()
        linalg_calls.clear()
        mcarma.decompose(model, S)
        assert linalg_calls["solve"] == 1
