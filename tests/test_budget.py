"""Factorization budget of the fit op.

One fit op, ``solvent_set -> decompose -> stationary_acvf -> sampled_varma``,
is bound by call overhead on small matrices, so the number of
``numpy.linalg`` factorizations it makes is a cost that does not depend on
the machine.  These tests pin the counts reached so far: a change that adds
a factorization to the op fails here.

The first op on a model also builds what the model keeps (its default
solvent set and state space); a later op on the same model reuses
them.  Both are counted on a freshly built model, so the order in which
tests touch the shared fixtures does not matter.
"""

from collections import Counter

import pytest

from mcarma_ou import mcarma, sampling

from conftest import fresh

H = 0.25
LAGS = [k * H for k in range(11)]

# per op at h = 0.25, not counting the one solve per doubling step of the MA
# fit (5 steps on carma2x2, 9 on corpus #8), whose number rounding can move
BUDGET = {
    "carma2x2": Counter(svd=8, solve=4, inv=2, eigvalsh=4, eigvals=1),
    "corpus-8": Counter(svd=13, solve=4, inv=2, eigvalsh=4, eigvals=1),
}
# the second op on the same model
WARM_BUDGET = {
    "carma2x2": Counter(svd=2, solve=4, inv=1, eigvalsh=4, eigvals=1),
    "corpus-8": Counter(svd=2, solve=4, inv=1, eigvalsh=4, eigvals=1),
}


def fit_op(model):
    decomp = mcarma.decompose(model, model.solvent_set())
    mcarma.stationary_acvf(decomp, LAGS)
    return sampling.sampled_varma(decomp, H)


def op_calls(model, linalg_calls):
    """Factorizations of one fit op, without the doubling steps' solves."""
    linalg_calls.clear()
    steps = fit_op(model).ma_steps
    linalg_calls["solve"] -= steps
    return +linalg_calls


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_fit_op_within_budget(name, example_model, corpus, linalg_calls):
    model = fresh(example_model if name == "carma2x2" else corpus[8])
    over = op_calls(model, linalg_calls) - BUDGET[name]
    assert not over, f"{name}: factorizations over budget {dict(over)}"


@pytest.mark.parametrize("name", sorted(WARM_BUDGET))
def test_second_fit_op_within_warm_budget(name, example_model, corpus, linalg_calls):
    model = fresh(example_model if name == "carma2x2" else corpus[8])
    op_calls(model, linalg_calls)
    over = op_calls(model, linalg_calls) - WARM_BUDGET[name]
    assert not over, f"{name}: second op over budget {dict(over)}"


def test_decompose_solves_only_the_residues(example_model, corpus, linalg_calls):
    for model in (example_model, corpus[8]):
        S = model.solvent_set()
        linalg_calls.clear()
        mcarma.decompose(model, S)
        assert linalg_calls["solve"] == 1
