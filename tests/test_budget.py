"""Factorization budget of the fit op and of a simulated path.

One fit op, ``solvent_set -> decompose -> stationary_acvf -> sampled_varma``,
is bound by call overhead on small matrices, so the number of
``numpy.linalg`` factorizations it makes is a cost that does not depend on
the machine.  These tests pin the counts reached so far: a change that adds
a factorization to the op fails here.

The first op on a model also builds what the model keeps (its default
solvent set, state space and decomposition, and its modes with the
stationary modal coefficients); a later op on the same model, here at a
second h, reuses them.  Both are counted on a freshly built model, so the
order in which tests touch the shared fixtures does not matter.  Likewise
the first path on a model builds the modal form of its modes and the factor
of its stationary state covariance, and the first path at a step builds the
form's step entry, the transfer stacks of its scan and, for a Brownian
driver, the rows of Q_h's factor; a second path at that step reuses them all.

The second op also calls none of the numpy functions of ``NUMPY_WRAPPERS``,
whose Python dispatch costs as much as their arithmetic on such matrices.
"""

from collections import Counter

import numpy as np
import pytest

from mcarma_ou import mcarma, rational, sampling, sim

from conftest import fresh

H = 0.25
WARM_H = 1.0

# a second stationary-start Brownian path at the same step on a kept
# decomposition: the first kept the factor of Q_h with the transfer stacks
PATH_BUDGET = Counter()
# per op at h = 0.25, not counting the one solve per doubling step of the MA
# fit (5 steps on carma2x2, 9 on corpus #8), whose number rounding can move;
# gamma_U(0) is factored once, by the eigh of the MA fit that whitens it and
# certifies it positive definite, so neither noise_acvf nor the fit takes an
# eigvalsh or an inv of it: the eigvalsh are those of gamma(0) and Sigma_eps
BUDGET = {
    "carma2x2": Counter(svd=8, solve=4, inv=1, eigvalsh=2, eigh=1, eigvals=1),
    "corpus-8": Counter(svd=13, solve=4, inv=1, eigvalsh=2, eigh=1, eigvals=1),
}
# the second op on the same model, at h = WARM_H: only the sampled VARMA
WARM_BUDGET = {
    "carma2x2": Counter(svd=2, solve=3, eigvalsh=1, eigh=1, eigvals=1),
    "corpus-8": Counter(svd=2, solve=3, eigvalsh=1, eigh=1, eigvals=1),
}


def fit_op(model, h=H):
    decomp = mcarma.decompose(model, model.solvent_set())
    mcarma.stationary_acvf(decomp, [k * h for k in range(11)])
    return sampling.sampled_varma(decomp, h)


def op_calls(model, linalg_calls, h=H):
    """Factorizations of one fit op, without the doubling steps' solves."""
    linalg_calls.clear()
    steps = fit_op(model, h).ma_steps
    linalg_calls["solve"] -= steps
    return +linalg_calls


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_fit_op_within_budget(name, example_model, corpus, linalg_calls):
    model = fresh(example_model if name == "carma2x2" else corpus[8])
    over = op_calls(model, linalg_calls) - BUDGET[name]
    assert not over, f"{name}: factorizations over budget {dict(over)}"


@pytest.mark.parametrize("name", sorted(WARM_BUDGET))
def test_second_fit_op_within_warm_budget(name, example_model, corpus, linalg_calls,
                                          monkeypatch):
    model = fresh(example_model if name == "carma2x2" else corpus[8])
    op_calls(model, linalg_calls)
    residue_calls = []

    def counted(*args, _fn=rational.residues):
        residue_calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(rational, "residues", counted)
    over = op_calls(model, linalg_calls, WARM_H) - WARM_BUDGET[name]
    assert not over, f"{name}: second op over budget {dict(over)}"
    assert residue_calls == []


# numpy functions that only dispatch to a ufunc or a method in Python; on
# matrices of order at most 20 that dispatch costs about as much as the work
NUMPY_WRAPPERS = ((np, "polyval"), (np.linalg, "norm"), (np, "tri"), (np, "vstack"),
                  (np, "trace"), (np, "min"), (np, "max"))


@pytest.mark.parametrize("name", sorted(WARM_BUDGET))
def test_second_fit_op_calls_no_numpy_wrapper(name, example_model, corpus, monkeypatch):
    model = fresh(example_model if name == "carma2x2" else corpus[8])
    calls = Counter()
    for namespace, fn_name in NUMPY_WRAPPERS:
        def counted(*args, _fn=getattr(namespace, fn_name), _name=fn_name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(namespace, fn_name, counted)
    fit_op(model)
    calls.clear()
    fit_op(model, WARM_H)
    assert not calls, f"{name}: second op calls numpy wrappers {dict(calls)}"


def test_decompose_solves_only_the_residues(example_model, corpus, linalg_calls):
    for model in (fresh(example_model), fresh(corpus[8])):
        S = model.solvent_set()
        linalg_calls.clear()
        mcarma.decompose(model, S)
        assert linalg_calls["solve"] == 1


@pytest.mark.parametrize("index", [None, 8, 17], ids=["carma2x2", "corpus-8", "corpus-17"])
def test_second_path_within_budget(index, example_model, corpus, linalg_calls, monkeypatch):
    model = fresh(example_model if index is None else corpus[index])
    decomp = mcarma.decompose(model, model.solvent_set())
    driver = sim.DriverSpec(kind="brownian", seed=1)
    sim.simulate(decomp, driver, 0.1, 100, stationary_start=True)
    calls = Counter()
    for module, name in ((mcarma, "_modal_form"), (sim, "_transfer_stacks"),
                         (mcarma.Modes, "gramian")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    linalg_calls.clear()
    sim.simulate(decomp, driver, 0.1, 100, stationary_start=True)
    over = linalg_calls - PATH_BUDGET
    assert not over, f"second path over budget {dict(over)}"
    assert not calls
    # a path at a new h builds its own stacks, one per group of modes, and
    # takes one eigh, the factor of its Q_h
    sim.simulate(decomp, driver, 0.2, 100, stationary_start=True)
    form = model.modes.modal_form
    groups = sum(r.size > 0 for r in (form.real_roots, form.pair_roots))
    assert calls == Counter(_transfer_stacks=groups, gramian=1)
    assert linalg_calls == Counter(eigh=1)
    # a compound-Poisson path at another new h factors only its m x m sigma_L / rate
    calls.clear()
    linalg_calls.clear()
    cp = sim.DriverSpec(kind="compound_poisson", seed=1, rate=2.0, jump_cov=model.sigma_L / 2.0)
    sim.simulate(decomp, cp, 0.3, 100, stationary_start=True)
    assert calls == Counter(_transfer_stacks=groups)
    assert linalg_calls == Counter(eigh=1)
