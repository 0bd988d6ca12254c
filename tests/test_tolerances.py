"""The tolerance policy: one table in ``mcarma_ou.tolerances``, one comparison."""

import pathlib
import re
import tokenize

import numpy as np
import pytest

from mcarma_ou import tolerances
from mcarma_ou.exceptions import ImaginaryLeakError

SRC = pathlib.Path(tolerances.__file__).parent
# one table line: NAME = value  # quantity; scale[, scale ...][; abs]
ROW = re.compile(r"([A-Z][A-Z0-9_]*) = (\S+) +# ([^;]+); ([^;]+?)(; abs)?")


def tokens(path):
    with open(path) as fh:
        return list(tokenize.generate_tokens(fh.readline))


def table():
    """``{name: (value, quantity, scale, abs)}`` of the policy table; the value
    of a derived row is an expression of numpy, evaluated here."""
    rows = {}
    for line in (SRC / "tolerances.py").read_text().splitlines():
        match = ROW.fullmatch(line)
        if match:
            name, value, quantity, scale, absolute = match.groups()
            value = float(eval(value, {"np": np}))
            rows[name] = (value, quantity, scale, absolute is not None)
    return rows


def other_modules():
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "tolerances.py"]


def rows_read(paths):
    """The table rows named in the code of ``paths``."""
    return {tok.string for path in paths for tok in tokens(path)
            if tok.type == tokenize.NAME} & table().keys()


class TestOnePlace:
    def test_no_exponent_literal_outside_the_table(self):
        # docstrings and comments are not NUMBER tokens
        found = [f"{path.name}:{tok.start[0]} {tok.string}"
                 for path in other_modules() for tok in tokens(path)
                 if tok.type == tokenize.NUMBER and "e" in tok.string.lower()
                 and not tok.string.lower().startswith("0x")]
        assert found == []

    def test_every_constant_is_a_table_row(self):
        constants = {name: value for name, value in vars(tolerances).items()
                     if name.isupper() and isinstance(value, float)}
        rows = table()
        assert constants.keys() == rows.keys()
        assert all(rows[name][0] == value for name, value in constants.items())

    def test_every_row_is_read(self):
        read = {tok.string for path in other_modules() for tok in tokens(path)
                if tok.type == tokenize.NAME}
        assert sorted(set(table()) - read) == []

    def test_verify_rederives_no_library_bound(self):
        # a library certificate reaches verify as the record its result
        # keeps; verify reads only the bounds of what no result keeps.
        # MA_MARGIN judges two verdicts on the kept margin: fit_ma fails
        # below -MA_MARGIN (a non-stabilizing solution), the ma-invertibility
        # row below +MA_MARGIN
        library = [path for path in other_modules() if path.name != "verify.py"]
        shared = rows_read([SRC / "verify.py"]) & rows_read(library)
        assert sorted(shared) == ["ACVF_ASYMMETRY", "IMAG_LEAK", "MA_MARGIN"]

    def test_bounds_that_are_not_scale_free_are_marked(self):
        # absolute on a quantity that scales with time, or with a scale
        # floored at 1 (the open half of making every certificate scale-free)
        rows = table()
        for name in ("STRUCTURE", "EIG_MATCH", "POLE_GAP", "SYLVESTER_GAP", "ALIAS",
                     "SOLVENT_RESIDUAL", "MA_ROUNDTRIP"):
            assert rows[name][3], name
        for name in ("LATENT_RESIDUAL", "CONDITION", "SHARP_IDENTITY", "PSD_CLIP",
                     "EXP_OVERFLOW", "PATH_LEAK", "AR_RESIDUAL", "SIMILARITY"):
            assert not rows[name][3], name


class TestComparison:
    @pytest.mark.parametrize("at_least", [False, True])
    def test_nan_fails(self, at_least):
        assert not tolerances.check("row", np.nan, 1.0, at_least).ok
        with pytest.raises(ImaginaryLeakError, match="nan"):
            tolerances.certify(ImaginaryLeakError, "leak", np.nan, 1.0, at_least)
        with pytest.raises(ImaginaryLeakError, match=r"leak\[1\] = nan"):
            tolerances.certify(ImaginaryLeakError, "leak", np.array([1.0, np.nan]),
                               1.0, at_least)

    def test_infinite_bound_fails(self):
        # a bound that overflowed to inf certifies nothing, not even inf
        for measured in (0.0, 1.0, np.inf):
            assert not tolerances.check("row", measured, np.inf).ok
            with pytest.raises(ImaginaryLeakError, match="exceeds inf"):
                tolerances.certify(ImaginaryLeakError, "leak", measured, np.inf)
        with pytest.raises(ImaginaryLeakError, match=r"leak\[1\] = 1\.000e\+00 exceeds inf"):
            tolerances.certify(ImaginaryLeakError, "leak", np.array([1.0, 1.0]),
                               np.array([2.0, np.inf]))

    def test_at_least_accepts_infinite_measured(self):
        # a masked gap of inf is as large as a gap can be
        record = tolerances.certify(ImaginaryLeakError, "gap", np.array([np.inf, 1.0]),
                                    1e-10, at_least=True)
        assert record == ("gap", 1.0, 1e-10, True)
        assert tolerances.check("margin", np.inf, 1.0, at_least=True).ok
        tolerances.certify(ImaginaryLeakError, "gap", np.inf, 1e-10, at_least=True)

    def test_equality_passes_both_ways(self):
        tolerances.certify(ImaginaryLeakError, "leak", 1.0, 1.0)
        tolerances.certify(ImaginaryLeakError, "gap", 1.0, 1.0, at_least=True)
        assert tolerances.check("row", 1.0, 1.0).ok
        assert tolerances.check("margin", 1.0, 1.0, at_least=True).ok

    def test_message_carries_measured_and_bound(self):
        with pytest.raises(ImaginaryLeakError,
                           match=r"^ImaginaryLeak: leak = 2\.000e\+00 exceeds 1\.000e\+00$"):
            tolerances.certify(ImaginaryLeakError, "leak", 2.0, 1.0)
        with pytest.raises(ImaginaryLeakError, match=r"gap = 1\.000e-13 below 1\.000e-12$"):
            tolerances.certify(ImaginaryLeakError, "gap", 1e-13, 1e-12, at_least=True)

    def test_stacked_comparison_is_elementwise(self):
        # the first failing entry is reported with its own bound
        bound = np.array([[1.0, 2.0], [3.0, 4.0]])
        tolerances.certify(ImaginaryLeakError, "leak", bound, bound)
        with pytest.raises(ImaginaryLeakError, match=r"leak\[1, 0\] = 3\.500e\+00 exceeds "
                                                     r"3\.000e\+00"):
            tolerances.certify(ImaginaryLeakError, "leak", np.array([[0.5], [3.5]]), bound)

    def test_pass_formats_no_message(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("formatted on the pass path")

        tolerances.certify(ImaginaryLeakError, Unformattable(), 0.5, 1.0)

    def test_certify_returns_the_passed_check(self):
        row = tolerances.certify(ImaginaryLeakError, "leak", np.float64(0.5), 1)
        assert row == ("leak", 0.5, 1.0, True)
        assert type(row.measured) is float and type(row.bound) is float
        gap = tolerances.certify(ImaginaryLeakError, "gap", 2.0, 1.0, at_least=True)
        assert gap == ("gap", 2.0, 1.0, True)

    def test_stacked_certify_returns_the_least_slack_entry(self):
        # not the largest measurement: slack is bound - measured per entry
        measured = np.array([[0.5, 2.5], [0.9, 1.0]])
        bound = np.array([[1.0, 3.0], [1.0, 4.0]])
        row = tolerances.certify(ImaginaryLeakError, "leak", measured, bound)
        assert row == ("leak", 0.9, 1.0, True)
        assert type(row.measured) is float and type(row.bound) is float
        # a bound broadcast along one axis
        assert tolerances.certify(ImaginaryLeakError, "leak", measured,
                                  np.array([[3.0], [1.0]])) == ("leak", 1.0, 1.0, True)
        # for a margin, measured - bound; a scalar bound broadcasts
        gaps = np.array([3.0, 1.5, 2.0])
        assert tolerances.certify(ImaginaryLeakError, "gap", gaps, 1.0, at_least=True) == (
            "gap", 1.5, 1.0, True)

    def test_check_is_a_row(self):
        row = tolerances.check("row", np.float64(0.5), 1)
        assert row == ("row", 0.5, 1.0, True)
        assert type(row.measured) is float and type(row.bound) is float
