"""The one long-form reader: ``from_long_pdf``, which reads long-form
input for the pair sketch, and the streaming store, which reads each
batch through it."""
import numpy as np
import pandas as pd
import pytest

from repro.streaming.sketch_stream import SketchStore
from repro.synth_data import ar1_matrix
from repro.tsio.matrix import from_long_pdf, to_long_pdf

N, L = 4, 72
BW = 12


@pytest.fixture(scope="module")
def X():
    return ar1_matrix(n=N, length=L, seed=3)


def at(pdf, s, t):
    return (pdf["series_id"] == s) & (pdf["t"] == t)


def dropped(pdf):
    return pdf[~at(pdf, 2, 30)]


def duplicated(pdf):
    return pd.concat([pdf, pdf[at(pdf, 1, 7)]], ignore_index=True)


def nan(pdf):
    pdf = pdf.copy()
    pdf.loc[at(pdf, 3, 20), "value"] = np.nan
    return pdf


def negative_t(pdf):
    pdf = pdf.copy()
    pdf.loc[at(pdf, 0, 23), "t"] = -1
    return pdf


def state(store):
    return store.ids, store.cnt, store.s1, store.sxy, store.folded


FAULTS = [
    (dropped, "series 2 has 47 of 48 timesteps (none at t=30)"),
    (duplicated, "series 1 has more than one row at t=7"),
    (nan, "series 3 has a non-finite value (nan) at t=20"),
    (negative_t, "t=-1 is negative"),
]


class TestReader:
    def test_axes_order_the_grid(self, X):
        pdf = to_long_pdf(X[:, :6])
        got = from_long_pdf(pdf[pdf["t"] >= 2], ids=[3, 1, 0, 2], ts=[5, 2, 3, 4])
        np.testing.assert_array_equal(got, X[[3, 1, 0, 2]][:, [5, 2, 3, 4]])

    def test_hole_filled_by_duplicate_rejected(self):
        # the row count still matches a full 2x6 grid
        pdf = to_long_pdf(ar1_matrix(n=2, length=6, seed=0))
        pdf = pd.concat([pdf[~at(pdf, 1, 4)], pdf[at(pdf, 0, 2)]], ignore_index=True)
        with pytest.raises(ValueError, match="series 0 has more than one row at t=2"):
            from_long_pdf(pdf)

    def test_nan_rejected(self):
        pdf = to_long_pdf(ar1_matrix(n=2, length=6, seed=0))
        pdf.loc[at(pdf, 1, 3), "value"] = np.nan
        with pytest.raises(ValueError, match=r"series 1 has a non-finite value \(nan\) at t=3"):
            from_long_pdf(pdf)

    def test_negative_series_id_rejected(self):
        pdf = to_long_pdf(ar1_matrix(n=2, length=6, seed=0))
        pdf.loc[pdf["series_id"] == 1, "series_id"] = -1
        with pytest.raises(ValueError, match="series_id=-1 is negative"):
            from_long_pdf(pdf)

    def test_row_outside_the_axes_rejected(self):
        pdf = to_long_pdf(ar1_matrix(n=2, length=6, seed=0))
        with pytest.raises(ValueError, match="series 1 at t=0 lies outside"):
            from_long_pdf(pdf, ids=[0])

    def test_first_hole_in_series_order(self):
        # axes in arrival order; the message still names the lowest id
        pdf = to_long_pdf(ar1_matrix(n=3, length=6, seed=0))
        pdf = pdf[~at(pdf, 2, 1) & ~at(pdf, 1, 4)]
        with pytest.raises(ValueError, match=r"series 1 has 5 of 6 timesteps \(none at t=4\)"):
            from_long_pdf(pdf, ids=[2, 1, 0])


@pytest.mark.parametrize("fault, message", FAULTS, ids=[f.__name__ for f, _ in FAULTS])
def test_every_reader_rejects_alike(X, tmp_path, fault, message):
    """The same fault gets the same message from both entry points."""
    pdf = to_long_pdf(X)
    bad = fault(pdf[pdf["t"] < 48])

    with pytest.raises(ValueError) as e:
        from_long_pdf(bad)
    assert message in str(e.value)

    store = SketchStore(str(tmp_path), bw=BW)
    store.apply_batch(pdf[pdf["t"] >= 48])
    before = [a.copy() for a in state(store)]
    with pytest.raises(ValueError) as e:
        store.apply_batch(bad)
    assert message in str(e.value)
    for a, b in zip(before, state(store)):
        np.testing.assert_array_equal(a, b)
    assert store.batches_applied == 1
