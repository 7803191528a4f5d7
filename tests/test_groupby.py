"""Unit tests for Frame group-by and aggregation."""

import numpy as np
import pytest

from repro.frame import Frame


@pytest.fixture
def f():
    return Frame(
        {
            "g": [0, 1, 0, 1, 2],
            "h": ["a", "a", "b", "a", "b"],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )


def test_keys_sorted_unique(f):
    keys = f.groupby("g").keys()
    assert list(keys["g"]) == [0, 1, 2]


def test_sizes(f):
    assert list(f.groupby("g").sizes()) == [2, 2, 1]


def test_agg_sum_mean(f):
    out = f.groupby("g").agg(total=("x", "sum"), avg=("x", "mean"))
    assert list(out["total"]) == [4.0, 6.0, 5.0]
    assert list(out["avg"]) == [2.0, 3.0, 5.0]


def test_agg_min_max_count(f):
    out = f.groupby("g").agg(
        lo=("x", "min"), hi=("x", "max"), n=("x", "count")
    )
    assert list(out["lo"]) == [1.0, 2.0, 5.0]
    assert list(out["hi"]) == [3.0, 4.0, 5.0]
    assert list(out["n"]) == [2, 2, 1]


def test_agg_median(f):
    out = f.groupby("g").agg(med=("x", "median"))
    assert list(out["med"]) == [2.0, 3.0, 5.0]


def test_agg_std_matches_numpy(f):
    out = f.groupby("g").agg(s=("x", "std"))
    assert out["s"][0] == pytest.approx(np.std([1.0, 3.0]))


def test_agg_first_last(f):
    out = f.groupby("g").agg(a=("x", "first"), b=("x", "last"))
    assert list(out["a"]) == [1.0, 2.0, 5.0]
    assert list(out["b"]) == [3.0, 4.0, 5.0]


def test_agg_unknown_raises(f):
    with pytest.raises(ValueError, match="unknown aggregation"):
        f.groupby("g").agg(z=("x", "frobnicate"))


def test_multi_key_groupby(f):
    gb = f.groupby(["g", "h"])
    assert gb.keys().num_rows == 4
    out = gb.agg(n=("x", "count"))
    # (g=1, h='a') has two rows
    mask = (out["g"] == 1) & (out["h"] == "a")
    assert out["n"][mask][0] == 2


def test_apply_callable(f):
    out = f.groupby("g").apply("x", lambda v: float(v.max() - v.min()))
    assert list(out["x"]) == [2.0, 2.0, 0.0]


def test_groups_iteration(f):
    groups = dict(
        (key["g"], sub.num_rows) for key, sub in f.groupby("g").groups()
    )
    assert groups == {0: 2, 1: 2, 2: 1}


def test_groupby_string_key(f):
    out = f.groupby("h").agg(n=("x", "count"))
    assert dict(zip(out["h"], out["n"])) == {"a": 3, "b": 2}


def test_groupby_large_random_consistency():
    rng = np.random.default_rng(0)
    g = rng.integers(0, 50, size=5000)
    x = rng.random(5000)
    f = Frame({"g": g, "x": x})
    out = f.groupby("g").agg(s=("x", "sum"))
    for k in (0, 17, 49):
        assert out["s"][out["g"] == k][0] == pytest.approx(x[g == k].sum())
