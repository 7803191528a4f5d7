"""Tests for the characterization core: geometry, core-hours, utilization,
waiting, failures, and the per-trace memo they share."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    allocation_summary,
    analyze_geometry,
    analyze_utilization,
    arrival_summary,
    core_hour_shares,
    dominating_class,
    evaluate_takeaways,
    repetition_summary,
    runtime_summary,
    runtime_vs_queue,
    size_vs_queue,
    status_by_class,
    status_shares,
    utilization_timeline,
    wait_by_class,
    wait_summary,
)
from repro.core.users import _queue_classes
from repro.core.utilization import _busy_integral
from repro.experiments import run_experiment
from repro.frame import Frame
from repro.traces import (
    BLUE_WATERS,
    MIRA,
    PHILLY,
    JobStatus,
    Trace,
    length_class,
    size_class,
    trace_length_class,
    trace_size_class,
)
from repro.traces import categorize
from repro.traces.synth import cached_traces, generate_all_traces


def make_trace(system=PHILLY, **cols):
    n = len(cols.get("runtime", [60.0, 7200.0, 90000.0, 30.0]))
    base = {
        "submit_time": np.arange(n) * 100.0,
        "runtime": [60.0, 7200.0, 90000.0, 30.0],
        "cores": [1, 4, 16, 1],
        "wait_time": [10.0, 100.0, 1000.0, 0.0],
        "status": [0, 0, 2, 1],
    }
    base.update(cols)
    return Trace(system=system, jobs=Frame(base))


class TestGeometry:
    def test_runtime_summary_median(self):
        s = runtime_summary(make_trace())
        assert s.median == pytest.approx(np.median([60, 7200, 90000, 30]))
        assert s.system == "Philly"

    def test_runtime_cdf_monotone(self):
        s = runtime_summary(make_trace())
        assert np.all(np.diff(s.cdf_values) >= 0)
        assert s.cdf_values[-1] == 1.0

    def test_arrival_summary(self):
        s = arrival_summary(make_trace())
        assert s.median_interval == 100.0
        assert s.hourly_counts.shape == (24,)

    def test_arrival_peak_ratio_infinite_when_empty_hours(self):
        s = arrival_summary(make_trace())
        assert s.peak_ratio == float("inf")  # 4 jobs can't fill 24 hours

    def test_allocation_fractions(self):
        s = allocation_summary(make_trace())
        assert s.single_unit_fraction == 0.5
        assert s.over_1000_fraction == 0.0
        assert s.median_cores == 2.5

    def test_analyze_geometry_bundles(self):
        g = analyze_geometry(make_trace())
        assert g.runtime.system == g.arrival.system == g.allocation.system


class TestCoreHours:
    def test_shares_sum_to_one(self):
        s = core_hour_shares(make_trace())
        assert s.by_size.sum() == pytest.approx(1.0)
        assert s.by_length.sum() == pytest.approx(1.0)
        assert s.count_by_size.sum() == pytest.approx(1.0)

    def test_dominant_class(self):
        # the 16-GPU 25h job dominates: large size, long runtime
        s = core_hour_shares(make_trace())
        assert s.dominant_size() == "large"
        assert s.dominant_length() == "long"

    def test_dominating_class_threshold(self):
        s = core_hour_shares(make_trace())
        dom = dominating_class(s, threshold=0.5)
        assert "size:large" in dom and "length:long" in dom

    def test_total_core_hours(self):
        s = core_hour_shares(make_trace())
        expected = (60 * 1 + 7200 * 4 + 90000 * 16 + 30 * 1) / 3600
        assert s.total_core_hours == pytest.approx(expected)


class TestUtilization:
    def test_full_occupation(self):
        # one job holding all units from t=0..1000, probed over that window
        tr = Trace(
            system=PHILLY,
            jobs=Frame(
                {
                    "submit_time": [0.0, 1000.0],
                    "runtime": [1000.0, 0.0],
                    "cores": [PHILLY.schedulable_units, 1],
                    "wait_time": [0.0, 0.0],
                }
            ),
        )
        series = utilization_timeline(tr, n_buckets=4)
        assert series.values[0] == pytest.approx(1.0)
        assert series.average > 0.9

    def test_half_occupation(self):
        tr = Trace(
            system=PHILLY,
            jobs=Frame(
                {
                    "submit_time": [0.0, 0.0],
                    "runtime": [1000.0, 1000.0],
                    "cores": [PHILLY.schedulable_units // 2, 1],
                    "wait_time": [0.0, 0.0],
                }
            ),
        )
        series = utilization_timeline(tr, n_buckets=2)
        assert series.average == pytest.approx(0.5, abs=0.01)

    def test_values_bounded(self):
        series = utilization_timeline(make_trace(), n_buckets=10)
        assert np.all((series.values >= 0) & (series.values <= 1))

    def test_blue_waters_two_pools(self):
        tr = make_trace(system=BLUE_WATERS, pool=[0, 0, 1, 1])
        series = analyze_utilization(tr)
        assert [s.pool for s in series] == ["cpu", "gpu"]
        assert series[1].capacity == BLUE_WATERS.gpus * 16

    def test_single_pool_systems(self):
        assert [s.pool for s in analyze_utilization(make_trace())] == ["gpu"]
        assert [s.pool for s in analyze_utilization(make_trace(system=MIRA))] == ["cpu"]

    def test_blue_waters_without_gpu_jobs(self):
        # the GPU pool's mask selects no job: an all-zero series
        tr = make_trace(system=BLUE_WATERS, pool=[0, 0, 0, 0])
        cpu, gpu = analyze_utilization(tr, n_buckets=12)
        assert np.all(gpu.values == 0.0) and gpu.average == 0.0
        assert cpu.average > 0.0

    def test_single_job_trace(self):
        # one submission: the window is [t0, t0 + 1) and the job fills it
        tr = make_trace(
            system=MIRA,
            submit_time=[50.0],
            runtime=[100.0],
            cores=[MIRA.schedulable_units],
            wait_time=[0.0],
            status=[0],
        )
        series = utilization_timeline(tr, n_buckets=4)
        np.testing.assert_array_equal(series.values, np.ones(4))


def _overlap_spec(start, end, cores, edges):
    """Busy core-seconds per bucket, job by job: the sum over jobs of
    ``cores * max(0, min(end, b1) - max(start, b0))``."""
    out = np.zeros(len(edges) - 1)
    for k, (b0, b1) in enumerate(zip(edges[:-1], edges[1:])):
        for s, e, c in zip(start, end, cores):
            out[k] += c * max(0.0, min(e, b1) - max(s, b0))
    return out


def _random_jobs(seed, n):
    """Jobs on a coarse 10 s grid: many share an instant, many start or end
    exactly on a bucket edge (edges fall on the grid), some have zero
    runtime, some start before the window and some run past its end."""
    rng = np.random.default_rng(seed)
    start = rng.integers(-5, 50, n) * 10.0
    runtime = rng.choice([0.0, 10.0, 40.0, 120.0, 800.0], n)
    cores = rng.integers(1, 64, n).astype(float)
    return start, start + runtime, cores


class TestBusyIntegral:
    """The event sweep against the per-job overlap specification."""

    EDGES = np.linspace(0.0, 480.0, 13)  # 40 s buckets, on the 10 s grid

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("offset", [0.0, 5.0], ids=["on-grid", "off-grid"])
    def test_matches_overlap_spec(self, seed, offset):
        # off the grid, no event falls on an edge: each edge takes the
        # level of the last instant before it, the first edge included
        start, end, cores = _random_jobs(seed, n=200)
        edges = self.EDGES + offset
        got = _busy_integral(start, end, cores, edges)
        want = _overlap_spec(start, end, cores, edges)
        assert got == pytest.approx(want, rel=1e-12)

    def test_many_events_at_one_instant(self):
        n = 50
        start = np.full(n, 80.0)  # every job starts on an edge, at once
        end = np.concatenate([np.full(n // 2, 80.0), np.full(n - n // 2, 200.0)])
        cores = np.arange(1.0, n + 1)
        got = _busy_integral(start, end, cores, self.EDGES)
        assert got == pytest.approx(
            _overlap_spec(start, end, cores, self.EDGES), rel=1e-12
        )
        assert got[:2].sum() == 0.0  # nothing before t=80

    def test_zero_runtime_jobs_add_nothing(self):
        start = np.array([0.0, 40.0, 55.0, 480.0])
        got = _busy_integral(start, start.copy(), np.full(4, 7.0), self.EDGES)
        np.testing.assert_array_equal(got, np.zeros(12))

    def test_job_past_the_window_counts_only_inside(self):
        got = _busy_integral(
            np.array([460.0]), np.array([10_000.0]), np.array([3.0]), self.EDGES
        )
        np.testing.assert_array_equal(got, [0.0] * 11 + [3.0 * 20.0])

    def test_empty_and_single_job(self):
        empty = np.array([])
        np.testing.assert_array_equal(
            _busy_integral(empty, empty, empty, self.EDGES), np.zeros(12)
        )
        got = _busy_integral(
            np.array([30.0]), np.array([130.0]), np.array([2.0]), self.EDGES
        )
        np.testing.assert_array_equal(got, [20.0, 80.0, 80.0, 20.0] + [0.0] * 8)

    @pytest.mark.parametrize("seed", range(4))
    def test_input_order_cannot_change_the_bits(self, seed):
        # integer cores: every level is an exact prefix sum, so the order
        # the sort leaves tied events in does not matter
        start, end, cores = _random_jobs(seed, n=300)
        got = _busy_integral(start, end, cores, self.EDGES)
        perm = np.random.default_rng(seed + 100).permutation(len(start))
        shuffled = _busy_integral(start[perm], end[perm], cores[perm], self.EDGES)
        assert got.tobytes() == shuffled.tobytes()


class TestWaiting:
    def test_wait_summary_values(self):
        s = wait_summary(make_trace())
        assert s.median_wait == pytest.approx(np.median([10, 100, 1000, 0]))
        assert s.mean_wait == pytest.approx(np.mean([10, 100, 1000, 0]))

    def test_turnaround_cdf_below_wait_cdf(self):
        # turnaround >= wait pointwise, so its CDF is <= the wait CDF
        s = wait_summary(make_trace())
        assert np.all(s.turnaround_cdf <= s.wait_cdf + 1e-12)

    def test_fraction_waiting_less_than(self):
        s = wait_summary(make_trace())
        assert 0.0 <= s.fraction_waiting_less_than(60) <= 1.0

    def test_wait_by_class(self):
        s = wait_by_class(make_trace())
        # small jobs: waits 10, 0 -> mean 5; middle (4 GPUs): 100; large: 1000
        assert s.by_size[0] == pytest.approx(5.0)
        assert s.by_size[1] == pytest.approx(100.0)
        assert s.by_size[2] == pytest.approx(1000.0)
        assert s.longest_waiting_size() == 2

    def test_wait_by_class_empty_class_nan(self):
        tr = make_trace(cores=[1, 1, 1, 1])
        s = wait_by_class(tr)
        assert np.isnan(s.by_size[1]) and np.isnan(s.by_size[2])


class TestFailures:
    def test_status_shares(self):
        s = status_shares(make_trace())
        assert s.count_shares.sum() == pytest.approx(1.0)
        assert s.passed_count_share == 0.5
        assert s.n_jobs == 4

    def test_killed_amplification(self):
        s = status_shares(make_trace())
        # the killed job is the 16-GPU 25h monster -> amplification >> 1
        assert s.killed_amplification() > 2.0

    def test_wasted_share(self):
        s = status_shares(make_trace())
        assert 0.0 < s.wasted_core_hour_share < 1.0

    def test_status_by_class_rows_sum_to_one(self):
        s = status_by_class(make_trace())
        for k in range(3):
            if not np.isnan(s.by_length[k]).any():
                assert s.by_length[k].sum() == pytest.approx(1.0)

    def test_pass_rates(self):
        s = status_by_class(make_trace())
        # long class contains only the killed job
        assert s.pass_rate_by_length()[2] == 0.0

    def test_empty_class_is_nan(self):
        tr = make_trace(runtime=[10.0, 20.0, 30.0, 40.0])
        s = status_by_class(tr)
        assert np.isnan(s.by_length[1]).all()
        assert np.isnan(s.by_length[2]).all()


#: every analysis memoized per trace
MEMOIZED = (
    runtime_summary,
    arrival_summary,
    allocation_summary,
    core_hour_shares,
    wait_summary,
    status_shares,
    status_by_class,
    repetition_summary,
    size_vs_queue,
    runtime_vs_queue,
    _queue_classes,
    trace_size_class,
    trace_length_class,
)


def _arrays(value):
    """Every NumPy array reachable from a (nested) analysis result."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


class TestPerTraceMemo:
    def test_takeaways_after_figures_equal_fresh_traces(self):
        days, seed = 5.0, 0
        for i in range(1, 12):
            run_experiment(f"fig{i}", days=days, seed=seed)
        # the figures filled the traces' memos; the takeaways read them
        reused = evaluate_takeaways(cached_traces(days, seed))
        fresh = evaluate_takeaways(generate_all_traces(days=days, seed=seed))
        assert len(reused) == len(fresh) == 8
        for a, b in zip(reused, fresh):
            assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))

    @pytest.mark.parametrize("fn", MEMOIZED, ids=lambda f: f.__name__)
    def test_second_call_returns_memoized_result(self, fn):
        tr = make_trace()
        assert fn(tr) is fn(tr)

    def test_defaults_and_keywords_share_an_entry(self):
        tr = make_trace()
        assert repetition_summary(tr) is repetition_summary(tr, max_k=10)
        assert repetition_summary(tr, max_k=3) is not repetition_summary(tr)

    def test_replacing_jobs_invalidates(self):
        tr = make_trace()
        before = runtime_summary(tr)
        tr.jobs = tr.jobs.with_column("runtime", [10.0, 20.0, 30.0, 40.0])
        after = runtime_summary(tr)
        assert after is not before
        assert after.median == 25.0
        assert before.median == pytest.approx(np.median([60, 7200, 90000, 30]))

    def test_filter_and_window_do_not_share_entries(self):
        parent = make_trace()
        whole = runtime_summary(parent)
        same_rows = parent.filter(np.ones(parent.num_jobs, dtype=bool))
        assert runtime_summary(same_rows) is not whole
        first_two = parent.window(0.0, 150.0)
        assert runtime_summary(first_two).median == pytest.approx(3630.0)
        assert runtime_summary(parent) is whole
        assert whole.median == pytest.approx(np.median([60, 7200, 90000, 30]))

    def test_sorted_trace_shares_its_memo(self):
        tr = make_trace()
        assert runtime_summary(tr.sorted_by_submit()) is runtime_summary(tr)

    @pytest.mark.parametrize("fn", MEMOIZED, ids=lambda f: f.__name__)
    def test_memoized_arrays_are_read_only(self, fn):
        arrays = _arrays(fn(make_trace()))
        assert arrays
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_unhashable_argument_raises(self):
        with pytest.raises(TypeError, match="unhashable"):
            repetition_summary(make_trace(), max_k=np.array([10]))


class TestClassMemo:
    """``trace_size_class`` / ``trace_length_class``: int8 vectors computed
    once per trace and shared by Figs 2, 5, 7, 9 and 10."""

    def test_computed_once_per_trace(self, monkeypatch):
        calls = {"size": 0, "length": 0}

        def counting(kind, fn):
            def wrapped(*args):
                calls[kind] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(
            categorize, "size_class", counting("size", categorize.size_class)
        )
        monkeypatch.setattr(
            categorize, "length_class", counting("length", categorize.length_class)
        )
        tr = make_trace()
        core_hour_shares(tr)
        status_by_class(tr)
        wait_by_class(tr)
        size_vs_queue(tr)
        runtime_vs_queue(tr)
        assert trace_size_class(tr) is trace_size_class(tr)
        assert calls == {"size": 1, "length": 1}

    @pytest.mark.parametrize("system", [PHILLY, MIRA])
    def test_read_only_int8_equal_to_the_kernels(self, system):
        tr = make_trace(system=system, cores=[1, 4, 2000, 60000])
        for memo, kernel in (
            (trace_size_class(tr), size_class(tr["cores"], system)),
            (trace_length_class(tr), length_class(tr["runtime"])),
        ):
            assert memo.dtype == np.int8
            assert not memo.flags.writeable
            np.testing.assert_array_equal(memo, kernel)

    def test_unsorted_trace_copy_has_its_own_memo(self):
        unsorted = make_trace(submit_time=[300.0, 0.0, 200.0, 100.0])
        presorted = unsorted.sorted_by_submit()
        assert presorted is not unsorted
        # the sorted copy classifies its own row order
        np.testing.assert_array_equal(
            trace_size_class(presorted), trace_size_class(unsorted)[[1, 3, 2, 0]]
        )
        assert trace_size_class(presorted) is not trace_size_class(unsorted)
        fresh = Trace(PHILLY, presorted.jobs)
        for fn in (size_vs_queue, runtime_vs_queue):
            a, b = fn(unsorted), fn(fresh)
            assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))
