"""Tests for the Trace schema, system specs, and categorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Frame
from repro.traces import (
    ALL_SYSTEMS,
    BLUE_WATERS,
    HELIOS,
    MIRA,
    PHILLY,
    TARGET_SYSTEMS,
    THETA,
    JobStatus,
    Trace,
    length_class,
    minimal_runtime_mask,
    minimal_size_mask,
    size_class,
    size_class_edges,
)


def make_trace(system=MIRA, **cols):
    base = {
        "submit_time": [0.0, 10.0, 20.0],
        "runtime": [100.0, 200.0, 300.0],
        "cores": [512, 1024, 2048],
    }
    base.update(cols)
    return Trace(system=system, jobs=Frame(base))


class TestTrace:
    def test_defaults_filled(self):
        tr = make_trace()
        for col in ("job_id", "user_id", "wait_time", "req_walltime", "status", "vc"):
            assert col in tr.jobs

    def test_missing_required_raises(self):
        with pytest.raises(ValueError, match="required"):
            Trace(system=MIRA, jobs=Frame({"submit_time": [0.0]}))

    def test_num_jobs_and_span(self):
        tr = make_trace()
        assert tr.num_jobs == 3
        assert tr.span_seconds == 20.0

    def test_core_hours(self):
        tr = make_trace()
        assert tr.core_hours()[0] == pytest.approx(512 * 100 / 3600)

    def test_turnaround(self):
        tr = make_trace(wait_time=[5.0, 5.0, 5.0])
        assert list(tr.turnaround()) == [105.0, 205.0, 305.0]

    def test_arrival_intervals(self):
        tr = make_trace()
        assert list(tr.arrival_intervals()) == [10.0, 10.0]

    def test_filter_and_window(self):
        tr = make_trace()
        assert tr.filter(tr["cores"] > 512).num_jobs == 2
        assert tr.window(0, 15).num_jobs == 2

    def test_sorted_by_submit(self):
        tr = Trace(
            system=MIRA,
            jobs=Frame(
                {"submit_time": [5.0, 1.0], "runtime": [1.0, 2.0], "cores": [1, 2]}
            ),
        )
        assert list(tr.sorted_by_submit()["submit_time"]) == [1.0, 5.0]

    def test_sorted_trace_is_returned_without_a_copy(self):
        tr = make_trace(submit_time=[0.0, 10.0, 10.0])
        assert tr.sorted_by_submit() is tr
        assert tr.sorted_by_submit().jobs is tr.jobs

    def test_unsorted_ties_match_a_stable_sort(self):
        tr = Trace(
            system=MIRA,
            jobs=Frame(
                {
                    "submit_time": [5.0, 1.0, 5.0, 1.0, 3.0, 1.0],
                    "runtime": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    "cores": [1, 2, 3, 4, 5, 6],
                }
            ),
        )
        out = tr.sorted_by_submit()
        assert out.jobs == tr.jobs.sort_by("submit_time")
        assert list(out["job_id"]) == [1, 3, 5, 4, 0, 2]
        assert out.sorted_by_submit() is out

    @given(st.lists(st.integers(0, 4), min_size=0, max_size=30))
    @settings(max_examples=50)
    def test_sorted_by_submit_equals_stable_sort(self, submits):
        n = len(submits)
        tr = Trace(
            system=MIRA,
            jobs=Frame(
                {
                    "submit_time": np.array(submits, dtype=float),
                    "runtime": np.arange(n, dtype=float),
                    "cores": np.ones(n, dtype=np.int64),
                }
            ),
        )
        assert tr.sorted_by_submit().jobs == tr.jobs.sort_by("submit_time")

    def test_construction_shares_columns_of_the_right_dtype(self):
        frame = Frame(
            {
                "submit_time": np.array([0.0, 1.0]),
                "runtime": np.array([5.0, 6.0]),
                "cores": np.array([1, 2], dtype=np.int64),
            }
        )
        tr = Trace(system=MIRA, jobs=frame)
        for col in ("submit_time", "runtime", "cores"):
            assert tr[col] is frame[col]

    def test_construction_still_coerces_dtypes(self):
        tr = Trace(
            system=MIRA,
            jobs=Frame(
                {
                    "submit_time": np.array([0, 1], dtype=np.int32),
                    "runtime": np.array([5, 6], dtype=np.int64),
                    "cores": np.array([1.0, 2.0]),
                }
            ),
        )
        assert tr["submit_time"].dtype == np.float64
        assert tr["runtime"].dtype == np.float64
        assert tr["cores"].dtype == np.int64


class TestJobStatus:
    def test_labels(self):
        assert JobStatus.PASSED.label == "Passed"
        assert JobStatus.KILLED.label == "Killed"

    def test_codes_stable(self):
        assert int(JobStatus.PASSED) == 0
        assert int(JobStatus.FAILED) == 1
        assert int(JobStatus.KILLED) == 2


class TestSystems:
    def test_table1_has_nine_rows(self):
        assert len(ALL_SYSTEMS) == 9

    def test_five_targets_selected(self):
        assert len(TARGET_SYSTEMS) == 5
        assert all(s.selected for s in TARGET_SYSTEMS)

    def test_excluded_systems_have_reasons(self):
        excluded = [s for s in ALL_SYSTEMS if not s.selected]
        assert len(excluded) == 4
        assert all(s.exclusion_reason for s in excluded)

    def test_schedulable_units(self):
        assert MIRA.schedulable_units == 786_432
        assert PHILLY.schedulable_units == 2_490
        assert BLUE_WATERS.schedulable_units == 396_000 + 4_228

    def test_paper_scale_facts(self):
        # Table I claims used in the text
        assert HELIOS.gpus > 2 * PHILLY.gpus
        assert PHILLY.virtual_clusters == 14


class TestCategorize:
    def test_dl_size_classes(self):
        cores = np.array([1, 2, 8, 9, 2048])
        assert list(size_class(cores, PHILLY)) == [0, 1, 1, 2, 2]

    def test_hpc_size_classes(self):
        total = MIRA.schedulable_units
        cores = np.array([1, int(total * 0.09), int(total * 0.2), int(total * 0.5)])
        assert list(size_class(cores, MIRA)) == [0, 0, 1, 2]

    def test_size_edges_dl_vs_hpc(self):
        assert size_class_edges(HELIOS) == (1.0, 8.0)
        lo, hi = size_class_edges(THETA)
        assert lo == pytest.approx(0.10 * THETA.schedulable_units)
        assert hi == pytest.approx(0.30 * THETA.schedulable_units)

    def test_length_classes(self):
        rt = np.array([10.0, 3599.0, 3600.0, 86400.0, 86401.0])
        assert list(length_class(rt)) == [0, 0, 1, 1, 2]

    def test_minimal_masks(self):
        assert list(minimal_size_mask(np.array([1, 2]))) == [True, False]
        assert list(minimal_runtime_mask(np.array([59.0, 60.0]))) == [True, False]
