"""Tests for workload similarity and the advisor."""

import numpy as np
import pytest

from repro.core import (
    advise,
    nearest_system,
    signature_distance,
    workload_signature,
)
from repro.traces import THETA
from repro.traces.synth import generate_trace


class TestSignature:
    @pytest.fixture(scope="class")
    def theta(self):
        return generate_trace("theta", days=4, seed=2)

    def test_signature_fields(self, theta):
        sig = workload_signature(theta)
        assert sig.system == "Theta"
        assert len(sig.runtime) == theta.num_jobs
        assert sig.status_mix.sum() == pytest.approx(1.0)

    def test_subsampling_caps_size(self, theta):
        sig = workload_signature(theta, max_samples=100)
        assert len(sig.runtime) == 100

    def test_self_distance_zero(self, theta):
        sig = workload_signature(theta)
        assert signature_distance(sig, sig) == pytest.approx(0.0, abs=1e-12)

    def test_distance_symmetric(self, theta):
        a = workload_signature(theta)
        b = workload_signature(generate_trace("philly", days=2, seed=2))
        assert signature_distance(a, b) == pytest.approx(
            signature_distance(b, a)
        )

    def test_different_kinds_far_apart(self, theta):
        a = workload_signature(theta)
        near = workload_signature(generate_trace("theta", days=4, seed=9))
        far = workload_signature(generate_trace("helios", days=0.5, seed=9))
        assert signature_distance(a, near) < signature_distance(a, far)


class TestNearestSystem:
    @pytest.mark.parametrize("system", ["theta", "philly", "helios"])
    def test_classifies_own_kind(self, system):
        probe = generate_trace(system, days=3, seed=11)
        ranking = nearest_system(probe, days=2, seed=5)
        assert ranking[0][0] == system
        assert ranking[0][1] < ranking[1][1]

    def test_ranking_sorted(self):
        probe = generate_trace("mira", days=3, seed=11)
        distances = [d for _, d in nearest_system(probe, days=2, seed=5)]
        assert distances == sorted(distances)


class TestAdvisor:
    def test_philly_trace_triggers_failure_rules(self):
        tr = generate_trace("philly", days=4, seed=3)
        rules = {r.rule for r in advise(tr)}
        assert "failure-waste" in rules
        assert "queue-adaptive-users" in rules

    def test_recommendations_have_evidence(self):
        tr = generate_trace("theta", days=3, seed=3)
        for rec in advise(tr):
            assert rec.evidence
            assert rec.severity in ("info", "advice", "warning")
            assert str(rec).startswith(f"[{rec.severity}]")

    def test_clean_synthetic_workload_fewer_warnings(self):
        # a workload with no failures and no waits triggers fewer rules
        from repro.frame import Frame
        from repro.traces import Trace

        n = 300
        rng = np.random.default_rng(0)
        tr = Trace(
            system=THETA,
            jobs=Frame(
                {
                    "submit_time": np.sort(rng.uniform(0, 86400, n)),
                    "runtime": rng.uniform(3000, 3300, n),
                    "cores": np.full(n, 6400),
                    "wait_time": np.zeros(n),
                    "user_id": rng.integers(0, 5, n),
                }
            ),
        )
        warnings = [r for r in advise(tr) if r.severity == "warning"]
        assert not warnings

