"""Literal values of the hashed draws: sweep seeds, retry jitter and chaos.

Each draw hashes ``json.dumps([seed, *map(str, parts)])`` with SHA-256 and
reads its first 8 bytes.  Cache keys, retry delays and chaos schedules
depend on those bits, so the values below were recorded once and any
change to the hashing shows up here.
"""

from repro.runner import RetryPolicy, derive_seed
from repro.testkit.chaos import ChaosConfig


class TestPinnedDraws:
    def test_derive_seed(self):
        assert derive_seed(0) == 7520536977032167579
        assert derive_seed(0, "theta", 0) == 1907505698315431978
        assert derive_seed(3, "theta", 0) == 4397988275582911181
        assert derive_seed(7, "faults") == 4734975509577165082
        assert derive_seed(2**40, "mira", 1.5, None) == 7626090125507839632

    def test_retry_delay(self):
        default = RetryPolicy(seed=0)
        steep = RetryPolicy(seed=11, backoff_base=0.25, backoff_factor=3.0, jitter=1.0)
        cases = [
            ("abc", 1, 0.61308659049458, 0.36043575155457747),
            ("abc", 2, 1.1224193802397062, 1.2866598697176141),
            ("f" * 64, 3, 2.3450857231077036, 3.039825936732249),
        ]
        for fingerprint, attempt, want_default, want_steep in cases:
            assert default.delay(fingerprint, attempt) == want_default
            assert steep.delay(fingerprint, attempt) == want_steep

    def test_chaos_schedule(self):
        chaos = ChaosConfig(
            crash_p=0.2, hang_p=0.1, error_p=0.2,
            corrupt_result_p=0.3, cache_corrupt_p=0.4, seed=5,
        )
        faults = [chaos.fault_for(f"cell{i}", a) for i in range(4) for a in (1, 2)]
        assert faults == [
            "crash", "error", "error", None, None, None, "crash", "crash",
        ]
        assert [chaos.corrupts_result(f"cell{i}", 1) for i in range(6)] == [
            False, True, False, False, False, False,
        ]
        assert [chaos.corrupts_cache(f"cell{i}") for i in range(6)] == [
            False, False, False, True, False, True,
        ]
