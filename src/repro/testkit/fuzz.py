"""Differential workload fuzzer with reproducer shrinking.

The fuzzer generates seeded randomized workloads — deliberately including
the adversarial shapes that historically break schedulers: zero-runtime
jobs, full-cluster jobs, bursts of simultaneous submissions, exact
``walltime == runtime`` ties, near-capacity wide jobs (dense reservation
chains through the conservative profile), and far-future walltime pads
(checkpoint-at-walltime edges under fault injection), spread over a few
users so fair-share ranking has state — and demands that every production
implementation of a configuration produces a **bit-identical**
:class:`~repro.sched.SimResult` to the :mod:`repro.testkit.oracle`, while
also passing the :mod:`repro.testkit.invariants` battery:

* EASY-family configurations run :func:`~repro.sched.simulate` against
  the oracle, audit its decoded columnar event stream with
  :func:`~repro.obs.check_events`, and diff the fault engine
  (:func:`~repro.sched.simulate_with_faults`) against the fault oracle
  over the :data:`FUZZ_FAULT_CONFIGS` matrix (node-failure bursts, retry
  storms, checkpointed restarts) — complete
  :class:`~repro.sched.FaultSimResult` objects, with the fault invariant
  battery and the event audit on the engine's runs;
* conservative configurations run
  :func:`~repro.sched.simulate_conservative` against the oracle, under
  a static rank (``conservative``, ``sjf-conservative``) and a
  clock-dependent one (``wfp3-conservative``).

On a divergence the failing workload is *shrunk* to a minimal reproducer:

1. **greedy job removal** — repeatedly drop any job whose removal keeps
   the failure alive;
2. **value minimization** — per job, try the simplest values (zero
   runtime, one core, ``walltime = runtime``, submit collapsed onto the
   previous job's) and keep each simplification that still fails;

alternating until a fixpoint (or the evaluation budget) is reached.  The
shrunk workload converts to SWF (:func:`workload_to_trace`) so a failure
found by ``python -m repro.cli fuzz`` is immediately replayable through
``repro.cli simulate``.

Every case is derived from ``(seed, case_index)``, so a reported failure
reproduces exactly from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..frame import Frame
from ..obs.columnar import ColumnarRecorder
from ..sched import (
    EASY,
    NO_BACKFILL,
    NO_FAULTS,
    BackfillConfig,
    FaultConfig,
    SimWorkload,
    simulate,
    simulate_conservative,
)
from ..sched.engine import SimResult
from ..traces.schema import Trace
from ..traces.systems import ResourceKind, SystemKind, SystemSpec
from . import invariants
from .oracle import oracle_simulate, oracle_simulate_with_faults

__all__ = [
    "FuzzPolicy",
    "FUZZ_POLICIES",
    "FUZZ_FAULT_CONFIGS",
    "Divergence",
    "FuzzReport",
    "random_workload",
    "check_case",
    "shrink",
    "fuzz",
    "workload_to_trace",
]

#: default cluster size for fuzzed workloads — small enough that blocked
#: heads and backfill opportunities are frequent
DEFAULT_CAPACITY = 16


@dataclass(frozen=True)
class FuzzPolicy:
    """One named engine configuration under differential test."""

    name: str
    policy: str  #: queue policy (any name in ``ORACLE_POLICIES``)
    engine: str  #: "easy" or "conservative"
    backfill: BackfillConfig = EASY

    def run_engines(
        self, workload: SimWorkload, capacity: int, tracer=None
    ) -> dict[str, SimResult]:
        """Every production implementation's schedule, keyed by entry point.

        Each family has one engine: :func:`~repro.sched.simulate` for
        the EASY family (``tracer`` records its event stream) and
        :func:`~repro.sched.simulate_conservative` for conservative
        backfilling.
        """
        if self.engine == "conservative":
            return {
                "simulate_conservative": simulate_conservative(
                    workload, capacity, self.policy, track_queue=True
                ),
            }
        return {
            "simulate": simulate(
                workload, capacity, self.policy, self.backfill,
                track_queue=True, tracer=tracer,
            )
        }

    def run_oracle(self, workload: SimWorkload, capacity: int) -> SimResult:
        """The reference oracle's schedule for this configuration."""
        return oracle_simulate(
            workload, capacity, self.policy, self.backfill,
            engine=self.engine, track_queue=True,
        )

    def firm_promises(self, workload: SimWorkload) -> bool:
        """Whether ``start <= promised`` is an invariant for this run.

        Strict-EASY and no-backfill FCFS promise firmly; SJF may re-rank
        the head on new arrivals, relaxing trades the promise away by
        design, and conservative reservations are firm only when walltime
        estimates are exact (early completions legitimately re-plan).
        """
        if self.policy != "fcfs":
            return False
        if self.engine == "conservative":
            return bool(np.all(workload.walltime == workload.runtime))
        return self.backfill.relax_base == 0.0


#: the configurations the differential suite guards (CLI ``--policy`` names)
FUZZ_POLICIES: dict[str, FuzzPolicy] = {
    p.name: p
    for p in (
        FuzzPolicy("fcfs", "fcfs", "easy", NO_BACKFILL),
        FuzzPolicy("sjf", "sjf", "easy", NO_BACKFILL),
        FuzzPolicy("easy", "fcfs", "easy", EASY),
        FuzzPolicy("sjf-easy", "sjf", "easy", EASY),
        FuzzPolicy("conservative", "fcfs", "conservative"),
        FuzzPolicy("sjf-conservative", "sjf", "conservative"),
        FuzzPolicy("wfp3-conservative", "wfp3", "conservative"),
        # one EASY configuration per remaining queue policy
        *(
            FuzzPolicy(f"{policy}-easy", policy, "easy", EASY)
            for policy in (
                "ljf", "smallest", "largest", "wfp3", "unicef", "f1",
                "fairshare",
            )
        ),
    )
}

#: fault configurations every EASY-family case sweeps.  Deterministic
#: (fixed seeds) so a failure reproduces from ``(seed, case)`` alone, and
#: chosen against the fuzzed workload shapes: runtimes are integers below
#: 200s, so MTBF 40s forces mid-run node-failure bursts and checkpoint
#: interval 50s lands restore amounts exactly on walltime multiples.
FUZZ_FAULT_CONFIGS: tuple[FaultConfig, ...] = (
    NO_FAULTS,
    # intrinsic failures and user kills with retries
    FaultConfig(
        fail_prob=0.3, kill_prob=0.15, max_attempts=3,
        backoff_base=5.0, seed=101,
    ),
    # node churn at job-runtime scale
    FaultConfig(
        node_mtbf=150.0, node_mttr=60.0, n_nodes=4, max_attempts=5,
        backoff_base=3.0, seed=202,
    ),
    # mid-run node-failure bursts: MTBF far below typical runtimes
    FaultConfig(
        node_mtbf=40.0, node_mttr=15.0, n_nodes=6, max_attempts=8,
        backoff_base=1.0, seed=303,
    ),
    # checkpoint-at-walltime edges mixed with intrinsic failures
    FaultConfig(
        node_mtbf=80.0, node_mttr=30.0, n_nodes=3, fail_prob=0.2,
        max_attempts=6, checkpoint_interval=50.0, backoff_base=2.0,
        seed=404,
    ),
)

#: every array field of a ``FaultSimResult`` — the fault-engine diff is
#: whole-result, attempt and node logs included
_FAULT_FIELDS = (
    "start", "end", "status", "attempts", "promised", "backfilled",
    "attempt_job", "attempt_start", "attempt_elapsed", "attempt_outcome",
    "node_fail_times", "node_fail_nodes", "node_repair_times",
    "queue_samples", "queue_sample_times",
)


def random_workload(
    rng: np.random.Generator,
    capacity: int = DEFAULT_CAPACITY,
    max_jobs: int = 12,
) -> SimWorkload:
    """One randomized small workload, biased toward adversarial shapes.

    All times are integer-valued seconds so a reproducer written as SWF
    (whose fields are integral) round-trips without loss.
    """
    n = int(rng.integers(2, max_jobs + 1))
    gaps = rng.integers(0, 30, size=n)
    gaps[rng.random(n) < 0.3] = 0  # simultaneous submits
    gaps[0] = 0
    submit = np.cumsum(gaps).astype(float)
    cores = rng.integers(1, capacity + 1, size=n)
    cores[rng.random(n) < 0.15] = capacity  # full-cluster jobs
    cores[rng.random(n) < 0.15] = 1
    runtime = rng.integers(0, 200, size=n).astype(float)
    runtime[rng.random(n) < 0.1] = 0.0  # zero-runtime jobs
    pad = rng.integers(0, 100, size=n).astype(float)
    pad[rng.random(n) < 0.3] = 0.0  # walltime == runtime ties
    # later-added shapes draw strictly *after* every pre-existing draw so
    # historical (seed, case) pairs keep producing the same base values:
    # dense reservation chains — stretches of wide jobs force conservative
    # backfilling to stack many mutually-blocking reservations per round
    wide = rng.random(n) < 0.2
    wide_cores = rng.integers(capacity // 2 + 1, capacity + 1, size=n)
    cores[wide] = wide_cores[wide]
    # far-future pads push those reservations deep into the profile
    deep = rng.random(n) < 0.15
    deep_pad = rng.integers(50, 400, size=n).astype(float)
    pad[deep] += deep_pad[deep]
    # a few users, so fair share ranks by (decayed) per-user usage
    user = rng.integers(0, 4, size=n)
    return SimWorkload(
        submit=submit,
        cores=cores.astype(np.int64),
        runtime=runtime,
        walltime=runtime + pad,
        user=user.astype(np.int64),
    )


def _diff_results(engine: SimResult, oracle: SimResult) -> list[str]:
    """Bit-exact schedule comparison; non-empty means divergence."""
    diffs: list[str] = []
    if not np.array_equal(engine.start, oracle.start):
        for j in np.flatnonzero(engine.start != oracle.start):
            diffs.append(
                f"job {j}: engine start {engine.start[j]} != "
                f"oracle start {oracle.start[j]}"
            )
    if not np.array_equal(engine.promised, oracle.promised, equal_nan=True):
        both = ~(np.isnan(engine.promised) & np.isnan(oracle.promised))
        for j in np.flatnonzero(both & (engine.promised != oracle.promised)):
            diffs.append(
                f"job {j}: engine promised {engine.promised[j]} != "
                f"oracle promised {oracle.promised[j]}"
            )
    if len(engine.backfilled) and len(oracle.backfilled):
        if not np.array_equal(engine.backfilled, oracle.backfilled):
            mism = np.flatnonzero(engine.backfilled != oracle.backfilled)
            diffs.append(f"backfilled flags differ for jobs {mism.tolist()}")
    for name in ("queue_samples", "queue_sample_times"):
        a, b = getattr(engine, name), getattr(oracle, name)
        if a.shape != b.shape or not np.array_equal(a, b):
            diffs.append(
                f"{name}: engine {a[:8].tolist()}... != "
                f"oracle {b[:8].tolist()}..."
            )
    return diffs


def _check_fault_case(
    workload: SimWorkload, capacity: int, policy: FuzzPolicy, plain: SimResult
) -> list[str]:
    """Findings of the fault-engine differential for one EASY case.

    For every configuration in :data:`FUZZ_FAULT_CONFIGS` the fault engine
    must reproduce the fault oracle's *whole*
    :class:`~repro.sched.FaultSimResult` bit for bit — schedule, attempt
    log, node failure/repair logs and queue samples — and pass the fault
    invariant battery (:func:`repro.testkit.invariants.check_fault_result`).
    The engine's run is recorded into a :class:`ColumnarRecorder` whose
    decoded event stream must pass :func:`~repro.obs.check_events`.  The
    zero-fault configuration must additionally match ``plain``, the plain
    engine's result for the case: ``NO_FAULTS`` reduces fault injection
    to plain EASY scheduling.
    """
    # looked up at call time, so a test can substitute a mutated engine
    from ..sched import simulate_with_faults

    findings: list[str] = []
    for idx, cfg in enumerate(FUZZ_FAULT_CONFIGS):
        rec = ColumnarRecorder()
        res = simulate_with_faults(
            workload, capacity, policy.policy, policy.backfill, cfg,
            track_queue=True, tracer=rec,
        )
        ref = oracle_simulate_with_faults(
            workload, capacity, policy.policy, policy.backfill, cfg,
            track_queue=True,
        )
        diffs = []
        for name in _FAULT_FIELDS:
            a = getattr(ref, name)
            b = getattr(res, name)
            if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
                diffs.append(
                    f"faults[{idx}] {name}: engine {b[:8].tolist()}... != "
                    f"oracle {a[:8].tolist()}..."
                )
        findings += diffs
        findings += [
            f"faults[{idx}] engine: {v}"
            for v in invariants.check_fault_result(res)
        ]
        if diffs:
            # identical results get identical verdicts: the oracle's own
            # battery can only add findings where the two differ
            findings += [
                f"faults[{idx}] oracle: {v}"
                for v in invariants.check_fault_result(ref)
            ]
        findings += [
            f"faults[{idx}] event stream audit: {v}"
            for v in invariants.check_events(rec.to_events())
        ]
        if cfg is NO_FAULTS:
            for name in (
                "start", "promised", "backfilled",
                "queue_samples", "queue_sample_times",
            ):
                if not np.array_equal(
                    getattr(res, name), getattr(plain, name), equal_nan=True
                ):
                    findings.append(
                        f"zero-fault {name}: fault engine != plain engine"
                    )
    return findings


def check_case(
    workload: SimWorkload, capacity: int, policy: FuzzPolicy
) -> list[str]:
    """All findings for one (workload, configuration) case.

    Every production implementation of the configuration is diffed
    against the oracle, and the invariant battery runs on *every*
    schedule — a bug in the oracle itself surfaces as an
    ``oracle:``-prefixed invariant violation rather than silently blessing
    a matching engine bug.  EASY-family cases also audit the engine's
    decoded columnar event stream and run the fault-engine differential
    over :data:`FUZZ_FAULT_CONFIGS`.
    """
    easy = policy.engine != "conservative"
    rec = ColumnarRecorder() if easy else None
    oracle_res = policy.run_oracle(workload, capacity)
    firm = policy.firm_promises(workload)
    findings: list[str] = []
    runs = policy.run_engines(workload, capacity, tracer=rec)
    for impl, res in runs.items():
        findings += [f"{impl}: {d}" for d in _diff_results(res, oracle_res)]
        findings += [
            f"{impl}: {v}"
            for v in invariants.check_result(res, firm_promises=firm)
        ]
    findings += [
        f"oracle: {v}"
        for v in invariants.check_result(oracle_res, firm_promises=firm)
    ]
    if easy:
        findings += [
            f"event stream audit: {v}"
            for v in invariants.check_events(rec.to_events())
        ]
        findings += _check_fault_case(
            workload, capacity, policy, runs["simulate"]
        )
    return findings


# ----------------------------------------------------------------------
# shrinking


def _without(workload: SimWorkload, index: int) -> SimWorkload:
    """The workload with job ``index`` removed."""
    keep = np.arange(workload.n) != index
    return SimWorkload(
        submit=workload.submit[keep],
        cores=workload.cores[keep],
        runtime=workload.runtime[keep],
        walltime=workload.walltime[keep],
        user=workload.user[keep],
        status=workload.status[keep],
    )


def _with_field(workload: SimWorkload, field: str, index: int, value) -> SimWorkload:
    """The workload with one field of one job replaced."""
    arrays = {
        name: getattr(workload, name).copy()
        for name in ("submit", "cores", "runtime", "walltime", "user", "status")
    }
    arrays[field][index] = value
    return SimWorkload(**arrays)


def _simplifications(
    workload: SimWorkload, index: int
) -> Iterable[SimWorkload]:
    """Candidate one-field simplifications of job ``index``, simplest first."""
    if workload.runtime[index] != 0.0:
        yield _with_field(workload, "runtime", index, 0.0)
    if workload.cores[index] != 1:
        yield _with_field(workload, "cores", index, 1)
    if workload.walltime[index] != workload.runtime[index]:
        yield _with_field(
            workload, "walltime", index, workload.runtime[index]
        )
    earlier = 0.0 if index == 0 else workload.submit[index - 1]
    if workload.submit[index] != earlier:
        yield _with_field(workload, "submit", index, earlier)


def shrink(
    workload: SimWorkload,
    fails: Callable[[SimWorkload], bool],
    max_evals: int = 3000,
) -> tuple[SimWorkload, int]:
    """Minimize a failing workload; returns ``(shrunk, evaluations used)``.

    Alternates greedy job removal with per-job value minimization until a
    full pass changes nothing (or the evaluation budget runs out).  The
    returned workload still satisfies ``fails``.
    """
    evals = 0

    def still_fails(candidate: SimWorkload) -> bool:
        nonlocal evals
        evals += 1
        try:
            return bool(fails(candidate))
        except Exception:
            # a candidate that crashes an engine is as much a reproducer
            # as one that diverges — keep it
            return True

    progress = True
    while progress and evals < max_evals:
        progress = False
        # greedy removal (backwards, so surviving indices stay valid)
        i = workload.n - 1
        while i >= 0 and workload.n > 1 and evals < max_evals:
            candidate = _without(workload, i)
            if still_fails(candidate):
                workload = candidate
                progress = True
            i -= 1
        # per-job, per-field value minimization
        for i in range(workload.n):
            for candidate in _simplifications(workload, i):
                if evals >= max_evals:
                    break
                if still_fails(candidate):
                    workload = candidate
                    progress = True
    return workload, evals


# ----------------------------------------------------------------------
# the campaign


@dataclass
class Divergence:
    """A confirmed engine-vs-oracle or invariant failure, minimized."""

    policy: str
    seed: int
    case_index: int
    findings: list[str]  #: findings on the original failing workload
    workload: SimWorkload  #: shrunk reproducer (still failing)
    original_n: int
    shrink_evals: int

    def describe(self) -> str:
        lines = [
            f"divergence in policy {self.policy!r} "
            f"(seed {self.seed}, case {self.case_index}): "
            f"shrunk {self.original_n} -> {self.workload.n} job(s) "
            f"in {self.shrink_evals} evaluation(s)",
        ]
        lines += [f"  - {f}" for f in self.findings[:8]]
        if len(self.findings) > 8:
            lines.append(f"  ... and {len(self.findings) - 8} more")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    budget: int
    seed: int
    capacity: int
    policies: tuple[str, ...]
    cases: int  #: workloads generated
    runs: int  #: engine-vs-oracle comparisons executed
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        head = (
            f"fuzz: {self.cases} workload(s) x "
            f"{len(self.policies)} policy configuration(s) = {self.runs} "
            f"differential run(s) "
            f"(seed {self.seed}, capacity {self.capacity})"
        )
        if self.ok:
            return f"{head}\nok: engines match the oracle on every case"
        return f"{head}\n{self.divergence.describe()}"


def fuzz(
    policies: Iterable[str] | None = None,
    budget: int = 200,
    seed: int = 0,
    capacity: int = DEFAULT_CAPACITY,
    max_jobs: int = 12,
    shrink_evals: int = 3000,
) -> FuzzReport:
    """Run a differential campaign: ``budget`` workloads per policy.

    ``policies`` names :data:`FUZZ_POLICIES` entries; ``None`` runs every
    one.  Stops (and shrinks) at the first failing case; a clean report
    means every generated workload scheduled bit-identically on every
    engine and the oracle and passed every invariant, for every named
    configuration (see :func:`check_case`).
    """
    names = tuple(FUZZ_POLICIES if policies is None else policies)
    unknown = [p for p in names if p not in FUZZ_POLICIES]
    if unknown:
        raise KeyError(
            f"unknown fuzz policies {unknown}; available: {sorted(FUZZ_POLICIES)}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cases = runs = 0
    for case_index in range(budget):
        rng = np.random.default_rng((seed, case_index))
        workload = random_workload(rng, capacity=capacity, max_jobs=max_jobs)
        cases += 1
        for name in names:
            policy = FUZZ_POLICIES[name]
            runs += 1
            findings = check_case(workload, capacity, policy)
            if not findings:
                continue
            shrunk, evals = shrink(
                workload,
                lambda w: bool(check_case(w, capacity, policy)),
                max_evals=shrink_evals,
            )
            return FuzzReport(
                budget=budget,
                seed=seed,
                capacity=capacity,
                policies=names,
                cases=cases,
                runs=runs,
                divergence=Divergence(
                    policy=name,
                    seed=seed,
                    case_index=case_index,
                    findings=findings,
                    workload=shrunk,
                    original_n=workload.n,
                    shrink_evals=evals,
                ),
            )
    return FuzzReport(
        budget=budget,
        seed=seed,
        capacity=capacity,
        policies=names,
        cases=cases,
        runs=runs,
    )


def workload_to_trace(
    workload: SimWorkload, capacity: int, name: str = "fuzz-reproducer"
) -> Trace:
    """Wrap a fuzzed workload as a :class:`Trace` for SWF export.

    ``repro.cli fuzz`` writes the shrunk reproducer this way so it can be
    replayed with ``repro.cli simulate``.  Fuzzed times are integral, so
    the SWF integer fields lose nothing (a zero walltime becomes SWF's
    ``-1`` missing marker; reading it back falls back to the zero runtime,
    which is equivalent under the ``walltime >= runtime`` clamp).
    """
    n = workload.n
    frame = Frame(
        {
            "job_id": np.arange(n, dtype=np.int64),
            "user_id": workload.user.astype(np.int64),
            "submit_time": workload.submit.astype(float),
            "wait_time": np.zeros(n),
            "runtime": workload.runtime.astype(float),
            "cores": workload.cores.astype(np.int64),
            "req_walltime": workload.walltime.astype(float),
            "status": workload.status.astype(np.int64),
        }
    )
    system = SystemSpec(
        name=name,
        affiliation="repro.testkit",
        years="",
        job_count=n,
        nodes=capacity,
        cores=capacity,
        gpus=0,
        kind=SystemKind.HPC,
        resource=ResourceKind.CPU,
    )
    return Trace(
        system=system, jobs=frame, meta={"source": "repro.testkit.fuzz"}
    )
