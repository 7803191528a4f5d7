"""System specifications for the clusters in the paper's Table I.

Each :class:`SystemSpec` records the hardware scale and trace metadata the
paper reports, plus the selection criteria (large scale, user info, job
status, internal consistency) that drove the paper's choice of the five
target systems: Mira, Theta, Blue Waters, Philly, Helios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "ResourceKind",
    "SystemKind",
    "SystemSpec",
    "MIRA",
    "THETA",
    "BLUE_WATERS",
    "THETAGPU",
    "SUPERCLOUD",
    "PHILLY",
    "HELIOS",
    "ELASTICFLOW",
    "ALIBABA",
    "ALL_SYSTEMS",
    "TARGET_SYSTEMS",
]


class ResourceKind(enum.Enum):
    """What the canonical ``cores`` column counts on this system."""

    CPU = "cpu"
    GPU = "gpu"
    HYBRID = "hybrid"


class SystemKind(enum.Enum):
    """Workload class per the paper's taxonomy."""

    HPC = "hpc"
    DL = "dl"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class SystemSpec:
    """Static description of one cluster (one Table I row)."""

    name: str
    affiliation: str
    years: str
    job_count: int
    nodes: int
    cores: int
    gpus: int
    kind: SystemKind
    resource: ResourceKind
    #: Table I selection flags
    large_scale: bool = True
    has_user_info: bool = True
    has_job_status: bool = True
    info_consistent: bool = True
    #: exclusion note for systems the paper left out
    exclusion_reason: str = ""
    #: number of isolated virtual clusters (Philly-style partitioning)
    virtual_clusters: int = 0
    #: analysis window used by the paper (months), 0 = full trace
    window_months: int = 0
    notes: str = ""
    #: local-time offset (hours) of the facility, for diurnal plots
    tz_offset_hours: int = 0
    extras: dict = field(default_factory=dict, compare=False)

    @property
    def selected(self) -> bool:
        """True when the system passes all of Table I's selection criteria."""
        return (
            self.large_scale
            and self.has_user_info
            and self.has_job_status
            and self.info_consistent
        )

    @property
    def schedulable_units(self) -> int:
        """Total allocatable units of the canonical resource."""
        if self.resource is ResourceKind.GPU:
            return self.gpus
        if self.resource is ResourceKind.CPU:
            return self.cores
        return self.cores + self.gpus

MIRA = SystemSpec(
    name="Mira",
    affiliation="ALCF",
    years="2013~2019",
    job_count=750_000,
    nodes=49_152,
    cores=786_432,
    gpus=0,
    kind=SystemKind.HPC,
    resource=ResourceKind.CPU,
    window_months=4,
    notes="IBM BG/Q; analysis window 2019-08~2019-12",
    tz_offset_hours=-6,
)

THETA = SystemSpec(
    name="Theta",
    affiliation="ALCF",
    years="2017~2023",
    job_count=522_858,
    nodes=4_392,
    cores=281_088,
    gpus=0,
    kind=SystemKind.HPC,
    resource=ResourceKind.CPU,
    window_months=4,
    notes="Cray XC40; analysis window 2022-12~2023-05",
    tz_offset_hours=-6,
)

BLUE_WATERS = SystemSpec(
    name="Blue Waters",
    affiliation="NCSA",
    years="2013~2019",
    job_count=10_500_000,
    nodes=26_864,
    cores=396_000,
    gpus=4_228,
    kind=SystemKind.HYBRID,
    resource=ResourceKind.HYBRID,
    window_months=4,
    notes="Cray XE6/XK7 hybrid; analysis window 2019-08~2019-12",
    tz_offset_hours=-6,
)

THETAGPU = SystemSpec(
    name="ThetaGPU",
    affiliation="ALCF",
    years="2020~2023",
    job_count=135_975,
    nodes=24,
    cores=0,
    gpus=192,
    kind=SystemKind.DL,
    resource=ResourceKind.GPU,
    large_scale=False,
    exclusion_reason="cluster size (24 nodes) too small",
)

SUPERCLOUD = SystemSpec(
    name="Supercloud",
    affiliation="MIT",
    years="2021-01~2021-10",
    job_count=395_914,
    nodes=704,
    cores=32_000,
    gpus=448,
    kind=SystemKind.HYBRID,
    resource=ResourceKind.HYBRID,
    info_consistent=False,
    exclusion_reason=(
        "inconsistent info: jobs with requested nodes exceeding the "
        "reported 704-node total were scheduled"
    ),
)

PHILLY = SystemSpec(
    name="Philly",
    affiliation="Microsoft",
    years="2017-08~2017-12",
    job_count=117_325,
    nodes=552,
    cores=0,
    gpus=2_490,
    kind=SystemKind.DL,
    resource=ResourceKind.GPU,
    virtual_clusters=14,
    notes="DL training data center; fair-share over 14 virtual clusters",
    tz_offset_hours=-8,
)

HELIOS = SystemSpec(
    name="Helios",
    affiliation="Sensetime",
    years="2020-04~2020-09",
    job_count=3_300_000,
    nodes=802,
    cores=0,
    gpus=6_416,
    kind=SystemKind.DL,
    resource=ResourceKind.GPU,
    notes="DL R&D data center; max requested GPUs 2048",
    tz_offset_hours=8,
)

ELASTICFLOW = SystemSpec(
    name="Elasticflow",
    affiliation="Microsoft",
    years="2021-03~2021-05",
    job_count=69_351,
    nodes=0,
    cores=0,
    gpus=0,
    kind=SystemKind.DL,
    resource=ResourceKind.GPU,
    large_scale=False,
    has_user_info=False,
    has_job_status=False,
    exclusion_reason="too few jobs; missing user and status metadata",
)

ALIBABA = SystemSpec(
    name="Alibaba Cluster Trace",
    affiliation="Alibaba",
    years="2023",
    job_count=8_152,
    nodes=1_523,
    cores=107_018,
    gpus=6_212,
    kind=SystemKind.DL,
    resource=ResourceKind.GPU,
    large_scale=False,
    exclusion_reason="too few jobs (8,152)",
)

#: All Table I rows, in the paper's order.
ALL_SYSTEMS: tuple[SystemSpec, ...] = (
    MIRA,
    THETA,
    BLUE_WATERS,
    THETAGPU,
    SUPERCLOUD,
    PHILLY,
    HELIOS,
    ELASTICFLOW,
    ALIBABA,
)

#: The five systems the paper analyzes.
TARGET_SYSTEMS: tuple[SystemSpec, ...] = (
    MIRA,
    THETA,
    BLUE_WATERS,
    PHILLY,
    HELIOS,
)
