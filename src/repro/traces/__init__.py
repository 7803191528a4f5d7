"""Job-trace layer: schema, system specs, SWF I/O, validation, generators."""

from .categorize import (
    LENGTH_EDGES,
    LENGTH_LABELS,
    SIZE_LABELS,
    length_class,
    minimal_runtime_mask,
    minimal_size_mask,
    size_class,
    size_class_edges,
    trace_length_class,
    trace_size_class,
)
from .schema import CANONICAL_COLUMNS, JobStatus, Trace
from .mixing import mix_traces
from .swf import read_swf, write_swf
from .systems import (
    ALL_SYSTEMS,
    BLUE_WATERS,
    HELIOS,
    MIRA,
    PHILLY,
    TARGET_SYSTEMS,
    THETA,
    ResourceKind,
    SystemKind,
    SystemSpec,
)
from .validate import ValidationIssue, ValidationReport, validate_trace

__all__ = [
    "Trace",
    "JobStatus",
    "CANONICAL_COLUMNS",
    "SystemSpec",
    "SystemKind",
    "ResourceKind",
    "ALL_SYSTEMS",
    "TARGET_SYSTEMS",
    "MIRA",
    "THETA",
    "BLUE_WATERS",
    "PHILLY",
    "HELIOS",
    "read_swf",
    "write_swf",
    "mix_traces",
    "validate_trace",
    "ValidationReport",
    "ValidationIssue",
    "size_class",
    "length_class",
    "size_class_edges",
    "trace_size_class",
    "trace_length_class",
    "minimal_size_mask",
    "minimal_runtime_mask",
    "SIZE_LABELS",
    "LENGTH_LABELS",
    "LENGTH_EDGES",
]
