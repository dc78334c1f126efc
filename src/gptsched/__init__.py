"""Deterministic resource allocation and cluster simulation for GPT
inference requests: three greedy schedulers (utilization-maximizing,
load-balancing, power-efficient), objective metrics, a demand profiler, a
linear power model, a discrete-event timeline simulator with autoscaling,
and seeded synthetic workload tooling.
"""

from .config import ExperimentConfig, default_config, load_cluster_config
from .metrics import (
    IntegrityError,
    Report,
    UndefinedMetricError,
    build_report,
    mean_compute_utilization,
    per_resource_mean_utilization,
    utilization_stddev,
)
from .model import (
    TOLERANCE,
    ConfigError,
    GptRequest,
    GptSchedError,
    InvalidCapacityError,
    Node,
    NodeTemplate,
    NotAllocatedError,
    ResourceVector,
    TaskKind,
    Threshold,
    UtilizationVector,
    ValidationError,
    release_from_node,
)
from .power import (
    DEFAULT_POWER_POLICY,
    PowerMode,
    PowerPolicy,
    node_power,
    total_power,
)
from .profiler import (
    DEFAULT_COEFFICIENTS,
    ProfilerCoefficients,
    UnprofilableRequestError,
    estimate_demand,
)
from .scheduling import (
    ALGORITHMS,
    AllocationOutcome,
    DecisionRecord,
    NodeIdSequence,
    SchedulerConfig,
    schedule_load_balance,
    schedule_max_util,
    schedule_power_efficient,
)
from .reportio import (
    canonical_json,
    format_float,
    report_to_dict,
    write_comparison,
    write_outcome_document,
    write_report,
)
from .simulator import (
    AdaptorPolicy,
    EventKind,
    SimEvent,
    SnapshotRow,
    TimelineResult,
    run_batch,
    run_timeline,
)
from .workload import (
    DEFAULT_GENERATOR_SPEC,
    GeneratorSpec,
    LognormalSpec,
    SplitMix64,
    TraceParseError,
    generate_synthetic,
    load_trace,
    read_trace,
    request_from_dict,
    request_to_dict,
    trace_to_string,
    write_trace,
)

__version__ = "0.1.0"
