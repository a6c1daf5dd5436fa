"""Exact bottleneck-throughput calculus for serial pipelines.

Throughput of an ordered set of stages is the minimum stage capacity; this
package computes it exactly (rational arithmetic throughout), classifies
what stagewise multiplicative improvements do to it, derives the ceilings
imposed by unimprovable stages, compares attacker and defender pipelines,
models useful alert throughput under false positives, allocates improvement
budgets, and cross-checks every one of those claims against brute-force
recomputation on seeded random instances.
"""

from .adversarial import (
    InternalCheckError,
    RatioReport,
    defender_misses_bottleneck,
    ratio_report,
)
from .ceiling import (
    AuthoritySpec,
    ConfigurationError,
    UndefinedCeilingError,
    ceiling,
    generalized_ceiling,
    is_h_admissible,
    tightness_witness,
)
from .characterize import (
    CharacterizationVerdict,
    MigrationDecomposition,
    Outcome,
    PerturbationClassification,
    PreservationReport,
    classify,
    migration_decomposition,
    preservation_report,
    verify_characterizations,
)
from .documents import (
    DocumentError,
    PipelineDocument,
    document_for_pipeline,
    load_document,
    parse_document,
    serialize_document,
)
from .falsepos import (
    ConstantPrecision,
    DeclineVerdict,
    DomainError,
    FixedFractionModel,
    PlateauVerdict,
    RationalDecayPrecision,
    TablePrecision,
    decline_check,
    plateau_check,
    repaired_useful,
    simple_useful,
)
from .harness import (
    GeneratorConfig,
    HarnessVerdict,
    generate_instance,
    structured_report,
    text_report,
    verify_all,
)
from .model import (
    AdmissibilityError,
    BottleneckReport,
    Multiplier,
    Pipeline,
    PipelineValidationError,
    ValidationReport,
    bottleneck_report,
    bottleneck_set,
    perturb,
    perturbed_throughput,
    throughput,
    validate_pipeline,
)
from .planner import (
    AllocationResult,
    CostModel,
    TiedBottleneckError,
    maxmin_allocation,
    trivial_allocation,
)

__version__ = "0.1.0"
