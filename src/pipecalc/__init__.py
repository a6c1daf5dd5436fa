"""Exact bottleneck-throughput calculus for serial pipelines.

Throughput of an ordered set of stages is the minimum stage capacity; this
package computes it exactly (rational arithmetic throughout), classifies
what stagewise multiplicative improvements do to it, derives the ceilings
imposed by unimprovable stages, compares attacker and defender pipelines,
models useful alert throughput under false positives, allocates improvement
budgets, and cross-checks every one of those claims against brute-force
recomputation on seeded random instances.

`characterize`, `falsepos`, `harness` and `planner`, and the names this
package takes from them, are imported on first access (PEP 562), so that a
command line loads only the modules its subcommand runs.
"""

from .adversarial import RatioReport, defender_misses_bottleneck, ratio_report
from .ceiling import (
    AuthoritySpec,
    ConfigurationError,
    UndefinedCeilingError,
    ceiling,
    generalized_ceiling,
    is_h_admissible,
    tightness_witness,
)
from .documents import (
    DocumentError,
    PipelineDocument,
    document_for_pipeline,
    load_document,
    parse_document,
    serialize_document,
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

# each name imported on first access, and the module that defines it
_LAZY = {
    name: module
    for module, names in {
        "characterize": "CharacterizationVerdict MigrationDecomposition Outcome "
                        "PerturbationClassification PreservationReport classify "
                        "migration_decomposition preservation_report "
                        "verify_characterizations",
        "falsepos": "ConstantPrecision DeclineVerdict DomainError FixedFractionModel "
                    "PlateauVerdict RationalDecayPrecision TablePrecision "
                    "decline_check plateau_check repaired_useful simple_useful",
        "harness": "GeneratorConfig HarnessVerdict generate_instance "
                   "structured_report text_report verify_all",
        "planner": "AllocationResult CostModel TiedBottleneckError "
                   "maxmin_allocation trivial_allocation",
    }.items()
    for name in (module, *names.split())
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


__version__ = "0.1.0"
