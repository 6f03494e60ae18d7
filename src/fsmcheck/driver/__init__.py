from .catalog import (
    FATAL, CatalogError, FailureCatalog, FailureEntry, MatrixError,
    TargetModeMatrix, load_failure_catalog, load_target_matrix,
)
from .inject import (
    InstantiationError, ModelInstance, injection_assertions, instance_system,
    instantiate_model,
)
from .plan import BatchPlan, PlannedTask, PlanRangeError, plan_batch
from .report import format_report_text, report_to_obj, write_report
from .runner import BatchReport, SpecResult, TaskResult, run_batch, run_unit
from .specs import (
    SpecCatalog, SpecEntry, SpecFileError, load_spec_catalog, parse_spec_file,
)

__all__ = [
    "FailureCatalog", "FailureEntry", "TargetModeMatrix", "FATAL",
    "load_failure_catalog", "load_target_matrix", "CatalogError", "MatrixError",
    "SpecCatalog", "SpecEntry", "SpecFileError", "parse_spec_file",
    "load_spec_catalog",
    "BatchPlan", "PlannedTask", "PlanRangeError", "plan_batch",
    "ModelInstance", "instantiate_model", "instance_system",
    "injection_assertions", "InstantiationError",
    "BatchReport", "TaskResult", "SpecResult", "run_batch", "run_unit",
    "write_report", "report_to_obj", "format_report_text",
]
