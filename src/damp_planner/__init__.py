"""Frequency-domain stability analysis and damping-compensation planning
for multi-inverter AC networks."""

__version__ = "0.1.0"

from .dq_core import (
    FrequencyGrid,
    PoleHitError,
    TransferElement,
    evaluate,
)
from .component_models import (
    ADParams,
    AdmittanceTable,
    CapacitorParams,
    GridImpedanceParams,
    InverterParams,
    PiCableParams,
    RlBranchParams,
    ad_scalar,
    cap_block,
    inverter_block,
    rl_block,
)
from .network_assembly import (
    Branch,
    InvalidNetworkError,
    NetworkGraph,
    Shunt,
    SingularBranchError,
    assemble,
    assemble_grid,
    validate,
)
from .stability_engine import (
    BisectionError,
    CrossoverEvent,
    DefectiveMatrixWarning,
    EigenSample,
    EigenTrace,
    EigNonConvergenceError,
    Spectrum,
    StabilityReport,
    analyze,
    assess,
    eig_lr,
    eig_lr_batch,
    locate_crossings,
    nyquist_winding,
    refine_crossovers,
    sweep,
    track,
)
from .compensation_planner import (
    CalibrationInfeasibleError,
    CompensationCoefficient,
    CompensationPlan,
    DegenerateEigenvalueWarning,
    PlanInfeasibleError,
    calibrate_ad,
    compensation_coefficient,
    compensation_table,
    plan,
    rank_locations,
    verify_with_ad,
)
from .cli_reporting import (
    NetworkFileError,
    ReportDocument,
    RunConfig,
    emit_fixture,
    load_network,
    run_command,
)
