"""Multi-timescale activity pattern extraction from bilateral transaction data.

The toolkit turns a time-stamped transaction log (or a synthetic market with
known structure) into a nonnegative banks x intervals x days tensor, fits a
nonnegative CP decomposition to it by alternating NNLS, selects the number of
components with the core consistency diagnostic, and post-processes the fitted
factors into interpretable activity reports.
"""

__version__ = "0.1.0"

from tempofact.tensor import (
    DenseTensor3,
    KruskalTensor,
    khatri_rao,
    matricize,
    reconstruct,
)
from tempofact.nnls import NnlsProblem, NnlsSolution, solve_nnls
from tempofact.als import FitConfig, FitError, FitResult, fit_best, fit_once, fit_restarts
from tempofact.corcondia import (
    CoreTensor,
    DegenerateFactorError,
    RankScanRecord,
    RankScanReport,
    core_consistency,
    rank_scan,
    tucker_core,
)
from tempofact.synthetic import GroundTruth, SyntheticConfig, generate, generate_with_log
from tempofact.ingest import (
    Ledger,
    TensorIndex,
    build_tensor,
    filter_overnight,
    load_transactions,
    moving_average,
)

__all__ = [
    "DenseTensor3",
    "KruskalTensor",
    "khatri_rao",
    "matricize",
    "reconstruct",
    "NnlsProblem",
    "NnlsSolution",
    "solve_nnls",
    "FitConfig",
    "FitError",
    "FitResult",
    "fit_best",
    "fit_once",
    "fit_restarts",
    "CoreTensor",
    "DegenerateFactorError",
    "RankScanRecord",
    "RankScanReport",
    "core_consistency",
    "rank_scan",
    "tucker_core",
    "GroundTruth",
    "SyntheticConfig",
    "generate",
    "generate_with_log",
    "Ledger",
    "TensorIndex",
    "build_tensor",
    "filter_overnight",
    "load_transactions",
    "moving_average",
]
