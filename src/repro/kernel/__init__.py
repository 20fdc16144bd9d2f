"""repro.kernel: the unified vectorized graph/timing kernel.

One shared, array-based timing substrate queried by every layer that used to
hand-roll its own dict/set traversal: the IR analyses (:mod:`repro.ir`), the
netlist STA (:mod:`repro.netlist.sta`), the SDC delay matrix
(:mod:`repro.sdc.delays`), the ISDC re-propagation and extraction scans
(:mod:`repro.isdc`), the estimator backend (:mod:`repro.synth`) and the AIG
depth metric (:mod:`repro.aig`).

* :class:`GraphView` -- an immutable levelized-CSR view of any DAG, cached on
  the container and invalidated by its ``structural_version`` counter.
* :mod:`repro.kernel.ops` -- level-batched numpy primitives: forward
  propagation, single-source longest paths, frontier reachability and the
  all-pairs critical-path matrix.
* :mod:`repro.kernel.sparse` -- the frontier-compressed sparse all-pairs
  sweep plus :func:`auto_critical_path_matrix`, the density-based
  dense/sparse dispatcher.
* :mod:`repro.kernel.config` -- the process-wide :class:`KernelConfig`
  (sparse-vs-dense cutover) with ``REPRO_KERNEL_*`` environment overrides.
* :mod:`repro.kernel.reference` -- the historical pure-Python algorithms,
  kept as the executable specification the parity tests and the
  ``bench-kernel`` CI gate diff against.
* :mod:`repro.kernel.bench` -- the old-vs-new micro-benchmark behind
  ``BENCH_kernel.json`` (``python -m repro.kernel.bench``).
"""

from repro.kernel.config import (
    HAVE_SCIPY,
    KernelConfig,
    kernel_config,
    set_kernel_config,
)
from repro.kernel.ops import (
    NOT_CONNECTED,
    UNREACHED,
    critical_path_matrix,
    forward_propagate,
    longest_path_from,
    path_delay,
    reachable_indices,
    reachable_mask,
    reconstruct_path,
)
from repro.kernel.sparse import (
    SparseMatrix,
    auto_critical_path_matrix,
    sparse_critical_path_matrix,
)
from repro.kernel.view import GraphView

__all__ = [
    "GraphView",
    "HAVE_SCIPY",
    "KernelConfig",
    "NOT_CONNECTED",
    "SparseMatrix",
    "UNREACHED",
    "auto_critical_path_matrix",
    "critical_path_matrix",
    "forward_propagate",
    "kernel_config",
    "longest_path_from",
    "path_delay",
    "reachable_indices",
    "reachable_mask",
    "reconstruct_path",
    "set_kernel_config",
    "sparse_critical_path_matrix",
]
