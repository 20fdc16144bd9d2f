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
  all-pairs critical-path matrix (one dense sweep, the paper's ``D[n][n]``).

The pure-Python oracle these primitives are checked against lives with the
tests (``tests/kernel/reference.py``).
"""

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
from repro.kernel.view import GraphView

__all__ = [
    "GraphView",
    "NOT_CONNECTED",
    "UNREACHED",
    "critical_path_matrix",
    "forward_propagate",
    "longest_path_from",
    "path_delay",
    "reachable_indices",
    "reachable_mask",
    "reconstruct_path",
]
