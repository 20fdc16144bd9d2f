"""Runtime configuration of the kernel's sparse matrix path.

One process-wide :class:`KernelConfig` decides, for every consumer at once,
whether the all-pairs delay matrix is built by the dense level-batched sweep
or the sparse frontier-compressed one (``matrix_mode``), and where the
automatic density cutover sits (``density_threshold`` /
``min_sparse_nodes``).

Every knob has an environment override so campaigns and CI can flip paths
without code changes::

    REPRO_KERNEL_MATRIX=dense|sparse|auto   (default auto)
    REPRO_KERNEL_DENSITY=0.25               (auto cutover, fraction of n^2)
    REPRO_KERNEL_MIN_SPARSE_NODES=512       (below this, dense always wins)

Both paths are bit-identical by construction (enforced by the
``tests/kernel`` parity suites and the bench divergence gate), so flipping
these knobs can only ever change speed, never results.

scipy is optional here: the sparse sweep itself is pure numpy, scipy.sparse
is only used to *export* results (:meth:`~repro.kernel.sparse.SparseMatrix.
to_scipy`), so everything in this package keeps working when scipy is
absent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

try:  # pragma: no cover - exercised implicitly by every import
    from scipy import sparse as _scipy_sparse  # noqa: F401
    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is an optional accelerator
    HAVE_SCIPY = False

_MATRIX_MODES = ("auto", "dense", "sparse")


@dataclass(frozen=True)
class KernelConfig:
    """Knobs of the kernel's sparse matrix sweep.

    Attributes:
        matrix_mode: ``"auto"`` picks sparse when the graph is large and the
            connectivity stays under ``density_threshold`` (the sweep aborts
            to dense past the budget); ``"dense"``/``"sparse"`` force a path.
        density_threshold: connected-pair budget of the auto mode, as a
            fraction of ``n^2``; the sparse sweep gives up and the dense
            kernel takes over once the budget is exceeded.
        min_sparse_nodes: graphs below this node count always use the dense
            sweep (the sparse bookkeeping only pays off at scale).
    """

    matrix_mode: str = "auto"
    density_threshold: float = 0.25
    min_sparse_nodes: int = 512

    def __post_init__(self) -> None:
        if self.matrix_mode not in _MATRIX_MODES:
            raise ValueError(f"matrix_mode must be one of {_MATRIX_MODES}, "
                             f"got {self.matrix_mode!r}")
        if not 0.0 < self.density_threshold <= 1.0:
            raise ValueError("density_threshold must be in (0, 1]")
        if self.min_sparse_nodes < 0:
            raise ValueError("min_sparse_nodes must be non-negative")

    # ------------------------------------------------------------- decisions

    def wants_sparse(self, num_nodes: int) -> bool:
        """Should the matrix sweep even *attempt* the sparse path?"""
        if self.matrix_mode == "dense":
            return False
        if self.matrix_mode == "sparse":
            return True
        return num_nodes >= self.min_sparse_nodes

    def nnz_budget(self, num_nodes: int) -> int:
        """Connected-pair budget past which the auto sweep falls back."""
        if self.matrix_mode == "sparse":
            return num_nodes * num_nodes  # forced: never abort
        return int(self.density_threshold * num_nodes * num_nodes)


def _config_from_env(env: dict[str, str] | None = None) -> KernelConfig:
    """Build a :class:`KernelConfig` from environment overrides."""
    env = os.environ if env is None else env
    base = KernelConfig()
    matrix_mode = env.get("REPRO_KERNEL_MATRIX", base.matrix_mode).lower()
    try:
        return KernelConfig(
            matrix_mode=matrix_mode,
            density_threshold=float(env.get("REPRO_KERNEL_DENSITY",
                                            base.density_threshold)),
            min_sparse_nodes=int(env.get("REPRO_KERNEL_MIN_SPARSE_NODES",
                                         base.min_sparse_nodes)),
        )
    except ValueError as error:
        raise ValueError(f"invalid REPRO_KERNEL_* environment override: "
                         f"{error}") from error


_ACTIVE: KernelConfig = _config_from_env()


def kernel_config() -> KernelConfig:
    """The process-wide active configuration."""
    return _ACTIVE


def set_kernel_config(config: KernelConfig | None = None, **overrides
                      ) -> KernelConfig:
    """Replace (or tweak) the active configuration; returns the new one.

    ``set_kernel_config()`` with no arguments re-reads the environment.
    """
    global _ACTIVE
    if config is None:
        config = _config_from_env()
    if overrides:
        config = replace(config, **overrides)
    _ACTIVE = config
    return _ACTIVE
