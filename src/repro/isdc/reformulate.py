"""Delay re-propagation for SDC reformulation (paper Algorithm 2).

After feedback lowers individual entries of the delay matrix, the estimates
of longer paths that *contain* the measured subgraphs are still the old,
over-conservative sums.  Algorithm 2 re-derives all pairwise estimates in
O(n^2) amortised work per node: a topological sweep recomputes the delay from
every node to ``v`` through ``v``'s operands (taking the worst operand, as a
critical path must), followed by a reverse sweep that propagates through
users to catch complementary paths.  Entries are only ever *lowered* --
pruning over-conservative timing constraints is the whole point.

:func:`floyd_warshall_refine` is the O(n^3) alternative the paper mentions:
it relaxes every pair through every single intermediate node.  It can lower
estimates more aggressively (and occasionally too aggressively, since a
single intermediate does not dominate all parallel paths); the reformulation
accuracy benchmark compares both against post-synthesis ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.isdc.delay_matrix import DelayMatrix
from repro.kernel import kernel_config
from repro.sdc.delays import NOT_CONNECTED


def propagate_delays(delay_matrix: DelayMatrix) -> int:
    """Re-propagate pairwise delays after feedback updates (Alg. 2 lines 1--16).

    The matrix is modified in place.

    Both sweeps run level-batched over the graph's shared kernel
    :class:`~repro.kernel.GraphView`: since every edge crosses a level
    boundary, all operand (resp. user) rows a level reads are final before
    the level is written, so one gathered ``max``-reduction per level lowers
    exactly the entries the historical per-node loops lowered.

    When the matrix carries its (static) connectivity pattern and the active
    :class:`~repro.kernel.KernelConfig` favours sparsity, the sweeps iterate
    over connected pairs only instead of whole ``n``-wide rows -- same
    entries lowered to the same values, a fraction of the work on large
    sparsely-connected designs.

    Returns:
        The total number of matrix entries that were lowered.
    """
    view = delay_matrix.view
    if kernel_config().wants_sparse(view.num_nodes):
        pattern = delay_matrix.connectivity_pattern()
        if pattern is not None:
            return (_sparse_forward_sweep(delay_matrix, view, pattern)
                    + _sparse_reverse_sweep(delay_matrix, view))
    return _dense_propagate(delay_matrix, view)


def _dense_propagate(delay_matrix: DelayMatrix, view) -> int:
    """The historical whole-row/column level-batched sweeps."""
    matrix = delay_matrix.matrix
    index_of = delay_matrix.index_of
    # Dense position -> matrix row/column (identity when the matrix was built
    # from the same view, but kept explicit so hand-constructed index maps
    # keep working).
    col_of = np.asarray([index_of[nid] for nid in view.order_ids()],
                        dtype=np.int64)
    changed = 0

    # Forward sweep: recompute the delay from every node u to v through v's
    # operands, using the (possibly feedback-lowered) delays to the operands.
    # Predecessor columns are folded positionally (first operand, second
    # operand, ...) with elementwise maxima -- in-degrees are small, so this
    # is a few whole-column operations per level.
    for level in range(1, view.num_levels):
        rows = view.level_nodes(level)
        starts = view.pred_indptr[rows]
        counts = view.pred_indptr[rows + 1] - starts
        columns = col_of[rows]
        own_delays = matrix[columns, columns]
        incoming = matrix[:, col_of[view.pred_indices[starts]]]
        best = np.where(incoming != NOT_CONNECTED, incoming + own_delays,
                        NOT_CONNECTED)
        for position in range(1, int(counts.max())):
            present = counts > position
            preds = col_of[view.pred_indices[starts[present] + position]]
            incoming = matrix[:, preds]
            candidates = np.where(incoming != NOT_CONNECTED,
                                  incoming + own_delays[present],
                                  NOT_CONNECTED)
            best[:, present] = np.maximum(best[:, present], candidates)
        best[columns, np.arange(columns.size)] = NOT_CONNECTED  # diagonal
        current = matrix[:, columns]
        improve = ((best != NOT_CONNECTED)
                   & ((current > best) | (current == NOT_CONNECTED)))
        count = int(improve.sum())
        if count:
            matrix[:, columns] = np.where(improve, best, current)
            changed += count

    # Reverse sweep: propagate through users to catch the complementary
    # direction (delays from u forward into each of its users' cones).
    for level in range(view.num_levels - 1, -1, -1):
        nodes = view.level_nodes(level)
        starts = view.succ_indptr[nodes]
        counts = view.succ_indptr[nodes + 1] - starts
        with_users = counts > 0
        if not with_users.any():
            continue
        nodes, starts, counts = nodes[with_users], starts[with_users], counts[with_users]
        rows = col_of[nodes]
        own_delays = matrix[rows, rows]
        outgoing = matrix[col_of[view.succ_indices[starts]], :]
        best = np.where(outgoing != NOT_CONNECTED,
                        outgoing + own_delays[:, None], NOT_CONNECTED)
        for position in range(1, int(counts.max())):
            present = counts > position
            users = col_of[view.succ_indices[starts[present] + position]]
            outgoing = matrix[users, :]
            candidates = np.where(outgoing != NOT_CONNECTED,
                                  outgoing + own_delays[present, None],
                                  NOT_CONNECTED)
            best[present] = np.maximum(best[present], candidates)
        best[np.arange(rows.size), rows] = NOT_CONNECTED  # diagonal
        current = matrix[rows, :]
        improve = ((best != NOT_CONNECTED)
                   & ((current > best) | (current == NOT_CONNECTED)))
        count = int(improve.sum())
        if count:
            matrix[rows, :] = np.where(improve, best, current)
            changed += count

    return changed


def _group_max(owners: np.ndarray, keys: np.ndarray, values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segmented max of ``values`` grouped by ``(owner, key)``.

    Returns the group owners, keys and maxima.  ``max`` is exact and
    order-independent, so the result is bit-identical to any positional
    fold over the same candidates.
    """
    grouping = np.lexsort((keys, owners))
    owners_sorted = owners[grouping]
    keys_sorted = keys[grouping]
    boundary = np.empty(owners_sorted.size, dtype=bool)
    boundary[0] = True
    np.logical_or(owners_sorted[1:] != owners_sorted[:-1],
                  keys_sorted[1:] != keys_sorted[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    return (owners_sorted[starts], keys_sorted[starts],
            np.maximum.reduceat(values[grouping], starts))


def _sparse_forward_sweep(delay_matrix: DelayMatrix, view, pattern) -> int:
    """Forward Alg. 2 sweep over connected pairs only.

    For a node ``v``, the dense sweep maximises ``D[u][p] + D[v][v]`` over
    operands ``p`` for *every* row ``u``; but the candidate is real only
    when ``u`` reaches ``p``, i.e. for the ancestors listed in ``p``'s
    pattern row.  Gathering exactly those entries per level reproduces the
    dense sweep's lowered values bit-for-bit (same additions, same maxima).
    """
    matrix = delay_matrix.matrix
    index_of = delay_matrix.index_of
    col_of = np.asarray([index_of[nid] for nid in view.order_ids()],
                        dtype=np.int64)
    pat_indptr, pat_indices = pattern.indptr, pattern.indices
    pred_indptr, pred_indices = view.pred_indptr, view.pred_indices
    changed = 0
    for level in range(1, view.num_levels):
        nodes = view.level_nodes(level)
        parts_u: list[np.ndarray] = []
        parts_val: list[np.ndarray] = []
        part_owner: list[int] = []
        part_len: list[int] = []
        for v in nodes:
            column = col_of[v]
            own_delay = matrix[column, column]
            for slot in range(pred_indptr[v], pred_indptr[v + 1]):
                pred = pred_indices[slot]
                ancestors = pat_indices[pat_indptr[pred]:pat_indptr[pred + 1]]
                parts_u.append(ancestors)
                parts_val.append(matrix[col_of[ancestors], col_of[pred]]
                                 + own_delay)
                part_owner.append(v)
                part_len.append(ancestors.size)
        if not parts_u:
            continue
        owners = np.repeat(np.asarray(part_owner, dtype=np.int64),
                           np.asarray(part_len, dtype=np.int64))
        group_v, group_u, best = _group_max(owners, np.concatenate(parts_u),
                                            np.concatenate(parts_val))
        rows = col_of[group_u]
        cols = col_of[group_v]
        current = matrix[rows, cols]
        improve = current > best  # connected pairs: current is never NC
        count = int(improve.sum())
        if count:
            matrix[rows[improve], cols[improve]] = best[improve]
            changed += count
    return changed


def _sparse_reverse_sweep(delay_matrix: DelayMatrix, view) -> int:
    """Reverse Alg. 2 sweep over connected pairs only.

    Mirrors :func:`_sparse_forward_sweep` through users: for node ``u`` and
    user ``s``, candidates ``D[s][w] + D[u][u]`` exist exactly for the
    descendants ``w`` in ``s``'s transposed pattern row.
    """
    matrix = delay_matrix.matrix
    index_of = delay_matrix.index_of
    col_of = np.asarray([index_of[nid] for nid in view.order_ids()],
                        dtype=np.int64)
    t_indptr, t_indices, _t_data = delay_matrix.descendant_pattern()
    succ_indptr, succ_indices = view.succ_indptr, view.succ_indices
    changed = 0
    for level in range(view.num_levels - 1, -1, -1):
        nodes = view.level_nodes(level)
        parts_w: list[np.ndarray] = []
        parts_val: list[np.ndarray] = []
        part_owner: list[int] = []
        part_len: list[int] = []
        for u in nodes:
            row = col_of[u]
            own_delay = matrix[row, row]
            for slot in range(succ_indptr[u], succ_indptr[u + 1]):
                user = succ_indices[slot]
                descendants = t_indices[t_indptr[user]:t_indptr[user + 1]]
                parts_w.append(descendants)
                parts_val.append(matrix[col_of[user], col_of[descendants]]
                                 + own_delay)
                part_owner.append(u)
                part_len.append(descendants.size)
        if not parts_w:
            continue
        owners = np.repeat(np.asarray(part_owner, dtype=np.int64),
                           np.asarray(part_len, dtype=np.int64))
        group_u, group_w, best = _group_max(owners, np.concatenate(parts_w),
                                            np.concatenate(parts_val))
        rows = col_of[group_u]
        cols = col_of[group_w]
        current = matrix[rows, cols]
        improve = current > best
        count = int(improve.sum())
        if count:
            matrix[rows[improve], cols[improve]] = best[improve]
            changed += count
    return changed


def floyd_warshall_refine(delay_matrix: DelayMatrix) -> int:
    """O(n^3) refinement relaxing every pair through every intermediate node.

    For every intermediate ``w``, the delay of a path from ``u`` to ``v``
    through ``w`` is bounded by ``D[u][w] + D[w][v] - d(w)`` (``w``'s own
    delay would otherwise be counted twice).  Entries are lowered to that
    bound where it is smaller.  The matrix is modified in place.

    Returns:
        The total number of matrix entries that were lowered.
    """
    matrix = delay_matrix.matrix
    size = matrix.shape[0]
    changed = 0
    diagonal = matrix.diagonal().copy()
    for w in range(size):
        to_w = matrix[:, w]
        from_w = matrix[w, :]
        valid = (to_w[:, None] != NOT_CONNECTED) & (from_w[None, :] != NOT_CONNECTED)
        if not valid.any():
            continue
        candidates = to_w[:, None] + from_w[None, :] - diagonal[w]
        current = matrix
        improve = valid & (current > candidates) & (current != NOT_CONNECTED)
        np.fill_diagonal(improve, False)
        count = int(improve.sum())
        if count:
            matrix[improve] = candidates[improve]
            changed += count
    return changed
