"""The depth-first search of the bigrading search (stages `singular_pencil_dfs` and `dfs`).

When dim C^1 = 2 and every member of the pencil is degenerate, the
search is seeded with the members' kernels (`twostep._pencil_structure`);
when dim C^1 >= 3, or the pencil is regular and the direct constructions
found nothing, with the kernels of degenerate combinations of the forms
(`_generic_seeds`).  It looks for h commuting generators transverse to
their conjugates over the exactly solved commutation constraint spaces
(`_dfs_u`), within the coefficients, depth and node budget of a
`bigrading.SearchBounds`.  The candidates come in blocks of one, two or
three pool rows (`_candidate_blocks`, `_block_terms`).  U is returned as
the exact vectors ``(row, den)`` chosen, on the kernel's Z[i] rows.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations, repeat

from . import kernel, twostep
from .exact import RowReducer
from .liealg import _identity


def _generic_seeds(frame: twostep._TwoStepFrame) -> list[list[tuple[kernel.ZiRow, int]]]:
    """Degenerate-combination kernel groups for commutator dimension >= 3.

    The members tried are each form, then F_s + F_t and F_s - F_t for s < t.
    """
    units = [tuple(int(s == t) for s in range(frame.c1.dim)) for t in range(frame.c1.dim)]
    combos = units + [
        tuple(x + sign * y for x, y in zip(units[s], units[t]))
        for s, t in combinations(range(frame.c1.dim), 2)
        for sign in (1, -1)
    ]
    groups = []
    for null in twostep._kernel_groups(frame, combos):
        groups.append(null)
        if sum(len(g) for g in groups) >= 4 * frame.v:
            break
    return groups


def _dfs_u(frame: twostep._TwoStepFrame, groups, w, bounds):
    """Depth-first search for h commuting generators transverse to conjugates.

    The commutation constraints against already-chosen generators are linear,
    so each level enumerates bounded combinations of exactly computed
    constraint spaces.  Candidates are drawn first from intersections with
    covariant invariant subspaces (degenerate pencil-member kernels and
    kernels/images of powers of the pencil operator), which keeps the search
    effective under arbitrary rational changes of basis.  Since every later
    generator must commute with every earlier one, the whole subspace U lies
    inside each constraint space, so branches whose constraint space drops
    below dimension h are pruned.

    ``groups`` are groups of seeds and ``w`` the pencil operator or None, as
    `twostep._pencil_structure` returns them; with no pencil, `_generic_seeds`
    and None.  ``bounds``, a `bigrading.SearchBounds`, gives the
    coefficients, the depth and the node budget.  Every vector is an exact vector, and every subspace is kept as
    its reduced basis.  A child's constraints are its parent's and those of
    its last generator.  So a node inherits its parent's constraint space,
    the meets of that space with each invariant subspace and the seeds that
    satisfy its parent's constraints, and cuts each with the new rows only
    (`kernel.null_space_within`, which gives the same reduced basis as the
    null space of all the rows); the root's spaces are V and the invariant
    subspaces, and every seed is alive there.  New rows that vanish on the
    constraint space vanish on each meet and seed too, so such a node keeps
    all it inherits.

    A candidate is a bounded combination of a node's pool rows, tested on
    the combination of their residuals modulo the generators chosen and
    their conjugates.  The residuals of the pool rows are computed once per
    node, and those of their conjugates only when a candidate that could
    pass first names the row.  The candidates come in blocks, one per pool
    row, pair and triple (`_candidate_blocks`); every candidate of a block
    names the same rows.  When all of them have zero residuals, the block
    spends its size off the budget, stopping where the budget does, with one
    `RowReducer.add` on the empty row per candidate on one shared empty
    reducer, and no candidate of it is listed.  The others are listed
    (`_block_terms`), and each is tested directly: its combined residuals
    r1 and r2, of the candidate and of its conjugate, must span a plane
    (`kernel.zi_plane`), which forms no echelon and divides out no content.
    Only a candidate that passes is formed.  Each listed candidate makes
    the `add` calls that a fresh reducer of r1 and r2 would take, on the
    same shared empty reducer: one, and a second when r1 is not zero.  So
    the count of those calls, which perfbench reads as the nodes searched,
    is the same as when every candidate was tested on a reducer of its
    own.  U is returned as the exact vectors chosen.
    """
    v, h = frame.v, frame.h
    seeds = [vec for grp in groups for vec in grp]
    spans = [[row for row, _ in grp] for grp in groups]
    if w is not None:
        w_rows, d = w
        for power in accumulate(repeat(w_rows, h), kernel.zi_matmul):
            # The kernel of W^k, and its image, spanned by its columns, k = 1 .. h.
            columns = [
                {r: row[j] for r, row in enumerate(power) if j in row} for j in range(v)
            ]
            spans += [[row for row, _ in kernel.null_space(power, v, "Qi")], columns]
        orbit: list[tuple[kernel.ZiRow, int]] = []
        for row, den in seeds + list(_identity(v)):
            for _ in range(h - 1):
                row = kernel.zi_matvec(w_rows, row)
                if not row:
                    break
                row, den = vec = kernel.zi_lowest(row, den * d)
                if vec not in orbit and vec not in seeds:
                    orbit.append(vec)
        seeds = seeds + orbit[: 4 * v]
    # Each invariant subspace S with 0 < dim S < v, once, as its reduced
    # basis: equal subspaces have equal reduced bases.
    invariants: list[list[tuple[kernel.ZiRow, int]]] = []
    for rows in spans:
        basis = kernel.span(rows, v, "Qi")
        if 0 < len(basis) < v and basis not in invariants:
            invariants.append(basis)
    # Small invariant subspaces are the strongest anchors: any commuting
    # family is forced to meet the pencil radical, so explore those first.
    invariants = sorted(invariants, key=len)[:8]
    budget = [bounds.max_nodes]
    coeffs = [c for c in bounds.coefficients if c]

    # Every candidate makes its `add`s on the empty row, which leaves this
    # reducer empty.
    add_empty = RowReducer(v).add
    no_row: kernel.ZiRow = {}

    def rec(chosen, red: RowReducer, constraints, spaces, alive, new):
        # ``chosen`` holds the generators as ``(row, den)``, and ``red`` them
        # and their conjugates, spanning S.  The node inherits its parent's
        # commutation ``constraints``, ``spaces`` (their null space, then its
        # meets with each invariant subspace) and the seeds ``alive`` that
        # satisfy them; the rows ``new`` of the last generator cut all three.
        # A candidate u is independent of the generators when rho(u) and
        # rho(conj u) span a plane, for the linear reduction rho modulo S
        # (`kernel.zi_residual`); `kernel.zi_plane` tests that on the two
        # combined residuals, with no reducer.  perfbench counts the `add`s
        # on the empty row as the nodes searched.
        if len(chosen) == h:
            return chosen
        space = kernel.null_space_within(spaces[0], new, "Qi")
        if len(space) < h:
            return None
        if space is not spaces[0]:
            # Every meet and every seed alive lies in the parent's space,
            # so new rows that vanish on it keep them all.
            spaces = [space] + [kernel.null_space_within(meet, new, "Qi") for meet in spaces[1:]]
            alive = [vec for vec in alive if not kernel.zi_matvec(new, vec[0])]
        constraints = constraints + new
        rows, den = _complex_pool(w, constraints, space, spaces[1:], chosen, alive)
        res = [kernel.zi_residual(row, red.rows) for row in rows]
        res_conj: list = [None] * len(rows)
        live = {i for i, r in enumerate(res) if r}
        for block, size in _candidate_blocks(len(rows), bounds.depth, len(coeffs)):
            if live.isdisjoint(block):
                taken = min(size, budget[0])
                budget[0] -= taken
                for _ in repeat(None, taken):
                    add_empty(no_row)
                if taken < size:
                    return None
                continue
            for i in block:
                if res_conj[i] is None:
                    res_conj[i] = kernel.zi_residual(kernel.zi_conj(rows[i]), red.rows)
            for terms in _block_terms(block, coeffs):
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                # The calls that a reducer of rho(u) and rho(conj u) would take:
                # one, and a second when rho(u) is not zero.
                add_empty(no_row)
                first = kernel.zi_combine(*[(c, res[i]) for c, i in terms])
                if not first:
                    continue
                add_empty(no_row)
                second = kernel.zi_combine(*[((cr, -ci), res_conj[i]) for (cr, ci), i in terms])
                if not kernel.zi_plane(first, second):
                    continue
                cand = kernel.zi_combine(*((c, rows[i]) for c, i in terms))
                grown = red.copy()
                grown.add(cand)
                grown.add(kernel.zi_conj(cand))
                result = rec(
                    chosen + [(cand, den)], grown, constraints, spaces, alive,
                    frame.commutant_rows([cand]),
                )
                if result is not None:
                    return result
        return None

    # The root's constraint space is all of V, its meets the invariant
    # subspaces themselves, and every seed satisfies its (no) constraints.
    return rec([], RowReducer(v), [], [list(_identity(v))] + invariants, seeds, [])


def _complex_pool(w, constraints, space, meets, chosen, alive):
    """The pool of a depth-first search node as Z[i] rows over one denominator ``(rows, den)``.

    In order, without repeats: the images under the pencil operator ``w``
    (``(rows, den)`` or None) of the generators ``chosen`` that satisfy the
    node's ``constraints``, the vectors of each meet that is neither 0 nor
    the whole ``space``, the seeds ``alive`` that satisfy the constraints,
    and the reduced basis of ``space``.
    """
    pool: list[tuple[kernel.ZiRow, int]] = []

    def push(vec):
        if vec not in pool:
            pool.append(vec)

    if w is not None:
        w_rows, d = w
        for row, den in chosen:
            img = kernel.zi_matvec(w_rows, row)
            if img and not kernel.zi_matvec(constraints, img):
                push(kernel.zi_lowest(img, den * d))
    for meet in meets:
        if 0 < len(meet) < len(space):
            for vec in meet:
                push(vec)
    for vec in alive:
        push(vec)
    for vec in space:
        push(vec)
    return kernel.zi_common(pool)


def _candidate_blocks(n: int, depth: int, k: int):
    """The blocks of the search's candidates over a pool of ``n`` rows, in the search order.

    Yields each block as the tuple of pool indices that its candidates
    combine and its size, for ``k`` nonzero coefficients: each index alone
    (one candidate), then at depth >= 2 each ordered pair of distinct
    indices (2k), then at depth >= 3 each increasing triple (2k^2).
    `_block_terms` lists the candidates of a block, and the blocks'
    candidates in turn are every candidate of the search, in its order.
    """
    for a in range(n):
        yield (a,), 1
    if depth >= 2:
        for block in permutations(range(n), 2):
            yield block, 2 * k
    if depth >= 3:
        for block in combinations(range(n), 3):
            yield block, 2 * k * k


def _block_terms(block: tuple[int, ...], coeffs) -> list[tuple]:
    """The candidates of one block, in the search order, for the nonzero integers ``coeffs``.

    Each is its terms ``(c, index)``, the sum of ``c`` times pool row
    ``index`` with ``c = (re, im)`` in Z[i]: row a alone; a plus c or ic
    times b; a plus ic_b times b plus c_c or ic_c times c.
    """
    one = (1, 0)
    if len(block) == 1:
        return [((one, block[0]),)]
    if len(block) == 2:
        a, b = block
        return [((one, a), (c, b)) for cc in coeffs for c in ((cc, 0), (0, cc))]
    a, b, c = block
    return [
        ((one, a), ((0, c_b), b), (cc, c))
        for c_b in coeffs
        for c_c in coeffs
        for cc in ((c_c, 0), (0, c_c))
    ]
