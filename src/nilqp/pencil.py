"""The regular pencil's Krylov construction of the bigrading search (stage `regular_pencil`).

When dim C^1 = 2 and a member M_g of the pencil of the two forms is
invertible, the pencil operator W = M_g^{-1} M_o
(`twostep._pencil_structure`) is self-adjoint for M_g, so its cyclic
subspaces commute for every member.  A cyclic vector whose Krylov span
u, Wu, W^2 u, ... has h = v / 2 rows and is transverse to its conjugate
gives U; a span one row short is completed from the exact commutant
(`_regular_pencil_u`).  Work whose outcome is decided is skipped, so U
is the same: no span is longer than the degree of W's minimal
polynomial (`_minimal_degree`), and a span whose rows and conjugates
are dependent is not completed.  U is returned as exact vectors
``(row, den)`` on the kernel's Z[i] rows.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, product, repeat

from . import kernel, twostep
from .liealg import _identity


def _krylov_span(w_rows, u: kernel.ZiRow) -> list[kernel.ZiRow]:
    """The Z[i] rows u, Wu, W^2 u, ... while they are independent.

    ``w_rows`` are the rows of W times a denominator d, so the k-th row is
    W^k u times d^k.  No span is longer than the degree of W's minimal
    polynomial, which is at most h (`_minimal_degree`).
    """
    rows: list[kernel.ZiRow] = []
    echelon: list = []
    while u and kernel.zi_insert(echelon, u):
        rows.append(u)
        u = kernel.zi_matvec(w_rows, u)
    return rows


def _transversal(rows, echelon=None) -> bool:
    """Whether the Z[i] rows and their conjugates are independent, also of ``echelon``.

    A given ``echelon`` (`kernel.zi_insert`) keeps the rows inserted, up to
    the first that is dependent.
    """
    echelon = [] if echelon is None else echelon
    return all(
        kernel.zi_insert(echelon, row) and kernel.zi_insert(echelon, kernel.zi_conj(row))
        for row in rows
    )


def _minimal_degree(w_rows, h: int) -> int:
    """The degree of the minimal polynomial of W, capped at h.

    It is the rank of I, W, W^2, ... flattened to rows of length v^2: the
    first power in the span of the lower ones gives the degree, and every
    higher power lies in that span too.  No Krylov span u, Wu, W^2 u, ...
    is longer, as p(W) u = 0 for the minimal polynomial p.  The cap is all
    that `_regular_pencil_u` asks for, and it loses nothing: W = M_g^{-1} M_o
    is self-adjoint for the symplectic form M_g, so each of its Jordan
    blocks occurs twice and the degree is at most h = v / 2.  ``w_rows``
    are the Z[i] rows of W times a denominator, which leaves the rank alone.
    """
    v = len(w_rows)
    identity = [{r: (1, 0)} for r in range(v)]
    powers = islice(chain([identity], accumulate(repeat(w_rows), kernel.zi_matmul)), h)
    echelon: list = []
    for degree, power in enumerate(powers):
        flat = {r * v + c: e for r, row in enumerate(power) for c, e in row.items()}
        if not kernel.zi_insert(echelon, flat):
            return degree
    return h


def _group_terms(grp) -> list[kernel.ZiRow]:
    """Transverse vectors from the basis ``grp`` (2+ rows) of a generalized eigenspace."""
    one = (1, 0)
    terms = []
    if len(grp) > 2:
        # generic vectors reaching the top of each Jordan chain
        total = kernel.zi_combine(*((one, x) for x in grp))
        terms.append(kernel.zi_combine((one, total), ((0, 1), grp[1])))
        terms.append(kernel.zi_combine((one, grp[0]), ((0, 1), total)))
    for a, b, s in ((0, 1, 1), (1, 0, 1), (0, 1, -1), (1, 0, -1)):
        terms.append(kernel.zi_combine((one, grp[a]), ((0, s), grp[b])))
    return terms


def _pencil_candidates(seeds, w_rows):
    """Candidate cyclic vectors of W as ``(row, den)``, in the order they are tried.

    First, when there are two or more seed groups and the generalized
    eigenspace of each has two or more basis vectors, sums of one transverse
    vector from each (48 at most); then x + i*y for any two distinct vectors
    of the pool: the unit vectors, then the seeds.  Both are generated
    lazily.
    """
    v = len(w_rows)
    one = (1, 0)
    # One transverse component per root of the pencil, drawn from the full
    # generalized eigenspace: the Krylov span of such a sum reaches every
    # Jordan chain, and kernel vectors alone would miss nilpotent parts.
    gen_groups = []
    for grp in seeds:
        k_row = grp[0][0]
        lead = min(k_row)
        # W - t*I times d*k0, for the eigenvalue t = wk / (d*k0) of W on k
        wk, k0 = kernel.zi_matvec(w_rows, k_row).get(lead, (0, 0))[0], k_row[lead][0]
        shifted = [
            kernel.zi_combine(((k0, 0), row), ((-wk, 0), {r: (1, 0)}))
            for r, row in enumerate(w_rows)
        ]
        power = shifted
        for _ in range(v // 2 - 1):
            power = kernel.zi_matmul(power, shifted)
        gen = kernel.null_space(power, v, "Qi")
        gen_groups.append(gen if len(gen) >= len(grp) else grp)
    if len(gen_groups) >= 2 and all(len(g) >= 2 for g in gen_groups):
        rows, den = kernel.zi_common([vec for grp in gen_groups for vec in grp])
        it = iter(rows)
        pools = [_group_terms([next(it) for _ in grp]) for grp in gen_groups]
        for terms in islice(product(*pools), 48):
            yield kernel.zi_combine(*((one, t) for t in terms)), den
    # Generic vectors next: they are cyclic whenever anything is.
    pool = list(_identity(v))
    for grp in seeds:
        for vec in grp:
            if vec not in pool:
                pool.append(vec)
    rows, den = kernel.zi_common(pool)
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            if a != b:
                yield kernel.zi_combine((one, x), ((0, 1), y)), den


def _completions(pool):
    """Completion vectors from the Z[i] rows ``pool``, in the order they are tried."""
    mixers = ((0, 1), (0, -1), (0, 2), (1, 1), (1, -1))
    for a, x in enumerate(pool):
        for b, y in enumerate(pool):
            if a != b:
                for m in mixers:
                    yield kernel.zi_combine(((1, 0), x), (m, y))
        yield x


def _regular_pencil_u(frame: twostep._TwoStepFrame, seeds, w):
    """Direct construction of U for a regular two-form pencil.

    The operator W = M_g^{-1} M_o satisfies beta_g(u, Wv) = -beta_g(v, Wu),
    so W-cyclic subspaces commute for every member of the pencil.  A cyclic
    vector of minimal-polynomial degree h yields U directly; when the cyclic
    depth falls one short, the last generator is completed from the exact
    commutant intersected with the eigenvector seeds.  Both are isotropic by
    construction, so only transversality to the conjugate is tested.

    Up to 200 candidates (`_pencil_candidates`) are tried in order; the
    first whose span has h rows and is transverse gives U, and the first 16
    spans of h - 1 rows are completed in order, each by up to 200 vectors.
    Work whose outcome is decided is skipped, so U is the same:

    * No span is longer than the degree of W's minimal polynomial, which is
      at most h.  A first span of h rows proves the degree h; otherwise it
      is computed (`_minimal_degree`).  Below h - 1 there is neither a span
      of h rows nor one of h - 1, and the stage returns None at once.  At
      h - 1 no span has h rows, so the later spans are formed only as the
      completions ask for them, the same first 16 of h - 1 rows.
    * A span is completed by w when its rows, w and their conjugates are
      independent.  Its rows and their conjugates are reduced once: when
      they are dependent, no w can complete it and it is skipped before
      its commutant is taken; otherwise each w is tested on a copy of
      their echelon.

    ``seeds`` and ``w`` are as `twostep._pencil_structure` returns them.  U is
    returned as exact vectors ``(row, den)``: the k-th Krylov row of u / den
    is W^k u times d^k, so its denominator is den * d^k.
    """
    v, h = frame.v, frame.h
    w_rows, d = w

    def exact(rows, den):
        return [(row, den * d**k) for k, row in enumerate(rows)]

    spans = (
        (_krylov_span(w_rows, u), den)
        for u, den in islice(_pencil_candidates(seeds, w_rows), 200)
    )
    first = list(islice(spans, 1))
    degree = h if first and len(first[0][0]) == h else _minimal_degree(w_rows, h)
    if degree < h - 1:
        return None
    spans = chain(first, spans)
    if degree < h:
        partials = islice(((rows, den) for rows, den in spans if len(rows) == h - 1), 16)
    else:
        partials = []
        for rows, den in spans:
            if len(rows) == h:
                if _transversal(rows):
                    return exact(rows, den)
            elif len(rows) == h - 1 and len(partials) < 16:
                partials.append((rows, den))
    # Each seed group is the reduced basis of its span, and ker W is one more.
    spaces = [*seeds, kernel.null_space(w_rows, v, "Qi")]
    for rows, den in partials:
        prefix: list = []
        if not _transversal(rows, prefix):
            continue
        # Complete with an eigenvector from the exact commutant of the
        # cyclic part (W fixes its line, so invariance is preserved): the
        # commutant met with each seed group's span, then with ker W, each
        # space cut by the commutant's rows (`kernel.null_space_within`).
        commutant = frame.commutant_rows(rows)
        eigen_pool: list[tuple[kernel.ZiRow, int]] = []
        for space in spaces:
            for vec in kernel.null_space_within(space, commutant, "Qi"):
                if vec not in eigen_pool:
                    eigen_pool.append(vec)
        pool_rows, pool_den = kernel.zi_common(eigen_pool)
        for w in islice(_completions(pool_rows), 200):
            if w and _transversal([w], list(prefix)):
                return exact(rows, den) + [(w, pool_den)]
    return None
