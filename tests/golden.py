"""Byte-identity digests of the command-line output, of moved verdicts and of the conic solver.

Each function below computes one digest, with no pytest fixture, and the
``GOLDEN_*`` constants hold the digests as recorded.  Every digest was
recorded before the engine's null spaces moved onto one kernel routine; a
change that alters any output byte, on any exported catalog entry or any
seeded change of basis, changes a digest.  Record a digest again only when
an output is meant to change.  `test_golden.py` asserts on these functions.
Run as a script, the module checks every digest, needing neither pytest nor
hypothesis, and exits 1 when any differs:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from itertools import combinations, permutations, product

from nilqp import kernel
from nilqp._arith import solve_ternary
from nilqp.bigrading import Bigrading, SearchBounds, verify_bigrading
from nilqp.catalog import catalog_keys, export_entry, get
from nilqp.checker import check
from nilqp.cli import run
from nilqp.cohomology import betti_numbers, bigraded_cohomology
from nilqp.errors import NilqpError
from nilqp.jsonio import dumps_json, verdict_to_json
from nilqp.liealg import apply_basis_change, complexify, direct_sum

from seeded import carried_grading, random_gaussian_t, random_invertible_t, seeded_ternary_equations

GOLDEN_CLI_SHA256 = {
    "validate": (
        "ae6d14b3fc4841f75ce2d6d06e3a4241dc0bf68ec2c5a4c83ea483c0465e2127"
    ),
    "check": (
        "fbcc7f50cabcdc5d771c8124268112e3a4a3e1e7ea9e352a827ad5f25841befc"
    ),
    "bigrading-search": (
        "4d01dc2e3e1a808b602ae15569a61b4fb72169d2127124e6487b865ea1208d01"
    ),
    "cohomology": (
        "ae7689c2528e42ba057a8fb46d1a626ab9e0e87458e04e1c06862017bcfc7607"
    ),
    "cohomology --representatives": (
        "3ab332ddcdc6c8c8647ee3cdbd7b4dbf73da6d96f189650f9ce0c77d360d06a3"
    ),
    "cohomology --bigrading": (
        "4a54fea262f5a73442b4745beb05550b59e64109ec4d2bc40f6f596aec44fd4b"
    ),
    "bigrading-verify": (
        "308493cd122786ccea97355309b2672dd6519d334e3df713c1f518aa945092ec"
    ),
}
GOLDEN_MOVED_CHECK_SHA256 = (
    "ba69297f6c8af79699697f67613f64cf86b83f56ff08afe9d78e101774f5f8b1"
)
GOLDEN_MOVED_SUMS_CHECK_SHA256 = (
    "787249e7a32d271d52b6d5e7cacd476d508771cb6a3777815183f34e5735d001"
)
GOLDEN_REPORT_SHA256 = (
    "401aa1f84813964e7b14c72f59b84a2fc3aca48b97b71af4303ce27229bace77"
)
GOLDEN_SOLVE_TERNARY_SHA256 = (
    "de7c1c5e57a8b5c9a7ec9117d6b964a88a3dee99c5b29d9a6819414c66af5fac"
)
GOLDEN_MOVED_SUMS_BETTI_SHA256 = (
    "ff49f18cd5de6a7fb699b64c5f918ad70adc6895762e929fa7d1ac8b7773ea7e"
)
GOLDEN_RESHUFFLED_BIGRADED_SHA256 = (
    "bfd2c5c513b024efcf740928549e6445748e36a30f27ce73756009be5d6f6720"
)
GOLDEN_RESHUFFLED_VERIFY_SHA256 = (
    "fe9571fe5dcd5087a7b58fec964942f09bfbf7c455ec75cb50b7c0b3c2fae007"
)
GOLDEN_LEAVING_BIGRADED_SHA256 = (
    "8ba7b95658a96c8ade154f9bbfbd0b52e5f66cf6fc6f8b4178b9033de02b379c"
)


def export_catalog(directory: str) -> dict:
    """Every catalog entry exported with its sidecars into ``directory``: key -> written paths."""
    return {key: export_entry(key, directory) for key in catalog_keys()}


def _json_run(*argv) -> str:
    """Exit code and stdout of one in-process ``nilqp --format json`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--format", "json", *argv])
    return f"{code}\n{out.getvalue()}"


def cli_digest(exported: dict, command: str) -> str:
    """``command`` (a key of `GOLDEN_CLI_SHA256`) run on every exported entry."""
    digest = hashlib.sha256()
    name, *flags = command.split()
    for key, paths in exported.items():
        algebra = paths[0]
        gradings = [p for p in paths if ".bigrading." in p]
        if flags == ["--bigrading"]:
            runs = [(*flags, p) for p in gradings]
        elif name == "bigrading-verify":
            runs = [(p, "--mode", mode) for p in gradings for mode in ("strict", "lax")]
        else:
            runs = [tuple(flags)]
        for extra in runs:
            digest.update(f"{key} {command}\n".encode())
            digest.update(_json_run(name, algebra, *extra).encode())
    return digest.hexdigest()


def report_digest() -> str:
    # The classification report of every dimension 1-8, recorded before the
    # obstructing test was read off the verdict's last reason.
    digest = hashlib.sha256()
    for k in range(1, 9):
        digest.update(f"{k} ".encode())
        digest.update(_json_run("report", "--dim", str(k)).encode())
    return digest.hexdigest()


def moved_check_digest() -> str:
    rng = random.Random(11)
    digest = hashlib.sha256()
    for key in catalog_keys():
        alg = get(key).algebra
        if alg.field != "Q":
            continue
        for _ in range(3):
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
            digest.update(f"{key}\n{dumps_json(verdict_to_json(check(moved)))}".encode())
    return digest.hexdigest()


# Two-step sums beyond the catalog.  On n5+n3+C1, n5+n3+C2 and n5+n3+C3 the
# minimal polynomial of the pencil operator W has degree below h, so the
# regular-pencil construction finds no cyclic vector and completes a partial
# span; L5_parity+L5_parity exhausts the budget, n7+C2 and n3+n3+C3 are
# settled by the pencil.  The digest was recorded before the regular-pencil
# construction was pruned by W's minimal polynomial and the Pfaffian.
MOVED_SUMS = (
    ("n5", "n3", "abelian_1"),
    ("n5", "n3", "abelian_2"),
    ("n5", "n3", "abelian_3"),
    ("L5_parity", "L5_parity"),
    ("n7", "abelian_2"),
    ("n3", "n3", "abelian_3"),
)


def moved_sums_check_digest() -> str:
    digest = hashlib.sha256()
    for keys in MOVED_SUMS:
        alg = get(keys[0]).algebra
        for key in keys[1:]:
            alg = direct_sum(alg, get(key).algebra)
        for seed in (1, 2, 3):
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, random.Random(seed)))
            verdict = check(moved, bounds=SearchBounds(max_nodes=2000))
            digest.update(f"{'+'.join(keys)} {seed}\n{dumps_json(verdict_to_json(verdict))}".encode())
    return digest.hexdigest()


# Sums of dims 9-12 in one seeded basis each, with their representatives,
# which are read off the whole complex in that basis.  The last is
# complexified and moved by a Gaussian T, so its ranks run over Q(i).  Each
# took at most 0.5 s when the digest was recorded, before the elimination
# inserted rows shortest first and before d_k was assembled term by term.
MOVED_SUMS_BETTI = (
    (("n5", "n3", "abelian_1"), 1),
    (("N3_82", "abelian_1"), 1),
    (("n5", "filiform_4"), 1),
    (("n7", "n3"), 1),
    (("n5", "n5"), 1),
    (("n3", "abelian_8"), 2),
    (("n3", "abelian_8", "abelian_1"), 2),
)


def moved_sums_betti_digest() -> str:
    digest = hashlib.sha256()
    runs = [(keys, seed, False) for keys, seed in MOVED_SUMS_BETTI]
    runs.append((("n5", "n3", "abelian_1"), 1, True))
    for keys, seed, gaussian in runs:
        alg = get(keys[0]).algebra
        for key in keys[1:]:
            alg = direct_sum(alg, get(key).algebra)
        rng = random.Random(seed)
        if gaussian:
            moved = apply_basis_change(complexify(alg), random_gaussian_t(alg.dim, rng))
        else:
            moved = apply_basis_change(alg, random_invertible_t(alg.dim, rng))
        table = betti_numbers(moved, representatives=True)
        digest.update(f"{'+'.join(keys)} {seed} {gaussian}\n".encode())
        digest.update(repr((table.betti, sorted(table.representatives.items()))).encode())
    return digest.hexdigest()


def _reshuffled(grading, rng):
    """The grading's generators shuffled among its bidegrees, sizes kept."""
    gens = [v for c in grading.components for v in c.generators]
    rng.shuffle(gens)
    it = iter(gens)
    return Bigrading.build(
        [(c.p, c.q, [next(it) for _ in c.generators]) for c in grading.components]
    )


def _bigraded_outcome(alg, grading) -> str:
    try:
        table = bigraded_cohomology(alg, grading)
    except NilqpError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((table.betti, table.by_bidegree))


def _reshuffled_runs():
    """``(label, algebra, grading)`` for every catalog grading, its reshuffles and its moved copy.

    Each grading runs as stored, then three seeded reshuffles of its
    generators (mostly incompatible), then a rationally moved copy under the
    grading carried along, then a reshuffle of that.
    """
    rng = random.Random(22)
    for key in catalog_keys():
        entry = get(key)
        alg = entry.algebra if entry.algebra.field == "Qi" else complexify(entry.algebra)
        for number, grading in enumerate(entry.known_bigradings):
            t = random_invertible_t(alg.dim, rng)
            carried = carried_grading(grading, t)
            moved = apply_basis_change(alg, t)
            runs = [(alg, grading)]
            runs += [(alg, _reshuffled(grading, rng)) for _ in range(3)]
            runs += [(moved, carried), (moved, _reshuffled(carried, rng))]
            for case, (target, g) in enumerate(runs):
                yield f"{key} {number} {case}\n", target, g


def reshuffled_bigraded_digest() -> str:
    # The runs of `_reshuffled_runs`; an incompatible grading's digest holds
    # the exception's message.  The digest was recorded before the bidegree
    # blocks and the Betti numbers were ranked by one routine.
    digest = hashlib.sha256()
    for label, target, g in _reshuffled_runs():
        digest.update(label.encode())
        digest.update(_bigraded_outcome(target, g).encode())
    return digest.hexdigest()


def reshuffled_verify_digest() -> str:
    # The strict and lax `GradingReport` of every run of `_reshuffled_runs`:
    # its failures, their order and their texts.  The digest was recorded
    # while verification and the grading table still bracketed each pair in
    # two loops.
    digest = hashlib.sha256()
    for label, target, g in _reshuffled_runs():
        digest.update(label.encode())
        for mode in ("strict", "lax"):
            digest.update(repr(verify_bigrading(target, g, mode)).encode())
    return digest.hexdigest()


def _with_generator_moved(grading, src, k, dst):
    """The grading with generator ``k`` of component ``src`` moved into component ``dst``."""
    parts = [(c.p, c.q, list(c.generators)) for c in grading.components]
    parts[dst][2].append(parts[src][2].pop(k))
    return Bigrading.build(parts)


def _leaves_only(alg, grading) -> bool:
    """Whether the generators span and some bracket leaves its target, none reaching an absent one.

    Read off `LieAlgebra.bracket` and ranks (`kernel.rank`), apart from the
    grading table's own membership test.
    """
    comps = {(c.p, c.q): list(c.generators) for c in grading.components}

    def rank(vectors):
        return kernel.rank(kernel.zi_rows(vectors)[0], alg.dim, "Qi")

    if rank([v for gens in comps.values() for v in gens]) < alg.dim:
        return False
    keys, leaves = list(comps), False
    for x, a in enumerate(keys):
        for b in keys[x:]:
            target = (a[0] + b[0], a[1] + b[1])
            for u, v in combinations(comps[a], 2) if a == b else product(comps[a], comps[b]):
                w = alg.bracket(u, v)
                if not any(w):
                    continue
                if target not in comps:
                    return False
                leaves = leaves or rank(comps[target] + [w]) > len(comps[target])
    return leaves


def _leaving_runs():
    """``(label, algebra, grading)`` for the gradings whose brackets leave a present target.

    From every catalog grading, over Q(i), and its rationally moved copy,
    each generator of a component with two or more is moved into each other
    component; a run is kept when every nonzero bracket lands in a bidegree
    that the grading has, and some bracket leaves that component
    (`_leaves_only`).  A
    central generator moved out of the (-1, -1) component does this: the
    brackets of U and conj U still target (-1, -1), which misses it now.
    So the grading table is formed by `liealg._moved_table` because the
    membership test of `cohomology._graded_brackets` fails, never because
    a bidegree is absent.
    """
    rng = random.Random(38)
    for key in catalog_keys():
        entry = get(key)
        alg = entry.algebra if entry.algebra.field == "Qi" else complexify(entry.algebra)
        for number, grading in enumerate(entry.known_bigradings):
            t = random_invertible_t(alg.dim, rng)
            sizes = [len(c.generators) for c in grading.components]
            for case, (target, g) in enumerate(
                ((alg, grading), (apply_basis_change(alg, t), carried_grading(grading, t)))
            ):
                for src, dst in permutations(range(len(sizes)), 2):
                    for k in range(sizes[src] if sizes[src] > 1 else 0):
                        moved = _with_generator_moved(g, src, k, dst)
                        if _leaves_only(target, moved):
                            yield f"{key} {number} {case} {src} {k} {dst}\n", target, moved


def leaving_bigraded_digest() -> str:
    # The outcome of `bigraded_cohomology` on each of the 120 runs of
    # `_leaving_runs`.  It pins the membership test of the grading table and
    # the coordinates that it reads off; recorded while every elimination
    # step still divided out its row's content.
    digest = hashlib.sha256()
    for label, target, g in _leaving_runs():
        digest.update(label.encode())
        digest.update(_bigraded_outcome(target, g).encode())
    return digest.hexdigest()


def solve_ternary_digest() -> str:
    # The solver's triple or None on the seeded equations of `test_arith`,
    # cleared of denominators, and on 3,000 seeded integer triples with
    # |coefficient| < 5,000.  The digest was recorded while the solver
    # still did its back-substitution in `fractions.Fraction`.
    rng = random.Random(5000)
    equations = list(seeded_ternary_equations())
    equations += [tuple(rng.randrange(-4999, 5000) for _ in range(3)) for _ in range(3000)]
    digest = hashlib.sha256()
    for coeffs in equations:
        digest.update(f"{coeffs} {solve_ternary(*coeffs)}\n".encode())
    return digest.hexdigest()


def main() -> int:
    """Compute every digest, print one line each, and return 1 when any differs."""
    with tempfile.TemporaryDirectory() as directory:
        exported = export_catalog(directory)
        checks = [
            (f"cli {command}", lambda c=command: cli_digest(exported, c), recorded)
            for command, recorded in sorted(GOLDEN_CLI_SHA256.items())
        ]
        checks += [
            ("report", report_digest, GOLDEN_REPORT_SHA256),
            ("moved check", moved_check_digest, GOLDEN_MOVED_CHECK_SHA256),
            ("moved sums check", moved_sums_check_digest, GOLDEN_MOVED_SUMS_CHECK_SHA256),
            ("moved sums betti", moved_sums_betti_digest, GOLDEN_MOVED_SUMS_BETTI_SHA256),
            ("reshuffled bigraded", reshuffled_bigraded_digest, GOLDEN_RESHUFFLED_BIGRADED_SHA256),
            ("reshuffled verify", reshuffled_verify_digest, GOLDEN_RESHUFFLED_VERIFY_SHA256),
            ("leaving bigraded", leaving_bigraded_digest, GOLDEN_LEAVING_BIGRADED_SHA256),
            ("solve_ternary", solve_ternary_digest, GOLDEN_SOLVE_TERNARY_SHA256),
        ]
        failed = 0
        for name, digest, recorded in checks:
            got = digest()
            if got == recorded:
                print(f"ok {name}")
            else:
                failed += 1
                print(f"MISMATCH {name}: {got}, recorded {recorded}")
    print(f"{len(checks) - failed} of {len(checks)} digests match on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
