"""The package's entry point imports a module on the first read of a name it defines.

Each test runs in a fresh interpreter, since this test session has already
imported every module, and reads back what the child prints as JSON.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import nilqp

SRC = Path(nilqp.__file__).resolve().parents[1]
SUBMODULES = sorted(
    path.stem for path in (SRC / "nilqp").glob("*.py") if path.stem not in ("__init__", "__main__")
)
# Modules that only the search, the checker and the cohomology tables load.
SEARCH = ("nilqp._arith", "nilqp.bigrading", "nilqp.checker", "nilqp.cohomology", "nilqp.twostep")
# The modules that `catalog_keys()` loads; a builder imports nothing more.
CATALOG_MODULES = ("errors", "_record", "scalars", "kernel", "exact", "grading", "liealg", "catalog")


def _fresh(code: str, *args: str):
    """What ``code``, run in a new interpreter on this package, prints as JSON."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return json.loads(done.stdout)


def test_the_catalog_loads_no_search_code():
    loaded = _fresh(
        """
        import json, sys
        import nilqp
        nilqp.catalog_keys()
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("nilqp"))))
        """
    )
    assert "nilqp.catalog" in loaded and "nilqp.grading" in loaded
    assert not set(loaded) & {*SEARCH, "nilqp.jsonio", "nilqp.cli"}
    assert set(loaded) == {"nilqp", *(f"nilqp.{m}" for m in CATALOG_MODULES)}


def test_the_catalog_builds_an_entry_on_its_first_get_and_only_its_parts():
    # Every algebra entered by brackets is validated once, when it is built.
    validated = _fresh(
        """
        import json
        from nilqp import catalog, liealg
        original = liealg.validate
        calls = []
        liealg.validate = lambda L: calls.append(L.name) or original(L)
        keys = catalog.catalog_keys()
        seen = [list(calls)]
        for key in ("n3+n3+C1", "37D"):
            calls.clear()
            catalog.get(key)
            seen.append(list(calls))
        seen.append(all(catalog.get(k) is catalog.get(k) for k in keys))
        print(json.dumps(seen))
        """
    )
    assert validated == [[], ["n3"], ["n7_142"], True]


def test_entries_do_not_depend_on_the_order_they_are_built_in(tmp_path):
    exported = {}
    for order in ("forward", "reverse"):
        directory = tmp_path / order
        _fresh(
            """
            import json, sys
            from nilqp.catalog import catalog_keys, export_entry
            keys = catalog_keys()
            for key in keys[::-1] if sys.argv[1] == "reverse" else keys:
                export_entry(key, sys.argv[2])
            print(json.dumps(None))
            """,
            order,
            str(directory),
        )
        exported[order] = {path.name: path.read_bytes() for path in directory.iterdir()}
    assert len(exported["forward"]) == 66
    assert exported["forward"] == exported["reverse"]


def test_cli_commands_without_a_search_load_none(tmp_path):
    nilqp.export_entry("n3", tmp_path)
    results = _fresh(
        """
        import contextlib, io, json, sys
        from nilqp.cli import run
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["catalog", "list"], ["backend"], ["validate", sys.argv[1]]):
                codes.append(run(argv))
        print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("nilqp"))]))
        """,
        str(tmp_path / "n3.algebra.json"),
    )
    codes, loaded = results
    assert codes == [0, 0, 0]
    assert "nilqp.jsonio" in loaded
    assert not set(loaded) & set(SEARCH)


def test_no_module_loads_dataclasses():
    # A stdlib module that imports `dataclasses` would bring back its
    # start-up cost (`test_source.py` checks nilqp's own imports).
    loaded = _fresh(
        """
        import json, sys
        from importlib import import_module
        import nilqp
        nilqp.catalog_keys()
        for name in ("cli", "checker", *sys.argv[1:]):
            import_module(f"nilqp.{name}")
        print(json.dumps("dataclasses" in sys.modules))
        """,
        *SUBMODULES,
    )
    assert loaded is False


def test_every_public_name_and_submodule_resolves_to_its_defining_module():
    problems = _fresh(
        """
        import importlib, inspect, json, sys
        import nilqp
        problems = []
        for name in nilqp.__all__:
            home = "nilqp." + nilqp._HOME[name]
            obj = getattr(nilqp, name)
            if obj is not getattr(sys.modules[home], nilqp._RENAMED.get(name, name)):
                problems.append(f"{name}: not the object of {home}")
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != home:
                problems.append(f"{name}: defined in {obj.__module__}, read from {home}")
        for sub in sys.argv[1:]:
            if getattr(nilqp, sub) is not importlib.import_module("nilqp." + sub):
                problems.append(f"nilqp.{sub} is not the submodule")
        for name in ("no_such_name", "__main__", "get"):
            try:
                getattr(nilqp, name)
                problems.append(f"{name} resolved")
            except AttributeError:
                pass
        missing = {*nilqp.__all__, *sys.argv[1:]} - set(dir(nilqp))
        problems.extend(f"{name} not in dir(nilqp)" for name in sorted(missing))
        print(json.dumps(problems))
        """,
        *SUBMODULES,
    )
    assert problems == []
    assert sorted(nilqp._HOME) == sorted(nilqp.__all__)


def test_a_name_read_while_its_module_rebinds_it_is_not_kept():
    # A profiler or a test may rebind a function in its module for a while;
    # the package must not keep the stand-in once the original is back.
    same = _fresh(
        """
        import json
        import nilqp
        from nilqp import checker
        original = checker.check
        checker.check = stand_in = lambda *a, **k: None
        during = nilqp.check is stand_in
        checker.check = original
        print(json.dumps([during, nilqp.check is original]))
        """
    )
    assert same == [True, True]
