"""The package imports its modules on first use, and the CLI only what a subcommand runs.

No route, and not the whole library, loads ``dataclasses`` or ``inspect``.

Each check that counts loaded modules runs in a fresh interpreter, since this
process has imported the whole library already.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import snakemod

SRC = str(Path(snakemod.__file__).parents[1])
SUBMODULES = (
    "errors", "intervals", "lweight", "ring", "snakes",
    "families", "determinant", "paths", "category_o",
)
EXAMPLE_ONE = {"n": 5, "intervals": [[0, 4], [-1, 1], [1, 2], [2, 3]], "breaks": [1, 2, 4]}
PAIR = {"n": 2, "intervals": [[0, 2], [-1, 1]], "breaks": [1, 2]}
STAIRCASE = {"family": "mu-lambda", "mu": [0, 0, 1, 1], "lambda": [4, 3, 3, 2], "n": 4}
# every route through the CLI: its arguments, its input and its exit code
ROUTES = {
    "validate": (["validate", "-"], json.dumps(EXAMPLE_ONE), 0),
    "decompose": (["decompose", "-"], json.dumps(EXAMPLE_ONE), 0),
    "det-formula": (["det-formula", "-", "--oracle"], json.dumps(EXAMPLE_ONE), 0),
    "kl": (["kl", "-"], json.dumps(PAIR), 0),
    "character": (["character", "-"], json.dumps(PAIR), 0),
    "gen": (["gen", "-"], json.dumps(STAIRCASE), 0),
    "invalid JSON": (["validate", "-"], "{", 2),
}
# the standard library's heaviest imports, which no route needs
HEAVY = {"dataclasses", "inspect"}


def fresh(code: str, stdin: str = "") -> object:
    """Run ``code`` in a new interpreter that imports this package; the JSON its last line prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str, stdin: str = "") -> set:
    """The modules that ``code`` loads beyond a bare interpreter's."""
    listing = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(fresh(code + listing, stdin)) - set(fresh(listing))


class TestImportContract:
    @pytest.mark.parametrize("statement", ["import snakemod", "import snakemod.cli"])
    def test_import_loads_no_engine(self, statement):
        loaded = loaded_after(statement)
        engines = {f"snakemod.{m}" for m in ("determinant", "ring", "paths", "category_o", "families")}
        assert loaded & engines == set()
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("command", ["validate", "decompose"])
    def test_snake_routes_load_no_determinant(self, command):
        code = f"from snakemod.cli import main\nassert main([{command!r}, '-']) == 0"
        loaded = loaded_after(code, json.dumps(EXAMPLE_ONE))
        assert "snakemod.snakes" in loaded
        assert "snakemod.determinant" not in loaded

    @pytest.mark.parametrize("route", ROUTES)
    def test_route_loads_no_heavy_module(self, route):
        argv, stdin, code = ROUTES[route]
        loaded = loaded_after(f"from snakemod.cli import main\nassert main({argv!r}) == {code}", stdin)
        assert "snakemod.cli" in loaded
        assert loaded & HEAVY == set()

    def test_whole_library_loads_no_heavy_module(self):
        # listed here: pkgutil itself imports inspect
        modules = [f"snakemod.{m.name}" for m in pkgutil.iter_modules(snakemod.__path__)]
        loaded = loaded_after(f"import importlib, snakemod\nfor m in {modules!r}:\n    importlib.import_module(m)")
        assert {f"snakemod.{m}" for m in (*SUBMODULES, "cli")} <= set(modules) <= loaded
        assert loaded & HEAVY == set()


class TestLazySurface:
    def test_each_name_is_its_home_modules_object(self):
        # a module that imports a name from its home holds the same object
        code = (
            "import importlib, json, snakemod\n"
            "names = {n: getattr(snakemod, n) for n in snakemod.__all__}\n"
            f"modules = [importlib.import_module('snakemod.' + m) for m in {SUBMODULES!r}]\n"
            "holders = {n: [vars(m)[n] for m in modules if n in vars(m)] for n in names}\n"
            "print(json.dumps([n for n, v in names.items() "
            "if not holders[n] or any(h is not v for h in holders[n])]))"
        )
        assert fresh(code) == []
        assert len(set(snakemod.__all__)) == len(snakemod.__all__)

    def test_star_import_binds_every_name(self):
        code = (
            "import json, snakemod\n"
            "ns = {}\n"
            "exec('from snakemod import *', ns)\n"
            "print(json.dumps([n for n in snakemod.__all__ if ns.get(n) is not getattr(snakemod, n)]))"
        )
        assert fresh(code) == []

    def test_dir_lists_every_public_name(self):
        names = fresh("import json, snakemod\nprint(json.dumps(dir(snakemod)))")
        assert set(snakemod.__all__) <= set(names)

    def test_submodules_resolve_after_a_bare_import(self):
        code = (
            "import json, sys, snakemod\n"
            f"print(json.dumps([m for m in {SUBMODULES!r} "
            "if getattr(snakemod, m) is not sys.modules['snakemod.' + m]]))"
        )
        assert fresh(code) == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'snakemod' has no attribute 'no_such_name'"):
            snakemod.no_such_name  # noqa: B018
