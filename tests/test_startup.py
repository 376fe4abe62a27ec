"""What a CLI request imports: each subcommand runs as its own
``python -X importtime -m regopen.cli`` process, and the modules it loads
are read from the import-time lines on stderr."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# modules no request needs: `dataclasses` brings `inspect`, `ast` and `dis`,
# and `traceback` serves only the unexpected-exception branch
NEVER = {"dataclasses", "inspect", "traceback"}
NOT_FOR_SPACE_INFO = {f"regopen.{m}" for m in ("plmap", "cantor", "cover_iso", "ideals", "finball", "exprlang")}
# requests that read no rational space: a finite cover, and two descriptors
NO_SPACE = {"gleason", "equiv"}

UNIT = '{"components":[{"kind":"interval","a":"0","b":"1"}]}'
HALF = '{"spans":[{"lo":"0","hi":"1/2","lo_incl":true,"hi_incl":false}]}'  # regular open in [0, 1]
PIECE = '{"src_lo":"0","src_hi":"1","slope":"1","intercept":"0"}'
IDENTITY = json.dumps({"domain": json.loads(UNIT), "codomain": json.loads(UNIT), "pieces": [[json.loads(PIECE)]]})
FUNC = json.dumps({"space": json.loads(UNIT), "pieces": [[json.loads(PIECE)]]})
IDEAL = json.dumps({"space": json.loads(UNIT), "support": json.loads(HALF)})

# one request per subcommand of the cli benchmark workload, then malformed input
REQUESTS = {
    "space info": ["space", "info", "--space", UNIT],
    "region eval": ["region", "eval", "--space", UNIT, "--expr", "join(reg(I(0,1/2)),perp(I(1/4,3/4)))"],
    "cover check": ["cover", "check", "--map", IDENTITY, "--samples", "2"],
    "cover psi": ["cover", "psi", "--map", IDENTITY, "--region", HALF],
    "cover phi": ["cover", "phi", "--map", IDENTITY, "--region", HALF],
    "cantor check": ["cantor", "check", "--depth", "2", "--samples", "2"],
    "cantor psi": ["cantor", "psi", "--clopen", '{"words":["01","10"]}'],
    "cantor phi": ["cantor", "phi", "--region", HALF],
    "gleason": ["gleason", "--points", "2"],
    **{f"ideal {op}": ["ideal", op, "--func", FUNC, "--ideal", IDEAL, "--right", IDEAL, "--map", IDENTITY]
       for op in ("supp", "member", "join", "meet", "neg", "annihilator", "upsilon", "omega")},
    "equiv": ["equiv", '{"components":[{"kind":"interval"}]}', '{"components":[{"kind":"cantor"}]}'],
    "compose": ["compose", "--left", IDENTITY, "--right", IDENTITY, "--region", HALF],
    "bad json": ["space", "info", "--space", '{"components":'],
    "bad syntax": ["region", "eval", "--space", UNIT, "--expr", "join(I(0,1),"],
    "bad argument": ["cantor", "check", "--depth", "x"],
}


def loaded_modules(argv: list[str]) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "regopen.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


@pytest.mark.parametrize("name", list(REQUESTS))
def test_a_request_loads_no_module_it_does_not_need(name):
    code, modules = loaded_modules(REQUESTS[name])
    assert code == 2 if name.startswith("bad") else code in (0, 1)  # `ideal member` says no
    assert "regopen.jsonio" in modules
    assert NEVER.isdisjoint(modules), sorted(NEVER & modules)
    if name == "space info":
        assert NOT_FOR_SPACE_INFO.isdisjoint(modules), sorted(NOT_FOR_SPACE_INFO & modules)
    if name in NO_SPACE:
        assert "regopen.space" not in modules


def test_the_codec_and_the_descriptors_load_without_the_space_module():
    code = "import sys, regopen.jsonio, regopen.boolequiv; print('regopen.space' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr


def _load_time_imports(node):
    """The import statements a module runs as it loads: none inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _load_time_imports(child)


def test_only_the_cli_imports_the_codec_as_it_loads():
    importers = set()
    for path in sorted((SRC / "regopen").glob("*.py")):
        for imp in _load_time_imports(ast.parse(path.read_text(encoding="utf-8"))):
            names = {a.name.split(".")[-1] for a in imp.names}
            if isinstance(imp, ast.ImportFrom) and imp.module:
                names.add(imp.module.split(".")[-1])
            if "jsonio" in names:
                importers.add(path.name)
    assert importers == {"cli.py"}
