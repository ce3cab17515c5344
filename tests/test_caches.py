"""Every functools cache in ``src/dfreud`` is bounded: a module-level cache
without a finite ``maxsize`` grows without limit over a long parameter sweep."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dfreud"


def _name(node) -> str:
    """``lru_cache`` for both ``lru_cache`` and ``functools.lru_cache``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _unbounded_caches(tree) -> list:
    """Line numbers of caches with no finite maxsize: ``functools.cache`` (or its
    import), ``lru_cache(None)`` and ``lru_cache(maxsize=None)``; a bare
    ``lru_cache`` keeps its default of 128."""
    found = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Attribute) and node.attr == "cache"
             and _name(node.value) == "functools")
                or (isinstance(node, ast.ImportFrom) and node.module == "functools"
                    and any(alias.name == "cache" for alias in node.names))):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(not (isinstance(v, ast.Constant) and isinstance(v.value, int))
                   for v in sizes):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_has_a_finite_maxsize(path):
    assert _unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, bad", [
    ("@functools.lru_cache(maxsize=256)\ndef f(): pass", []),
    ("@lru_cache\ndef f(): pass", []),
    ("@functools.cache\ndef f(): pass", [1]),
    ("from functools import cache", [1]),
    ("cache = {}", []),
    ("@lru_cache(maxsize=None)\ndef f(): pass", [1]),
    ("g = functools.lru_cache(None)(f)", [1]),
])
def test_unbounded_caches_are_found(source, bad):
    assert _unbounded_caches(ast.parse(source)) == bad
