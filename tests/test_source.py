"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fbsp"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a library check must raise
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_np_load_refuses_pickles():
    # a graph file comes from outside the program, and unpickling it could
    # run any code
    calls = [(path.name, node) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "load"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert calls
    unsafe = [f"{name}:{node.lineno}" for name, node in calls
              if not any(k.arg == "allow_pickle"
                         and isinstance(k.value, ast.Constant)
                         and k.value.value is False for k in node.keywords)]
    assert unsafe == []


def test_row_readers_never_read_the_csr_arrays():
    # a graph from gen_complete holds row prefixes, and reading its CSR
    # arrays builds all n(n - 1) entries: the searches, the fast verifiers
    # and the oracle read graph.rows(), and the full readers out_edges
    csr = {"out_ptr", "out_to", "out_w", "in_ptr", "in_from", "in_w"}
    found = [f"{name}:{node.lineno} .{node.attr}"
             for name in ("sssp.py", "verify.py", "oracle.py")
             for node in ast.walk(ast.parse((SRC / name).read_text(), name))
             if isinstance(node, ast.Attribute) and node.attr in csr]
    assert found == []
