import ast
import os
import subprocess
import sys

import topokry

SRC = os.path.dirname(os.path.abspath(topokry.__file__))


def test_all_is_sorted_unique_and_resolves():
    names = topokry.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(topokry, name), name


def test_import_leaves_scipy_linalg_unloaded():
    # every run's set-up pays for what ``import topokry`` loads
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys, topokry; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_csr_matvec_is_the_only_private_scipy_kernel():
    # scipy may change its private kernels in any release; csr_matvec is
    # the one the package runs, and TestCsrOperator pins it bit for bit
    imported = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "_sparsetools" in (node.module or ""):
                imported += [(name, alias.name) for alias in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                assert not any("_sparsetools" in m for m in modules), name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "_sparsetools", name
    assert imported == [("krylov.py", "csr_matvec")]
