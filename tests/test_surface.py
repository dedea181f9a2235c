"""The package's public surface: `qdiscord.__all__` is the table that the
README's Library section documents, and the package imports without the
tests, which live outside it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qdiscord

ROOT = Path(__file__).parent.parent


def test_all_is_the_readme_table():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1].split("Module map:", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(qdiscord.__all__)


def test_star_import_gives_every_name_in_all():
    namespace = {}
    exec("from qdiscord import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qdiscord.__all__)
    assert all(namespace[name] is getattr(qdiscord, name)
               for name in qdiscord.__all__)


def test_package_imports_without_the_tests(tmp_path):
    # With only src/ on the path and a directory outside the repository
    # as the working directory, `tests` cannot be imported, as in an
    # installed package.
    code = ("import importlib, pkgutil, sys, qdiscord\n"
            "for m in pkgutil.iter_modules(qdiscord.__path__):\n"
            "    importlib.import_module('qdiscord.' + m.name)\n"
            "from qdiscord import *\n"
            "assert 'tests' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                   check=True)
