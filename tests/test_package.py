"""Package surface: the exported names, the README's library tour and
names, and the version."""

import os
import re
import subprocess
import sys
from pathlib import Path

import trbroadcast

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_resolves():
    assert len(trbroadcast.__all__) == len(set(trbroadcast.__all__)) == 41
    for name in trbroadcast.__all__:
        assert hasattr(trbroadcast, name), name
    namespace = {}
    exec("from trbroadcast import *", namespace)
    assert set(trbroadcast.__all__) <= namespace.keys()


def test_readme_useful_names_are_exported():
    paragraph = README.split("Useful names beyond the tour:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph)
    assert names
    assert set(names) <= set(trbroadcast.__all__)


def test_readme_library_block_runs_and_shows_its_values():
    # every `expression  # value` line evaluates to the value shown
    library = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    shown = 0
    for line in block.splitlines():
        code, _, value = line.partition("#")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            shown += 1
        else:
            exec(code, namespace)
    assert shown == 5


def test_version_is_pyproject_version():
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert trbroadcast.__version__ == version
    src = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-m", "trbroadcast", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert proc.stdout == f"{version}\n"
