"""Setuptools entry point.

The offline environment used for this reproduction has no ``wheel`` package,
so editable installs go through the legacy ``setup.py develop`` path; keeping
an explicit ``setup.py`` (and no ``[build-system]`` table in pyproject.toml)
makes ``pip install -e .`` work without network access.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# The package's ``__version__`` is the one source; read, not imported, so
# this file works before ``src`` is on the path.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of Cosmadakis (1983): The Complexity of Evaluating Relational Queries"
    ),
    author="Reproduction Team",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
