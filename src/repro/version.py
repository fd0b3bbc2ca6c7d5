"""Single source of the package version string.

``__version__`` is the only version string in the tree:
``pyproject.toml`` reads it as the distribution version
(``[tool.setuptools.dynamic]``), and every ``--json`` CLI payload and
every ``repro.serve`` response envelope carries it so clients can gate
on compatibility.
"""

from __future__ import annotations

__version__ = "1.0.0"


def package_version() -> str:
    """The version clients see."""
    return __version__
