"""Process set-up shared by the benchmark's entry points.

``prepare`` pins the BLAS thread count before numpy is imported and puts the
checkout's ``src`` first on ``sys.path``, so the benchmark always runs the
package of the tree it sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


class MissingPackage(Exception):
    """The checkout holds no ``src/lexchain`` package to benchmark."""


def prepare() -> Path:
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for name in THREAD_VARS:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "lexchain" / "__init__.py").is_file():
        raise MissingPackage(f"no lexchain package under {src}")
    sys.path.insert(0, str(src))
    return ROOT
