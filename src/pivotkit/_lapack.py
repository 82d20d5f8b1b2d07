"""scipy's LAPACK and BLAS extension modules, without ``scipy.linalg``.

``from scipy import linalg`` runs the whole ``scipy.linalg`` package
``__init__`` (its array-API layer and ``numpy.f2py`` with it), about
0.3 s of every import on a 2-core x86 machine, where the package needs
only the compiled ``_flapack`` and ``_fblas`` modules.  Only the
top-level ``scipy`` package is imported (its NumPy-version check and
distributor setup run as usual); the two extension files are loaded by
location and registered in ``sys.modules`` under their own names, so a
later ``import scipy.linalg`` reuses these same module objects.  An
entry already in ``sys.modules`` is reused; if the files are not where
this layout expects them, the ordinary import is the fallback.
"""
from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name: str):
    """The module ``scipy.linalg.<name>``."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    for root in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(full, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[full] = module
                return module
    return importlib.import_module(full)


flapack = _load("_flapack")
fblas = _load("_fblas")
