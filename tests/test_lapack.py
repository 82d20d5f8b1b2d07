"""The package's LAPACK and BLAS come from scipy's compiled modules,
loaded without ``scipy.linalg``'s ``__init__`` (``pivotkit._lapack``)."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pivotkit import IndexSet, SingularBlockError, core

REPO = Path(__file__).resolve().parents[1]

# Digests of ppt, sequential_inverse and block_inverse on seeded draws; with
# HIDE set, the extension files are hidden from the loader, which must then
# fall back to the ordinary ``import scipy.linalg._flapack``.
OUTPUTS = """
import hashlib, importlib.machinery, json, sys
if HIDE:
    importlib.machinery.EXTENSION_SUFFIXES.clear()
import numpy as np
import pivotkit
from pivotkit import block_inverse, ppt, sequential_inverse
rng = np.random.default_rng(2024)
digests = []
for n in (6, 40, 100):
    for _ in range(3):
        a = np.eye(n) + rng.standard_normal((n, n)) / (3 * np.sqrt(n))
        alpha = [i + 1 for i in range(n) if rng.random() < 0.5] or [1]
        blocks = [list(range(s + 1, min(n, s + 7) + 1)) for s in range(0, n, 7)]
        for out in (ppt(a, alpha), block_inverse(a, alpha),
                    sequential_inverse(a, blocks),
                    sequential_inverse(a, [[i + 1] for i in range(n)])):
            digests.append(hashlib.sha256(out.tobytes()).hexdigest())
print(json.dumps({"linalg": "scipy.linalg" in sys.modules, "digests": digests}))
"""


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=REPO, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def test_cli_import_leaves_scipy_linalg_unloaded():
    got = run_python(
        "import json, sys\n"
        "import pivotkit.cli\n"
        "print(json.dumps([m in sys.modules for m in "
        "('scipy.linalg', 'numpy.f2py', 'scipy.linalg._flapack', "
        "'scipy.linalg._fblas')]))")
    assert got == [False, False, True, True]


def test_later_scipy_linalg_import_reuses_the_loaded_modules():
    got = run_python(
        "import json\n"
        "import pivotkit\n"
        "from pivotkit import core\n"
        "import scipy.linalg\n"
        "from scipy.linalg import blas, lapack\n"
        "a = [[4.0, 3.0], [6.0, 3.0]]\n"
        "print(json.dumps([lapack.dgetrf is core.dgetrf, lapack.dgetrs is core.dgetrs,\n"
        "                  blas.dgemm is core.dgemm, blas.dtrsm is core.dtrsm,\n"
        "                  scipy.linalg.det(a)]))")
    assert got == [True, True, True, True, -6.0]


def test_later_scipy_linalg_import_hands_back_the_rank_one_update():
    # singleton pivot stages update in place with core.dger
    got = run_python(
        "import json\n"
        "from pivotkit import core\n"
        "from scipy.linalg import blas\n"
        "print(json.dumps(blas.dger is core.dger))")
    assert got is True


def test_scipy_linalg_in_this_process_shares_the_routines():
    from scipy.linalg import blas, lapack

    from pivotkit import _lapack

    assert lapack.dgetrf is core.dgetrf
    assert blas.dgemm is core.dgemm
    # an entry already in sys.modules is reused
    assert _lapack._load("_flapack") is _lapack.flapack


def test_fallback_import_gives_the_same_bits():
    direct = run_python("HIDE = False\n" + OUTPUTS)
    fallback = run_python("HIDE = True\n" + OUTPUTS)
    assert (direct["linalg"], fallback["linalg"]) == (False, True)
    assert len(direct["digests"]) == 36
    assert fallback["digests"] == direct["digests"]


@pytest.mark.parametrize("order", [*range(1, 13), 31, 32, 100])
def test_lu_factor_matches_scipy_bit_for_bit(order):
    from scipy.linalg import LinAlgWarning, lu_factor

    rng = np.random.default_rng(3000 + order)
    a = rng.standard_normal((order, order))
    singular = rng.integers(-2, 3, (order, order)).astype(float)
    singular[:, order // 2] = 0.0  # an exactly zero pivot: dgetrf's info > 0
    for m in (a, np.asfortranarray(a), singular):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            want_lu, want_piv = lu_factor(m, check_finite=False)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            lu, piv, _ = core._lu_factor(m)
        assert seen == []
        assert np.array_equal(lu, want_lu) and np.array_equal(piv, want_piv)
        assert lu.dtype == want_lu.dtype and piv.dtype == want_piv.dtype
    assert core.dgetrf(singular)[2] > 0
    with pytest.raises(SingularBlockError):
        core._lu_checked(singular, IndexSet(range(1, order + 1), order))
