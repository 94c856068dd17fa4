"""Importing tubelab makes one BLAS thread the process default, before numpy
loads, unless the user already chose a thread count."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints the variable after `import tubelab`, then the thread count that
# numpy's bundled OpenBLAS reports, or "missing" without that symbol
PROBE = """
import ctypes, glob, os
import tubelab
import numpy
print(os.environ.get("OPENBLAS_NUM_THREADS"))
threads = "missing"
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
    fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if fn is not None:
        fn.restype = ctypes.c_int
        threads = fn()
print(threads)
"""


def probe(threads=None, code=PROBE):
    """Run `code` in a fresh interpreter with OPENBLAS_NUM_THREADS set to
    `threads`, or removed for None; its output lines."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_sets_one_thread():
    assert probe()[0] == "1"


def test_user_thread_count_wins():
    assert probe("2")[0] == "2"


def test_numpy_openblas_runs_one_thread():
    threads = probe()[1]
    if threads == "missing":
        pytest.skip("numpy's bundled OpenBLAS exports no scipy_openblas_get_num_threads64_ "
                    "(another BLAS, or another build), so its thread count cannot be read")
    assert threads == "1"


def test_package_import_loads_nothing_else():
    # `import tubelab` sets the thread default and loads no numpy and no
    # tubelab submodule, so the default is set before numpy loads wherever
    # the package is imported first
    code = ("import os, sys, tubelab\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tubelab.')))")
    threads, *loaded = probe(code=code)
    assert loaded == []
    assert threads == "1"
