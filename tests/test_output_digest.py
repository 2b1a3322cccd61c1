"""The outputs keep their bits: ``scripts/output_digest.py`` on this tree's
``src`` prints, line for line, the golden ``output_digest.txt``.

The golden file's first line names the numpy version and the BLAS that
wrote it; where either differs, the test skips and says so, since another
BLAS kernel may round differently. A change that alters outputs on purpose
writes the file again and says why.
"""
import ctypes
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("output_digest.txt")
# configuration functions of the OpenBLAS builds numpy ships with or links to
CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")


def blas_config() -> str:
    """The loaded OpenBLAS's configuration line, which names the kernel it
    chose for this CPU, or numpy's build-time BLAS where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in CONFIG_SYMBOLS:
            config = getattr(lib, symbol, None)
            if config is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
                return " ".join(config().decode().split())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def header() -> str:
    return f"# numpy {np.__version__}; BLAS {blas_config()}"


def test_the_outputs_keep_their_bits():
    written, *golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    if written != header():
        pytest.skip(f"the golden digest was written by {written[2:]!r}; this is "
                    f"{header()[2:]!r}")
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py"),
                          str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    changed = [f"line {k + 2}: {want!r} -> {got!r}"
               for k, (want, got) in enumerate(zip(golden, lines)) if want != got]
    assert len(lines) == len(golden) and not changed, (len(lines), len(golden), changed)
