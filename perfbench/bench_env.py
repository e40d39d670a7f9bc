"""Where the benchmark finds the program, and what it records about
the machine next to every result."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one thread per child; fixed string hashing so set orders, and with them
# the traced call counts, repeat from run to run
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def use_checkout_source():
    """Import atomcat from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "atomcat" / "__init__.py").is_file():
        raise SystemExit(f"no atomcat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import atomcat
    if pathlib.Path(atomcat.__file__).resolve().parent != SRC / "atomcat":
        raise SystemExit(f"atomcat imported from {atomcat.__file__}")
    return atomcat


def src_line_count():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "atomcat").rglob("*.py")))


def git_sha():
    if not (ROOT / ".git").exists():
        return None   # an exported checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """Run environment recorded with every result (child side)."""
    import platform

    import numpy

    from atomcat import backend
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numba_imports": numba_imports,
            "backend": backend.selected(),
            "src_lines": src_line_count()}
