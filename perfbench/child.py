"""One benchmark child process.

    python3 child.py [--spans FILE --tag TAG] cli <vrf-sentinel arguments...>
    python3 child.py [--spans FILE --tag TAG] setup <workload> <seed> <outdir>
    python3 child.py check <workload> <seed> <inputs> <outdir>
    python3 child.py machine

With --spans the tracer wraps the program's layer functions first and
writes its spans to FILE when the child ends. The untraced timed steps do
not come through here: they run `python3 -m vrf_sentinel.cli` directly.

`check` and `machine` print one JSON line. They run here rather than in
run.py because Linux carries a parent's peak RSS into the `ru_maxrss` of
every child it starts afterwards, so run.py must never grow: reading a
260,000-row ranked CSV there once raised every later child's "peak RSS" to
231 MiB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _blas_threads() -> int | None:
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library whose pool is read)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    def proc_field(path: str, key: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "git_revision": rev,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--tag", default="")
    parser.add_argument("mode", choices=("cli", "setup", "check", "machine"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    if opts.mode == "machine":
        print(json.dumps(machine()))
        return 0
    if opts.mode == "check":
        from workloads import WORKLOADS

        workload, seed, inputs, out = opts.args
        print(json.dumps(WORKLOADS[workload].check(int(seed), inputs, out)))
        return 0

    from tracer import Tracer
    from vrf_sentinel import cli

    tracer = None
    if opts.spans is not None:
        tracer = Tracer(opts.tag)
        tracer.install()
    try:
        if opts.mode == "cli":
            return cli.main(opts.args)
        import inputs

        workload, seed, out = opts.args
        writer = inputs.WRITERS[workload]
        if tracer is None:
            writer(int(seed), out)
        else:
            tracer.call("setup", writer, int(seed), out)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
