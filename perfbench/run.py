"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (``eval-narrow``, ``eval-wide``, ``inference`` or
``serve``) from ``--seed``, checks every result, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). With ``--trace 0`` the metrics
are the end-to-end list of ``perfbench/catalog.py``, measured with no
instrumentation installed; with ``--trace 1`` they are the per-layer
list, from a traced run that wraps each layer's public functions, and
the spans are written to ``.perfbench/<workload>-trace.json`` and
validated with the ``repro.obs`` trace checker. Notes, the environment
fingerprint and any error go to standard error. Exit status: 0 when
every check held, 1 when one failed, 2 on a usage error or when the
program's sources are missing.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads: the serve workload
# runs two pool threads on two cores, and threads x BLAS threads must
# not exceed the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("eval-narrow", "eval-wide", "inference", "serve")
#: Units of work whose spans go into the trace file (all are aggregated).
EXPORT_UNITS = 64


def build_parser() -> argparse.ArgumentParser:
    """Command-line interface."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="scales the fixed amount of work (see README.md)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint() -> dict:
    """Where and with what the numbers were measured."""
    import numpy
    from repro.beagle import resources

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    backend = resources.resolve_backend(None).info
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": f"{backend.name} ({backend.kind}, {backend.parity})",
        "backend_override": os.environ.get(resources.BACKEND_ENV_VAR),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    """Dispatch to the workload module."""
    if name in ("eval-narrow", "eval-wide"):
        import w_eval

        config = w_eval.NARROW if name == "eval-narrow" else w_eval.WIDE
        return w_eval.run(config, seed, seconds, trace)
    if name == "inference":
        import w_inference

        return w_inference.run(seed, seconds, trace)
    import w_serve

    return w_serve.run(seed, seconds, trace)


def write_trace(name: str, result, env: dict) -> bool:
    """Write the traced run's spans and validate them with ``repro.obs``."""
    from repro.obs.__main__ import run as validate_cli
    from spans import chrome_trace

    kept_units: set = set()
    spans = []
    for span in result.spans:
        if span.unit is not None and span.unit not in kept_units:
            if len(kept_units) >= EXPORT_UNITS:
                continue
            kept_units.add(span.unit)
        spans.append(span)
    epoch = min((s.start for s in spans), default=0.0)
    document = chrome_trace(spans, epoch)
    document["otherData"] = env
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-trace.json"
    with open(path, "w") as handle:
        json.dump(document, handle)
    return validate_cli(["--trace", str(path)], out=sys.stderr) == 0


def main(argv=None) -> int:
    """Entry point; returns the exit status."""
    args = build_parser().parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import catalog

    env = fingerprint()
    print("fingerprint: " + json.dumps(env, sort_keys=True), file=sys.stderr)
    started = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace and not write_trace(args.workload, result, env):
        result.checks_ok = False
        result.notes.append("error: the trace file failed validation")
    for note in result.notes:
        print(note, file=sys.stderr)
    print(f"{args.workload}: {time.perf_counter() - started:.1f} s total",
          file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": catalog.emit(result.metrics, bool(args.trace)),
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
