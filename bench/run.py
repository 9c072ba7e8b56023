"""Run one ccx benchmark workload and print its result.

    python3 bench/run.py --workload train-step --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and measures the ``ccx`` package
in its ``src/`` directory, in this one process, with BLAS pinned to one
thread. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run (see layertrace.py). Earlier lines of
standard output give the environment and the workload's own metrics;
the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exit codes: 0 measured (``correct`` tells whether every check passed),
1 no operation completed, 2 usage error or no ``ccx`` source to measure.
"""

import os

# BLAS threads are pinned before anything imports numpy
BLAS_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-step", "caption-greedy", "ckpt-metrics")


def git_commit(root):
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cfg):
    import numpy as np
    from ccx import config

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": BLAS_PINS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "config_fingerprint": config.fingerprint(cfg),
        "git_commit": git_commit(ROOT),
    }


def import_ccx():
    """Import ccx from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ccx
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ccx from {src}: {exc}") from None
    if src.resolve() not in Path(ccx.__file__).resolve().parents:
        raise SystemExit(f"bench: ccx imported from {ccx.__file__}, not from {src}")


@contextmanager
def scratch_dir(prefix):
    """A fresh directory under .bench_work/ in the checkout, removed afterwards."""
    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        import_ccx()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import workloads as W

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cfg = W.default_config()
    print(f"bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(cfg), sort_keys=True))
    try:
        with scratch_dir(f"{args.workload}-") as work:
            if args.trace:
                result = W.run_traced(args.workload, cfg, args.seed, args.seconds, work)
                units = W.layer_metrics(cfg)
            else:
                result = W.run_plain(args.workload, cfg, args.seed, args.seconds, work)
                units = W.END_TO_END
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, value, unit in result.report:
        print(f"{name} {value!r} {unit}")
    print(result.line(units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
