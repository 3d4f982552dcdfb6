"""Run the binquant CLI from two source trees on the same configs and list every run that differs.

Usage, from the repository root::

    python tools/compare_cli.py PARENT_SRC CHANGE_SRC [DIR ...]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories (each holding a
``binquant`` package), for instance a ``git archive`` of an earlier commit
next to this checkout's ``src``.  Every ``*.json`` file directly inside each
``DIR`` is a config; with no ``DIR``, the committed configs of this
repository, in ``configs/`` and ``tests/data/verify/``, and the benchmark's
attempt-0 configs of seeds 1-3 of every workload, written into a temporary
directory by ``bench/workloads.py``.  On each config the
CLI runs ``solve --format json``, ``solve``, ``sweep`` (default levels, CSV
to a temporary file), ``verify`` three times (the default one-threshold
oracle, then two thresholds at ``--grid-step 0.1`` and three at
``--grid-step 0.5``, so that each of the oracle's n = 1, 2, 3 paths is
compared) and ``classify``.  All runs of one source tree happen in one
worker process, which imports that tree's ``binquant`` and calls
``binquant.cli.main`` in-process, capturing stdout, stderr, the exit code
and the CSV.  Each run gets fresh warning filters, so a warning shows once
per run, as it would in a process of its own.

Prints one line per run whose stdout, stderr, exit code or CSV differs
between the trees, then a summary line; exits 1 when any run differs.  Each
line ends with the largest absolute difference between corresponding
non-integer numbers of the two runs' outputs and how many integers (counts
such as ``iterations``) differ, so a run whose levels moved only within a
tolerance reads as such; when the outputs hold different counts of
numbers, it says so instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The config directories compared when no DIR is given.
COMMITTED_DIRS = [ROOT / d for d in ("configs", "tests/data/verify")]

#: The benchmark seeds whose attempt-0 configs are compared when no DIR is given.
BENCH_SEEDS = (1, 2, 3)

#: The CLI arguments of each run, after the config; ``{csv}`` is the sweep's output file.
COMMANDS = {
    "solve-json": ["solve", "--format", "json"],
    "solve-text": ["solve"],
    "sweep": ["sweep", "--out", "{csv}"],
    "verify": ["verify"],
    "verify-n2": ["verify", "--n-thresholds", "2", "--grid-step", "0.1"],
    "verify-n3": ["verify", "--n-thresholds", "3", "--grid-step", "0.5"],
    "classify": ["classify"],
}

#: A decimal number in an output, not part of a word (so not the 02 of ``mix02``).
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def _run_all(configs: list[str]) -> list[dict]:
    """Every command on every config, in this process; one record per run."""
    from binquant.cli import main

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "sweep.csv")
        for config in configs:
            for name, args in COMMANDS.items():
                argv = [args[0], "--config", config, *(a.format(csv=csv) for a in args[1:])]
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    warnings.simplefilter("default")
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # a crash is an outcome to compare too
                        code = f"raised {type(exc).__name__}: {exc}"
                text = None
                if os.path.exists(csv):
                    with open(csv, encoding="utf-8") as fh:
                        text = fh.read()
                    os.remove(csv)
                records.append(
                    {"config": config, "command": name, "stdout": out.getvalue(),
                     "stderr": err.getvalue(), "code": code, "csv": text}
                )
    return records


def _bench_configs(out_dir: Path) -> list[str]:
    """The attempt-0 config of every slot of every workload for BENCH_SEEDS, written under ``out_dir``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    paths = []
    for workload in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            configs = dict(workloads.candidate(workload, seed, slot, 0) for slot in workloads.slots(workload))
            paths += [str(p) for p in workloads.write_configs(configs, out_dir / f"{workload}-{seed}").values()]
    return paths


def _records(src: str, configs: list[str]) -> list[dict]:
    """The records of one source tree, from a worker process that imports ``binquant`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", *configs], env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _largest_difference(old: dict, new: dict) -> str:
    """The largest absolute difference between corresponding non-integer numbers of two runs; how many integers differ.

    The numbers are read from stdout, stderr and the CSV, in that order.
    Integers are counted apart, so a changed count does not hide a small
    move of a level or a threshold.
    """
    numbers = [[x for k in ("stdout", "stderr", "csv") for x in NUMBER.findall(run[k] or "")] for run in (old, new)]
    if len(numbers[0]) != len(numbers[1]):
        return f"{len(numbers[0])} against {len(numbers[1])} numbers"
    pairs = [(x, y) for x, y in zip(*numbers) if x != y]
    whole = [all(v.lstrip("+-").isdigit() for v in pair) for pair in pairs]
    largest = max((abs(float(x) - float(y)) for (x, y), w in zip(pairs, whole) if not w), default=0.0)
    return f"largest difference {largest:.3g}" + (f", {sum(whole)} integer(s) differ" if any(whole) else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("dirs", nargs="*")
    args = parser.parse_args(argv)
    configs = [str(p) for d in args.dirs or COMMITTED_DIRS for p in sorted(Path(d).glob("*.json"))]
    with tempfile.TemporaryDirectory() as tmp:
        if not args.dirs:
            configs += _bench_configs(Path(tmp))
        parent, change = _records(args.parent_src, configs), _records(args.change_src, configs)
    differing = 0
    for old, new in zip(parent, change):
        fields = [k for k in ("stdout", "stderr", "code", "csv") if old[k] != new[k]]
        if fields:
            differing += 1
            print(f"DIFFERS {old['command']:<10} {old['config']}: {', '.join(fields)}; {_largest_difference(old, new)}")
    print(f"{differing} of {len(parent)} runs differ ({len(configs)} configs x {len(COMMANDS)} commands)")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        json.dump(_run_all(sys.argv[2:]), sys.stdout)
    else:
        sys.exit(main())
