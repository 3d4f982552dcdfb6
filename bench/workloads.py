"""Seeded channel generator and the op lists of the three workloads.

An op is one ``binquant`` CLI command; the program only ever sees the config
files written here.  The same seed gives byte-identical configs.

* ``solve`` - ``solve --format json`` on the shipped configs, single-Gaussian
  pairs and 2-4-component mixtures (narrow components, multimodal
  posteriors): time goes to the solver -> F -> level-set loop.
* ``tabulate`` - a 99-level ``sweep`` on mixtures plus fig5: the same
  channel/likelihood layers on a fixed level batch, with no outer search.
* ``certify`` - ``verify`` with n = 1, 2, 3 on the shipped configs and one
  single-Gaussian pair: the op is verify's own ``solve`` and
  ``structural_checks`` plus the brute-force ``grid_search``.  The grid
  step of each op is set from the channel's window so that every op of one
  n enumerates the same number of tuples whatever the seed.

Each generated channel fills a *slot* (``gauss00``, ``mix03``, ...).  The
candidates of a slot are drawn one after another (``mix03``, ``mix03-1``,
...) until one meets the program's preconditions; the benchmark decides
that from its own certificate, so this module only draws candidates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from certificate import SWEEP_LEVELS, search_window

WORKLOADS = ("solve", "tabulate", "certify")

SHIPPED = ("example1", "example2", "fig5")

#: Generated channels per workload: (single-Gaussian pairs, mixtures).
GENERATED = {"solve": (4, 8), "tabulate": (0, 11), "certify": (1, 0)}

#: Shipped configs each workload runs.
SHIPPED_USED = {"solve": SHIPPED, "tabulate": ("fig5",), "certify": SHIPPED}

#: Grid points of the oracle's search grid for n = 1, 2, 3 thresholds: 1001
#: for n = 2 (500k pairs) and 81 for n = 3 (85k tuples), not the 2336 and 187
#: of the 0.02 and 0.25 steps on example2, so that an op takes well under a
#: second and each op runs in several passes of one run.
ORACLE_POINTS = {1: 100_001, 2: 1001, 3: 81}

#: Component counts (phi0, phi1) of the mixture in slot ``mix<i>``.  They
#: are the same for every seed, because an op's cost grows with the
#: component count: only the parameters vary with the seed.
MIXTURE_SHAPES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 1), (2, 2), (4, 1), (3, 2))


@dataclass(frozen=True)
class Op:
    """One CLI command: its kind, the channel (and n) it runs on, and its argv."""

    kind: str
    name: str
    argv: tuple[str, ...]
    out_path: Path | None = None


def _component(rng: random.Random, narrow: bool) -> dict:
    stddev = rng.uniform(0.02, 0.15) if narrow else rng.uniform(0.3, 2.5)
    return {"mean": round(rng.uniform(-4.0, 4.0), 6), "stddev": round(stddev, 6), "weight": 1.0}


def _mixture(rng: random.Random, k: int, narrow_share: float) -> dict:
    comps = [_component(rng, rng.random() < narrow_share) for _ in range(k)]
    raw = [1.0 + 4.0 * rng.random() for _ in range(k)]
    total = sum(raw)
    weights = [round(r / total, 6) for r in raw[:-1]]
    weights.append(1.0 - sum(weights))
    for comp, w in zip(comps, weights):
        comp["weight"] = w
    return {"components": comps}


def single_gaussian_channel(rng: random.Random) -> dict:
    """Unequal-variance Gaussian pair with a skewed prior."""
    mu0 = rng.uniform(-2.0, 2.0)
    mu1 = mu0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
    return {
        "prior": {"p0": round(rng.uniform(0.25, 0.75), 6)},
        "phi0": {"components": [{"mean": round(mu0, 6), "stddev": round(rng.uniform(0.4, 3.0), 6), "weight": 1.0}]},
        "phi1": {"components": [{"mean": round(mu1, 6), "stddev": round(rng.uniform(0.4, 3.0), 6), "weight": 1.0}]},
    }


def mixture_channel(rng: random.Random, shape: tuple[int, int]) -> dict:
    """A mixture channel with ``shape`` = (components of phi0, of phi1); some narrow."""
    return {
        "prior": {"p0": round(rng.uniform(0.3, 0.7), 6)},
        "phi0": _mixture(rng, shape[0], narrow_share=0.3),
        "phi1": _mixture(rng, shape[1], narrow_share=0.15),
    }


def shipped_configs(workload: str, shipped_dir: Path) -> dict[str, dict]:
    """The shipped configs the workload runs, by name."""
    return {name: json.loads((shipped_dir / f"{name}.json").read_text()) for name in SHIPPED_USED[workload]}


def slots(workload: str) -> list[str]:
    """The names of the workload's generated channel slots."""
    n_single, n_mix = GENERATED[workload]
    return [f"gauss{i:02d}" for i in range(n_single)] + [f"mix{i:02d}" for i in range(n_mix)]


def candidate(workload: str, seed: int, slot: str, attempt: int) -> tuple[str, dict]:
    """Candidate number ``attempt`` for ``slot``: its channel name and config."""
    rng = random.Random(f"{workload}:{seed}:{slot}:{attempt}")
    name = slot if attempt == 0 else f"{slot}-{attempt}"
    if slot.startswith("gauss"):
        return name, single_gaussian_channel(rng)
    return name, mixture_channel(rng, MIXTURE_SHAPES[int(slot[3:]) % len(MIXTURE_SHAPES)])


def write_configs(configs: dict[str, dict], out_dir: Path) -> dict[str, Path]:
    """Write each config as JSON; returns the path of each by name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, config in configs.items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


def build_ops(workload: str, configs: dict[str, dict], paths: dict[str, Path], out_dir: Path) -> list[Op]:
    """One pass of the workload: every op once."""
    ops = []
    for name, config in configs.items():
        cfg = str(paths[name])
        if workload == "solve":
            ops.append(Op("solve", name, ("solve", "--config", cfg, "--format", "json")))
        elif workload == "tabulate":
            out = out_dir / f"{name}.csv"
            argv = ("sweep", "--config", cfg, "--a-min", repr(float(SWEEP_LEVELS[0])),
                    "--a-max", repr(float(SWEEP_LEVELS[-1])), "--steps", str(SWEEP_LEVELS.size),
                    "--out", str(out))
            ops.append(Op("sweep", name, argv, out))
        else:
            lo, hi = search_window(config)
            for n, points in ORACLE_POINTS.items():
                step = (hi - lo) / (points - 1)
                argv = ("verify", "--config", cfg, "--n-thresholds", str(n), "--grid-step", repr(step))
                ops.append(Op("verify", f"{name}/n{n}", argv))
    return ops
