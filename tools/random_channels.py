"""Solve 300 random narrow-component mixture channels and score each outcome against a certificate.

Usage, from the repository root (about 3 minutes)::

    PYTHONPATH=src python tools/random_channels.py [--each]

The channels are drawn from ``np.random.default_rng(7)`` in one fixed order.
For each channel: p0 from U(0.2, 0.8); then, for density0 and then
density1, a component count k from {1, 2, 3}, Dirichlet(1) weights, k means
from U(-5, 5), and for each component three draws in turn, u from U(0, 1),
a stddev log-uniform on [3e-4, 3e-2] and one from U(0.3, 3), the first of
the two taken when u < 0.3.  Every draw is made whatever its outcome, so
channel i is the same channel for every version of the solver.

Each channel is scored by ``bench/certificate.certify`` at 400,001 cells,
which imports nothing from ``binquant``:

* ``correct``: a design that ``certificate.check_solve`` passes;
* ``degenerate``: ``DegenerateChannelError`` where the certificate's best
  quantizer errs with probability at most 1e-9, which ``solve`` cannot
  tell from 0;
* ``no-information``: ``NoSignChangeError`` where the certificate carries
  at most 1e-9 bits;
* every other outcome is wrong: ``below-certificate`` (a design that fails
  ``check_solve``), or the name of the exception raised.

It prints the count of each outcome kind, the total number of
``channel.stationarity`` calls made by ``solve``, the total number of
levels those calls evaluated and the total number of level searches (one
per candidate); ``--each`` also prints one line per channel (number, kind,
calls, levels, searches, and the design's or the error's text), so a
channel can be cited by its number.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import certificate  # noqa: E402

from binquant import DegenerateChannelError, DensityModel, GaussianComponent, NoSignChangeError, Prior  # noqa: E402
from binquant import channel_spec, solver  # noqa: E402

CHANNELS = 300
CELLS = 400_001
COUNTS = ("stationarity calls", "levels evaluated", "level searches")


def _density(rng: np.random.Generator) -> dict:
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-5.0, 5.0, k)
    stddevs = []
    for _ in range(k):
        narrow, log_sd, wide = rng.random(), rng.uniform(math.log(3e-4), math.log(3e-2)), rng.uniform(0.3, 3.0)
        stddevs.append(math.exp(log_sd) if narrow < 0.3 else wide)
    return {"components": [{"mean": m, "stddev": s, "weight": w} for m, s, w in zip(means, stddevs, weights)]}


def channels(count: int = CHANNELS):
    """The ``count`` channel configs, as the dictionaries a config file holds."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        p0 = rng.uniform(0.2, 0.8)
        yield {"prior": {"p0": p0}, "phi0": _density(rng), "phi1": _density(rng)}


def _spec(config: dict):
    density0, density1 = (
        DensityModel(tuple(GaussianComponent(**c) for c in config[key]["components"])) for key in ("phi0", "phi1")
    )
    return channel_spec(Prior(p0=config["prior"]["p0"]), density0, density1)


def _solve(config: dict) -> tuple[str, str, collections.Counter]:
    """(outcome kind, text, each of COUNTS) of ``solve`` on ``config``."""
    counts = collections.Counter()
    real_f, real_search = solver.stationarity, solver._candidate_search

    def counted_f(spec, level, *args):
        counts["stationarity calls"] += 1
        counts["levels evaluated"] += np.size(level)
        return real_f(spec, level, *args)

    def counted_search(*args):
        counts["level searches"] += 1
        return real_search(*args)

    cert = certificate.certify(config, CELLS)
    solver.stationarity, solver._candidate_search = counted_f, counted_search
    try:
        design = solver.solve(_spec(config))
    except DegenerateChannelError as err:
        genuine = (cert.excluded or "").startswith("error probabilities")
        return ("degenerate" if genuine else "DegenerateChannelError"), str(err), counts
    except NoSignChangeError as err:
        return ("no-information" if cert.mi_bits <= 1e-9 else "NoSignChangeError"), str(err), counts
    except Exception as err:  # every other error is a wrong outcome, counted by its name
        return type(err).__name__, str(err), counts
    finally:
        solver.stationarity, solver._candidate_search = real_f, real_search
    text = json.dumps({"thresholds": design.thresholds, "mapping": design.mapping, "mi_bits": design.mi_bits})
    failure = certificate.check_solve(config, cert, text)
    return ("below-certificate", failure, counts) if failure else ("correct", text, counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true", help="print one line per channel")
    args = parser.parse_args(argv)
    kinds, totals = collections.Counter(), collections.Counter()
    for i, config in enumerate(channels()):
        kind, text, counts = _solve(config)
        kinds[kind] += 1
        totals.update(counts)
        if args.each:
            print(i, kind, *(counts[name] for name in COUNTS), text, flush=True)
    for kind, count in sorted(kinds.items()):
        print(f"{kind:22s} {count}")
    for name in COUNTS:
        print(f"{name:22s} {totals[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
