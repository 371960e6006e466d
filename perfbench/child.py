"""Run one ``qamseq`` CLI invocation in this (fresh) process and time it.

Usage: python3 child.py RESULT.json TRACE(0|1) -- <qamseq cli arguments>

Writes {"exit_code", "wall_s", "cpu_s", "peak_rss_mb", "calibration_s"} to
RESULT.json, plus "layers" when TRACE is 1.  "calibration_s" holds the times
of ``calibrate`` just before and just after the timed call.  The caller puts the checkout's ``src`` on
PYTHONPATH and pins the BLAS/OpenMP thread counts before starting it.

Tracing wraps public functions of the ``qamseq`` modules from here, so the
program itself is unchanged.  Each wrapper keeps a span stack: a span's self
time is its duration minus the time of the timed spans it contains, so the
self times of all spans add up to the wall time of ``cli.main``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


# (module, function, span name, count key, count(args, kwargs, result) or None)
# A span name ending in "_self" marks a caller whose children are timed apart.
LAYERS = [
    ("constructions", "build_block", "synthesis.build_block", "synthesis.rows",
     lambda a, k, r: len(r)),
    ("analysis", "star_batch", "correlation.star_batch", "correlation.calls", None),
    ("analysis", "golay_defect_batch", "correlation.golay_defect_batch", "correlation.calls", None),
    ("analysis", "polyphase_lattice", "correlation.polyphase_lattice", "correlation.calls", None),
    ("analysis", "star", "correlation.star", "correlation.calls", None),
    ("analysis", "pep_batch", "envelope.pep_batch", "envelope.fft_points",
     lambda a, k, r: a[0].size * _arg(a, k, 1, "oversample", 16)),
    ("analysis", "pmepr", "envelope.pmepr", "envelope.fft_points",
     lambda a, k, r: len(a[0]) * getattr(_arg(a, k, 1, "cfg", None), "oversample", 16)),
    ("analysis", "ccdf", "ccdf.curve", None, None),
    ("analysis", "random_baseline", "ccdf.baseline", None, None),
    ("verification", "theorem_bound_audit", "audit.theorem_bound_audit_self", "audit.distinct_sequences",
     lambda a, k, r: r.distinct_sequences),
    ("verification", "lemma_sweep", "lemma.sweep", "lemma.evaluations",
     lambda a, k, r: sum(r.evaluations.values())),
    ("verification", "example_regression", "verify.examples", None, None),
    ("verification", "parseval_audit", "verify.parseval", None, None),
    ("verification", "oversampling_audit", "verify.oversampling", None, None),
    ("cli", "codeword_doc", "cli.codeword_doc_self", None, None),
    ("cli", "cmd_enumerate", "cli.cmd_enumerate_self", None, None),
    ("cli", "family_pmeprs", "cli.family_pmeprs_self", None, None),
]
# enumerate_family returns a lazy iterator: its span covers every next() call
ITERATOR_LAYERS = [
    ("constructions", "enumerate_family", "synthesis.enumerate_family", "synthesis.rows"),
]
ROOT = "cli.main_self"


_CAL_VECTOR = np.exp(2j * np.pi * np.arange(16) / 5.0)


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter, small-numpy and JSON work.

    The mix is the kind of work the workloads spend their time on, so a
    slower host stretches both by about the same factor.  It allocates
    little, so it cannot stand in for the workloads' memory traffic.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
    for _ in range(3_000):
        np.correlate(_CAL_VECTOR, _CAL_VECTOR, "full")
    for _ in range(4):
        json.dumps([{"a": i, "b": [i, i + 1, 0.5 * i]} for i in range(1_500)])
    return time.perf_counter() - start


class Tracer:
    """In-memory span accounting: per-name self seconds and counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._children = [0.0]  # timed-children seconds of each open span

    def _open(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._children.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
        self._children[-1] += elapsed
        self.count("trace.spans", 1)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, fn, name, count_key=None, count_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if count_key is not None:
                self.count(count_key, count_fn(args, kwargs, result) if count_fn else 1)
            return result

        return wrapper

    def wrap_iterator(self, fn, name, count_key):
        def timed(iterator):
            while True:
                start = self._open()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(name, start)
                self.count(count_key, 1)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                iterator = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            return timed(iterator)

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace every reference to each traced function inside ``qamseq``.

    Modules import these with ``from .x import f``, so each module holding
    the original object gets the wrapper under the same name.
    """
    modules = [m for name, m in sys.modules.items() if name == "qamseq" or name.startswith("qamseq.")]
    plans = [(mod, fn, tracer.wrap(getattr(sys.modules[f"qamseq.{mod}"], fn), name, key, count))
             for mod, fn, name, key, count in LAYERS]
    plans += [(mod, fn, tracer.wrap_iterator(getattr(sys.modules[f"qamseq.{mod}"], fn), name, key))
              for mod, fn, name, key in ITERATOR_LAYERS]
    for mod, fn, wrapper in plans:
        original = getattr(sys.modules[f"qamseq.{mod}"], fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    result_path, trace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- <qamseq arguments>")
    import qamseq.cli

    run = qamseq.cli.main
    tracer = None
    if trace == "1":
        tracer = Tracer()
        install(tracer)
        run = tracer.wrap(qamseq.cli.main, ROOT)
    before = calibrate()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    exit_code = run(cli_args)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    after = calibrate()
    result = {
        "exit_code": exit_code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": [before, after],
    }
    if tracer is not None:
        result["layers"] = {"self_s": tracer.self_s, "counts": tracer.counts}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
