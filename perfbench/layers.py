"""Per-layer tracing of ineqlab from outside the program.

``Tracer.install`` wraps the public functions of each ineqlab module, and
numpy's dense symmetric eigensolvers, in spans.  A wrapper replaces the
original at every place it is bound: module attributes, package
re-exports and names bound by ``from ... import``.  Spans are kept in
memory; ``Tracer.metrics`` reduces them to per-layer counts and times
once the run is over, and ``Tracer.write`` dumps them once at the end.

A span's self time is its duration minus the time covered by its child
spans.  Calls run synchronously in one thread, so children never overlap
and their durations add.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time

# public functions traced besides make_lattice, operators.build_* and verify.*
SPECTRA_FUNCS = ("schrodinger_eigenvalues", "count_below", "riesz_mean",
                 "riesz_mean_from_counts", "heat_kernel", "heat_norms",
                 "trotter_trace", "birman_schwinger")
FUNCTIONAL_FUNCS = ("sobolev_constant", "sobolev_interp_constant",
                    "heat_bound_check", "nash_check")
LINALG_FUNCS = ("eigh", "eigvalsh")

# per-layer metric name -> unit, in output order
UNITS = {
    "functional.sobolev_constant.calls": "count",
    "functional.sobolev_constant.self_s": "s",
    "functional.sobolev_constant.iterations": "count",
    "functional.sobolev_interp_constant.self_s": "s",
    "functional.heat_bound_check.total_s": "s",
    "functional.nash_check.self_s": "s",
    "spectra.schrodinger_eigenvalues.calls": "count",
    "spectra.spectra_per_draw": "ratio",
    "spectra.heat_kernel.calls": "count",
    "spectra.heat_kernel.self_s": "s",
    "spectra.count_below.total_s": "s",
    "spectra.riesz.total_s": "s",
    "spectra.heat_norms.total_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.self_s": "s",
    "linalg.eigvalsh.calls": "count",
    "linalg.eigvalsh.self_s": "s",
    "linalg.eig_n3_computed": "n3",
    "operators.build.calls": "count",
    "operators.build.self_s": "s",
    "operators.beurling_deny_check.self_s": "s",
    "lattice.make_lattice.calls": "count",
    "lattice.make_lattice.self_s": "s",
    "verify.run_scenario.calls": "count",
    "verify.run_scenario.self_s": "s",
    "verify.checks.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _digest(*arrays) -> str:
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


class Tracer:
    """In-memory span recorder with wrappers for ineqlab's layers."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, child seconds, info]
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self._operators: dict = {}   # id(T) -> (T, digest); T is kept alive so ids stay unique

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, *, before=None, after=None):
        """Return fn wrapped in a span; before(args, kwargs) and after(result)
        may each return a dict stored with the span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, 0.0, info])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[2] = end
                if span[3] >= 0:
                    spans[span[3]][4] += end - span[1]
            if after:
                extra = after(result)
                span[5] = {**(span[5] or {}), **extra}
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every layer function wherever ineqlab or numpy.linalg binds it."""
        import numpy.linalg

        from ineqlab import functional, lattice, operators, spectra, verify

        targets = [(lattice, "make_lattice", "lattice.make_lattice", {})]
        for fname in dir(operators):
            if fname.startswith("build_") or fname == "fractional_laplacian":
                targets.append((operators, fname, "operators.build", {}))
        targets.append((operators, "beurling_deny_check", "operators.beurling_deny_check", {}))
        for fname in SPECTRA_FUNCS:
            hooks = {"before": self._pair_key} if fname == "schrodinger_eigenvalues" else {}
            targets.append((spectra, fname, f"spectra.{fname}", hooks))
        for fname in FUNCTIONAL_FUNCS:
            hooks = {"after": _iterations} if fname == "sobolev_constant" else {}
            targets.append((functional, fname, f"functional.{fname}", hooks))
        targets.append((verify, "run_scenario", "verify.run_scenario", {}))
        for fname in dir(verify):
            if fname.startswith("verify_"):
                targets.append((verify, fname, f"verify.{fname}", {}))
        for fname in LINALG_FUNCS:
            targets.append((numpy.linalg, fname, f"linalg.{fname}", {"before": _n3}))

        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "ineqlab" or k.startswith("ineqlab."))]
        namespaces.append(numpy.linalg)
        for module, fname, span_name, hooks in targets:
            original = getattr(module, fname)
            if not callable(original):
                continue
            wrapper = self.wrap(span_name, original, **hooks)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        self._operators.clear()

    def _pair_key(self, args, kwargs) -> dict:
        T = args[0] if args else kwargs["T"]
        V = args[1] if len(args) > 1 else kwargs["V"]
        entry = self._operators.get(id(T))
        if entry is None:
            entry = (T, _digest(T.form, T.measure))
            self._operators[id(T)] = entry
        return {"pair": entry[1] + _digest(V)}

    # -- reduction -----------------------------------------------------------

    def _outermost(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return False
            parent = self.spans[parent][3]
        return True

    def metrics(self, *, root: str, report_bytes: int, overhead_s: float) -> dict:
        """Per-layer metrics, keyed as in UNITS, from the recorded spans."""
        calls: dict = {}
        self_s: dict = {}
        for name, start, end, _parent, child, _info in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)

        def outer(*names) -> list:
            """Spans of these names that are not nested in one of them."""
            return [s for i, s in enumerate(self.spans)
                    if s[0] in names and self._outermost(i, names)]

        def total(*names) -> float:
            return sum(s[2] - s[1] for s in outer(*names))

        infos = [(s[0], s[5]) for s in self.spans if s[5]]
        pairs = {info["pair"] for name, info in infos
                 if name == "spectra.schrodinger_eigenvalues"}
        n_spectra = calls.get("spectra.schrodinger_eigenvalues", 0)
        values = {
            "functional.sobolev_constant.calls": calls.get("functional.sobolev_constant", 0),
            "functional.sobolev_constant.self_s": self_s.get("functional.sobolev_constant", 0.0),
            "functional.sobolev_constant.iterations": sum(
                info.get("iterations", 0) for name, info in infos
                if name == "functional.sobolev_constant"),
            "functional.sobolev_interp_constant.self_s":
                self_s.get("functional.sobolev_interp_constant", 0.0),
            "functional.heat_bound_check.total_s": total("functional.heat_bound_check"),
            "functional.nash_check.self_s": self_s.get("functional.nash_check", 0.0),
            "spectra.schrodinger_eigenvalues.calls": n_spectra,
            "spectra.spectra_per_draw": n_spectra / len(pairs) if pairs else 0.0,
            "spectra.heat_kernel.calls": calls.get("spectra.heat_kernel", 0),
            "spectra.heat_kernel.self_s": self_s.get("spectra.heat_kernel", 0.0),
            "spectra.count_below.total_s": total("spectra.count_below"),
            "spectra.riesz.total_s": total("spectra.riesz_mean", "spectra.riesz_mean_from_counts"),
            "spectra.heat_norms.total_s": total("spectra.heat_norms"),
            "linalg.eigh.calls": calls.get("linalg.eigh", 0),
            "linalg.eigh.self_s": self_s.get("linalg.eigh", 0.0),
            "linalg.eigvalsh.calls": calls.get("linalg.eigvalsh", 0),
            "linalg.eigvalsh.self_s": self_s.get("linalg.eigvalsh", 0.0),
            "linalg.eig_n3_computed": sum(info.get("n3", 0) for name, info in infos
                                          if name.startswith("linalg.")),
            "operators.build.calls": len(outer("operators.build")),
            "operators.build.self_s": self_s.get("operators.build", 0.0),
            "operators.beurling_deny_check.self_s":
                self_s.get("operators.beurling_deny_check", 0.0),
            "lattice.make_lattice.calls": calls.get("lattice.make_lattice", 0),
            "lattice.make_lattice.self_s": self_s.get("lattice.make_lattice", 0.0),
            "verify.run_scenario.calls": calls.get("verify.run_scenario", 0),
            "verify.run_scenario.self_s": self_s.get("verify.run_scenario", 0.0),
            "verify.checks.self_s": sum(v for k, v in self_s.items()
                                        if k.startswith("verify.verify_")),
            "cli.self_s": self_s.get(root, 0.0),
            "cli.report_bytes": report_bytes,
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.spans),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}

    def write(self, path: str):
        """Write all spans as JSON: name, start and end (s), parent index, self time, info."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3],
                 "self_s": s[2] - s[1] - s[4], **({"info": s[5]} if s[5] else {})}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _iterations(result) -> dict:
    return {"iterations": int(result[1].iterations)}


def _n3(args, kwargs) -> dict:
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return {"n3": 0}
    return {"n3": math.prod(shape[:-2]) * shape[-1] ** 3}
