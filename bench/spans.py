"""In-memory span tracing of spinscatter's layers, from outside the package.

The tracer replaces public names in the package's module namespaces with
wrappers that record a span per call: name, start, end, parent span and the
operation it belongs to.  A function is patched where its caller looks it up
(e.g. `spinscatter.protocols.two_impurity_exact`, the name protocols.py
calls), and construction of the state types through their `__post_init__`.
A name that a later version of the package no longer has is skipped and
reports zero calls.

Spans live in flat arrays until the end of a pass; `summary` derives calls,
total and self time per layer (self time = span duration minus the time its
direct children cover), and `write` dumps the raw spans.
"""

import gzip
import importlib
import time
from array import array

import numpy as np

# layer name -> [(module or module:Class, attribute), ...] patched for it
LAYERS = {
    "cli.main": [("spinscatter.cli", "main")],
    "cli.parse_args": [("spinscatter.cli", "parse_args")],
    "cli.run": [("spinscatter.cli", "run")],
    "protocols.sweep": [("spinscatter.cli", "sweep")],
    "protocols.run_protocol": [("spinscatter.cli", "run_protocol"),
                               ("spinscatter.protocols", "run_protocol")],
    "channels.embed": [("spinscatter.protocols", "embed"), ("spinscatter.cli", "embed")],
    "channels.exchange_matrix": [("spinscatter.protocols", "exchange_matrix"),
                                 ("spinscatter.cli", "exchange_matrix")],
    "channels.kondo_operators": [("spinscatter.protocols", "kondo_operators"),
                                 ("spinscatter.cli", "kondo_operators")],
    "channels.fixed_filter_operators": [("spinscatter.protocols", "fixed_filter_operators"),
                                        ("spinscatter.cli", "fixed_filter_operators")],
    "scattering.two_impurity_exact": [("spinscatter.protocols", "two_impurity_exact"),
                                      ("spinscatter.cli", "two_impurity_exact")],
    "scattering.scalar_amplitudes": [("spinscatter.channels", "scalar_amplitudes"),
                                     ("spinscatter.protocols", "scalar_amplitudes"),
                                     ("spinscatter.cli", "scalar_amplitudes")],
    "hilbert.SpinState": [("spinscatter.hilbert:SpinState", "__post_init__")],
    "hilbert.DensityMatrix": [("spinscatter.hilbert:DensityMatrix", "__post_init__")],
    "hilbert.von_neumann_entropy": [("spinscatter.protocols", "von_neumann_entropy")],
    "hilbert.hermitian_eigenvalues": [("spinscatter.hilbert", "hermitian_eigenvalues")],
    "hilbert.partial_trace": [("spinscatter.protocols", "partial_trace")],
    "hilbert.concurrence": [("spinscatter.protocols", "concurrence")],
    "hilbert.normalize": [("spinscatter.protocols", "normalize")],
    "hilbert.drop_qubit": [("spinscatter.protocols", "drop_qubit")],
    "hilbert.make_state": [("spinscatter.protocols", "make_state"),
                           ("spinscatter.channels", "make_state")],
    "hilbert.basis_state": [("spinscatter.protocols", "basis_state")],
    "hilbert.apply": [("spinscatter.protocols", "apply"), ("spinscatter.scattering", "apply")],
}


def _target(spec):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names = list(LAYERS)
        self.missing = []
        self.parent = array("q")
        self.layer = array("H")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, layer_id):
        parent, layer, op, start, end, stack = (
            self.parent, self.layer, self.op, self.start, self.end, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            layer.append(layer_id)
            op.append(tracer.current_op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def install(self):
        for layer_id, name in enumerate(self.names):
            found = False
            for spec, attr in LAYERS[name]:
                try:
                    owner = _target(spec)
                except (ImportError, AttributeError):
                    continue
                fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if fn is None:
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, layer_id))
                found = True
            if not found:
                self.missing.append(name)
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """{layer: (calls, total_ns, self_ns)} over all recorded spans."""
        n_layers = len(self.names)
        if not len(self.start):
            return {name: (0, 0, 0) for name in self.names}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.uint16)
        dur = end - start
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        calls = np.bincount(layer, minlength=n_layers)
        total = np.bincount(layer, weights=dur, minlength=n_layers)
        self_time = np.bincount(layer, weights=dur - children, minlength=n_layers)
        return {name: (int(calls[i]), float(total[i]), float(self_time[i]))
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Write the spans as gzip'd tab-separated text, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tlayer\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t{names[self.layer[sid]]}"
                         f"\t{self.start[sid]}\t{self.end[sid]}\n")
