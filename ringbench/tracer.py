"""Run one ringcat CLI command with every public function wrapped in a span.

Usage (PYTHONPATH must reach the package):
    python -X importtime ringbench/tracer.py SPANS.json ringcat-args...

Each function named in a ringcat module's ``__all__``, and each public
method of a class named there, is wrapped from outside the package.  The
wrapper replaces the name at every module binding, because the modules
import each other with ``from .x import y``: ``ringcat.interferometer``
holds its own ``dft_lift`` and ``ringcat.cli`` its own ``timing_tolerance``.
Private modules stay untraced; their time lands in the public caller.

A span is (parent index, name, start, end, work).  ``work`` counts points
where a call has them: theta points for ``sweep_protocol_probabilities`` and
the particle number for ``lift_to_fock``.  Spans stay in memory and are
written to SPANS.json when the command ends, together with the unitarity
defect max|L L^dagger - I| of every lift the command built, measured here
from outside ringcat.  The process exits with the command's exit code.
"""

import sys
import time

import ringcat  # first, so that -X importtime charges ringcat's imports to it
import ringcat.cli

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402


def _lift_particles(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _sweep_points(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["thetas"]))


WORK = {
    "modes.lift_to_fock": _lift_particles,
    "protocol.sweep_protocol_probabilities": _sweep_points,
}
LIFT_BUILD = "modes.lift_to_fock"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.lifts = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        work = WORK.get(name)
        keep = self.lifts if name == LIFT_BUILD else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, name, start, end, work(args, kwargs) if work else 0)
            if keep is not None:
                keep.append(result)
            return result

        return span

    def patch(self):
        """Wrap the public functions and rebind them in every ringcat module."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "ringcat" or (name.startswith("ringcat.") and not name[8:].startswith("_"))
        }
        swap = {}
        for modname, mod in modules.items():
            if modname == "ringcat":
                continue
            short = modname[len("ringcat."):]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    self._patch_class(obj, f"{short}.{attr}")
                elif callable(obj):
                    swap[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _patch_class(self, cls, prefix):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, f"{prefix}.{attr}"))
            elif isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self.wrap(value.__func__, f"{prefix}.{attr}")))


def unitarity_defect(lift) -> float:
    m = lift.matrix
    product = m @ m.conj().T
    product[np.diag_indices_from(product)] -= 1.0
    return float(np.max(np.abs(product)))


def main(out_path, argv) -> int:
    tracer = Tracer()
    tracer.patch()
    code = 1
    try:
        code = ringcat.cli.main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        check_start = time.perf_counter()
        lifts = [[lift.n, unitarity_defect(lift)] for lift in tracer.lifts]
        record = {
            "exit": code,
            "spans": tracer.spans,
            "lifts": lifts,
            "check_s": time.perf_counter() - check_start,
        }
        with open(out_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
