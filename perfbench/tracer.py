"""One traced run of the starfem CLI, with spans recorded from outside.

    python3 perfbench/tracer.py SPANS_JSON SUBCOMMAND --config CFG

Imports starfem, replaces each layer's public function at the name its
caller looks it up under with a wrapper that records a span (name, start,
end, parent), runs ``starfem.expcli.main`` in this process, and writes the
spans and counters to SPANS_JSON when the run ends. The program itself is
not edited. A wrapped name the program no longer has is listed under
``missing`` and its layer reads 0.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

T_START = time.perf_counter()
import starfem  # noqa: E402  (timed: the import is a layer of its own)

IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402

# (owner, attribute, span name). The owner is the module or class whose
# attribute the caller reads, so the call really passes through the wrapper.
SPANS = [
    ("expcli", "main", "expcli.main"),
    ("expcli", "run", "expcli.run"),
    ("expcli", "convergence_table", "analysis.sweep"),
    ("expcli", "cauchy_diagnostics", "analysis.sweep"),
    ("expcli", "solve_example_stage", "analysis.request"),
    ("expcli", "center_identity_residual", "femsolve.identity"),
    ("expcli", "edge_identity_residual", "femsolve.identity"),
    ("expcli", "center_flux_sum", "femsolve.identity"),
    ("analysis", "solve_example_stage", "analysis.request"),
    ("analysis", "reference_grids", "upscale.reference"),
    ("analysis", "build_stage", "stargraph.build"),
    ("analysis", "builtin_field", "forcing.field"),
    ("analysis", "solve_stage", "analysis.solve_stage"),
    ("analysis", "cesaro_solution_average", "analysis.average"),
    ("analysis", "grid_norms", "analysis.norms"),
    ("femsolve", "assemble", "femsolve.assemble"),
    ("femsolve", "assemble_loads", "femsolve.loads"),
    ("femsolve", "solve", "femsolve.solve"),
    ("femsolve.ArrowheadSystem", "backward_error", "femsolve.gate"),
]
STAGE_SPAN = "analysis.solve_stage"

spans: list = []      # [name, start, end, parent index or -1]
stack: list = []      # indices of the open spans
counters = {
    "load_evals": 0, "unknowns": 0, "array_bytes": 0,
    "backward_error_max": 0.0, "center_identity_max": 0.0,
}
missing: list = []


def _open(name: str) -> int:
    spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
    stack.append(len(spans) - 1)
    return stack[-1]


def _close(idx: int):
    spans[idx][2] = time.perf_counter()
    stack.pop()


def _in_stage() -> bool:
    return any(spans[i][0] == STAGE_SPAN for i in stack)


def _array_bytes(*objs) -> int:
    seen = {}
    for obj in objs:
        for v in vars(obj).values():
            if isinstance(v, np.ndarray):
                seen[id(v)] = v.nbytes
    return sum(seen.values())


def _after_solve(args, out):
    if _in_stage():
        counters["unknowns"] += out.stage.n * (out.m - 1) + 1
        counters["array_bytes"] += _array_bytes(args[0], out)


def _after_gate(args, out):
    counters["backward_error_max"] = max(counters["backward_error_max"], out)


def _after_stage(args, out):
    residual = getattr(_resolve("femsolve"), "center_identity_residual", None)
    if residual is not None:
        counters["center_identity_max"] = max(
            counters["center_identity_max"], residual(out))


HOOKS = {"femsolve.solve": _after_solve, "femsolve.gate": _after_gate,
         STAGE_SPAN: _after_stage}


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    try:
        obj = importlib.import_module(f"starfem.{module}")
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _span_wrapper(fn, name: str):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = _open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            _close(idx)
        if hook is not None:
            # the hook gets a span of its own, so its cost is not charged
            # to the caller's self time; it shows as trace.hook instead
            hidx = _open("trace.hook")
            try:
                hook(args, out)
            finally:
                _close(hidx)
        return out

    return wrapper


def _count_values(fn):
    @functools.wraps(fn)
    def wrapper(self, ells, t):
        if _in_stage():
            counters["load_evals"] += int(np.size(ells)) * int(np.size(t))
        return fn(self, ells, t)

    return wrapper


def install():
    for owner, attr, name in SPANS:
        target = _resolve(owner)
        fn = getattr(target, attr, None) if target is not None else None
        if fn is None:
            missing.append(f"{owner}.{attr}")
            continue
        setattr(target, attr, _span_wrapper(fn, name))
    field_cls = _resolve("forcing.ForcingField")
    if field_cls is None or not hasattr(field_cls, "values"):
        missing.append("forcing.ForcingField.values")
    else:
        field_cls.values = _count_values(field_cls.values)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    install()
    code = 1
    try:
        code = _resolve("expcli").main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "exit_code": code,
                       "counters": counters, "missing": missing,
                       "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
