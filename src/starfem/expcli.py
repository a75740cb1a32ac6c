"""Experiment runner: flat config files in, plot-ready CSV out.

Configs are one key=value pair per line with '#' comment lines. Every
output file starts with a comment carrying the normalized experiment config
and the PRNG identifier, so a file is reproducible from its own header.
Writes are atomic (temp file, then rename) and byte-identical across reruns
of the same config unless the opt-in timestamp line is enabled. A request
whose arrays would exceed MAX_ARRAY_VALUES, or whose sweep would walk more
than MAX_SWEEP_WORK edge elements, is refused before it runs, and
a row holding NaN or inf is refused before anything is written.

Exit codes: 0 success, 2 config or argument problems, 3 numerical
failures, 4 I/O failures.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from ._rng import PRNG_NAME
from .analysis import (cauchy_diagnostics, convergence_table, largest_bh,
                       rate_from_errors, solve_example_stage, weyl_cos_mean,
                       weyl_fraction)
from .errors import (ConfigError, EmptyGroupError, InvalidArgumentError,
                     NumericalBreakdownError, UndefinedRateError)
from .femsolve import (center_flux_sum, center_identity_residual,
                       edge_identity_defects)
from .forcing import FAMILY_IDS
from .stargraph import GROUP_PROBS, GROUP_VALUES, TWO_PI
from .upscale import (build_upscaled, center_limit, predicted_edge_flux,
                      solve_upscaled)

EMITS = ("table", "cauchy", "solution", "weyl", "identity", "upscaled", "rate")
OUT_DIR_ENV = "STARFEM_OUT_DIR"


class ExperimentConfig(NamedTuple):
    example: str
    emit: str = "table"
    stages: tuple = (10, 20, 100, 1000)
    centers: tuple = (500, 1000)
    n: int = 100
    window: int = 10
    mesh: int = 100
    coeff: str = "deterministic"
    probs: tuple = GROUP_PROBS
    values: tuple = GROUP_VALUES
    seed: int = 0
    h_coeff: float = 0.0
    h_linear: bool = False
    reference: str = "oracle"
    out: str = ""
    noise: float = -1.0
    c: float = 0.0
    orientation: str = "center"
    interval: tuple = (0.0, TWO_PI)
    errors: tuple = ()
    full_h1: bool = False
    timestamp: bool = False

    def h_of(self, n: int) -> float:
        return self.h_coeff * n if self.h_linear else self.h_coeff

    def parameters(self) -> dict:
        p = {}
        if self.example == "ex2" and self.noise >= 0:
            p["noise"] = self.noise
        if self.example == "constant":
            p["c"] = self.c
        if self.orientation != "center":
            p["orientation"] = self.orientation
        return p

    def normalized(self) -> str:
        """Sorted key=value pairs as a config spells them, then the PRNG.

        The output path, the timestamp and unset optional keys stay out.
        """
        parts = {k: v for k, v in self._asdict().items()
                 if k not in ("h_coeff", "h_linear", "out", "timestamp")}
        parts["h"] = (f"{self.h_coeff!r}*n" if self.h_linear
                      else repr(self.h_coeff))
        if self.noise < 0:
            del parts["noise"]
        if self.example != "constant" and self.c == 0.0:
            del parts["c"]
        if not self.errors:
            del parts["errors"]
        body = " ".join(f"{k}={_text(parts[k])}" for k in sorted(parts))
        return f"{body} prng={PRNG_NAME}"


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


_PI_TOKENS = {"pi": np.pi, "2pi": TWO_PI, "2*pi": TWO_PI}


def _float(raw: str, line: int) -> float:
    token = raw.strip().lower()
    if token in _PI_TOKENS:
        return _PI_TOKENS[token]
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}", line=line) from None
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {raw!r}", line=line)
    return value


def _int(raw: str, line: int) -> int:
    try:
        return int(raw.strip(), 10)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}", line=line) from None


def _bool(raw: str, line: int) -> bool:
    token = raw.strip().lower()
    if token in ("true", "yes", "1"):
        return True
    if token in ("false", "no", "0"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}", line=line)


def _int_list(raw: str, line: int) -> tuple:
    return tuple(_int(v, line) for v in raw.split(","))


def _float_list(raw: str, line: int) -> tuple:
    return tuple(_float(v, line) for v in raw.split(","))


_H_RE = re.compile(r"^(?P<c>[^*]+?)\s*(?P<lin>\*\s*n)?$")


def _one_of(key: str, options):
    def parse(raw: str, line: int) -> str:
        if raw not in options:
            raise ConfigError(f"{key} must be one of {'|'.join(options)}",
                              line=line)
        return raw

    return parse


def _checked(parse, ok, message: str):
    def checked(raw: str, line: int):
        value = parse(raw, line)
        if not ok(value):
            raise ConfigError(message, line=line)
        return value

    return checked


def _datum(raw: str, line: int) -> dict:
    match = _H_RE.match(raw)
    if match is None:
        raise ConfigError("h must look like '2.5' or '2.5*n'", line=line)
    return {"h_coeff": _float(match.group("c"), line),
            "h_linear": match.group("lin") is not None}


#: parser of each key's raw text, given its config line (None for a
#: flag); ``h`` sets the two datum fields
_PARSERS = {
    "example": _one_of("example", FAMILY_IDS),
    "emit": _one_of("emit", EMITS),
    "stages": _int_list, "centers": _int_list,
    "n": _int, "window": _int, "mesh": _int,
    "seed": _checked(_int, lambda v: 0 <= v < 2**64,
                     "seed must fit in an unsigned 64-bit value"),
    "coeff": _one_of("coeff", ("deterministic", "random")),
    "probs": _float_list, "values": _float_list, "h": _datum,
    "reference": _one_of("reference", ("oracle", "printed", "upscaled")),
    "out": lambda raw, line: raw,
    "noise": _checked(_float, lambda v: v >= 0, "noise must be >= 0"),
    "c": _float,
    "orientation": _one_of("orientation", ("center", "rim")),
    "interval": _checked(_float_list, lambda v: len(v) == 2,
                         "interval needs exactly two endpoints"),
    "errors": _float_list, "full_h1": _bool, "timestamp": _bool,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a flat key=value config."""
    fields: dict = {}
    seen: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first on line {seen[key]})",
                              line=lineno)
        seen[key] = lineno
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        value = _PARSERS[key](raw.strip(), lineno)
        fields.update(value if key == "h" else {key: value})
    if "example" not in fields:
        raise ConfigError("missing required key 'example'")
    config = ExperimentConfig(**fields)
    _validate(config)
    return config


def _validate(config: ExperimentConfig):
    if config.mesh < 2:
        raise ConfigError("mesh must be >= 2 elements per edge")
    if config.window < 2:
        raise ConfigError("window must be >= 2")
    if config.n < 1:
        raise ConfigError("n must be >= 1")
    if len(config.probs) != len(config.values):
        raise ConfigError("probs and values must pair up")
    if any(p < 0 for p in config.probs) or abs(sum(config.probs) - 1.0) > 1e-12:
        raise ConfigError("probs must be >= 0 and sum to 1")
    if any(b <= a for a, b in zip(config.stages, config.stages[1:])):
        raise ConfigError("stages must be strictly increasing")
    if any(b <= a for a, b in zip(config.centers, config.centers[1:])):
        raise ConfigError("centers must be strictly increasing")
    c, d = config.interval
    if not 0.0 <= c < d <= TWO_PI:
        raise ConfigError("interval must satisfy 0 <= c < d <= 2*pi")
    size = _largest_array(config)
    if size > MAX_ARRAY_VALUES:
        raise ConfigError(
            f"{config.emit} would allocate arrays of {size} values, more than "
            f"the budget of {MAX_ARRAY_VALUES}; lower n, mesh, stages or "
            f"centers")
    edges = _sweep_size(config)[2]
    if edges * config.mesh > MAX_SWEEP_WORK:
        raise ConfigError(
            f"{config.emit} would walk {edges} edges of {config.mesh} "
            f"elements, more than the budget of {MAX_SWEEP_WORK} edge "
            f"elements; lower mesh, stages or centers")


#: most float64 values one array of a run may hold (512 MiB); a run keeps
#: a handful of arrays this size, so larger requests are refused up front
MAX_ARRAY_VALUES = 2**26

#: most edges times elements per edge a table or Cauchy sweep may walk
#: (about 1.7e10: an ex3 table to 10^8 edges at mesh 100)
MAX_SWEEP_WORK = 2**34


def _sweep_size(config: ExperimentConfig) -> tuple:
    """(stages, largest, edges) of a table or Cauchy sweep, or zeros.

    ``stages`` it solves, ``largest`` its largest stage and ``edges`` it
    walks. A Cauchy window covers window + 1 stages, which windows may
    share; ex2 restarts its walk at every stage, the others walk to the
    largest once.
    """
    if config.emit == "table":
        count, largest = len(config.stages), max(config.stages, default=0)
        walked = sum(config.stages)
    elif config.emit == "cauchy":
        count = len(config.centers) * (config.window + 1)
        largest = (max(config.centers, default=0) + config.window
                   - config.window // 2)
        walked = count * largest
    else:
        return 0, 0, 0
    return count, largest, walked if config.example == "ex2" else largest


def _largest_array(config: ExperimentConfig) -> int:
    """Values in the largest array the configured emit allocates."""
    per_edge = 3 * config.mesh  # Gauss-point values of one edge
    if config.emit in ("solution", "identity"):
        return config.n * per_edge
    if config.emit == "weyl":
        return config.n
    if config.emit in ("table", "cauchy"):
        # one block of edges (at least one edge's Gauss points), every
        # stage's group averages, and for ex2 the noise of its largest stage
        stages, largest, _ = _sweep_size(config)
        noise = largest if config.example == "ex2" else 0
        return max(per_edge, noise,
                   stages * len(config.values) * (config.mesh + 1))
    if config.emit == "upscaled":
        return len(config.values) * per_edge
    return len(config.errors)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


FLOAT_FMT = "{:.5e}"


def _fmt(v) -> str:
    if isinstance(v, float):
        return FLOAT_FMT.format(v)
    return str(v)


def _out_path(config: ExperimentConfig) -> str:
    path = config.out or f"{config.emit}.csv"
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return path


def _check_finite(header: list, rows: list):
    """Refuse a row holding NaN or inf: data must be finite numbers."""
    for k, row in enumerate(rows, start=1):
        if not all(math.isfinite(v) for v in row if isinstance(v, float)):
            cells = ", ".join(f"{h}={_fmt(v)}" for h, v in zip(header, row))
            raise NumericalBreakdownError(
                f"row {k} holds a non-finite value ({cells}); nothing written")


def _write_csv(config: ExperimentConfig, path: str, comments: list,
               header: list, rows: list) -> str:
    _check_finite(header, rows)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# {config.normalized()}\n")
            if config.timestamp:
                import datetime
                stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
                fh.write(f"# generated {stamp}\n")
            for line in comments:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _stage_kwargs(config: ExperimentConfig) -> dict:
    return dict(coeff=config.coeff, seed=config.seed, probs=config.probs,
                values=config.values, parameters=config.parameters())


def _sweep_comments(config: ExperimentConfig) -> list:
    """The largest b h of a sine family's sweep, flagged past pi."""
    _, largest, _ = _sweep_size(config)
    bh = largest_bh(config.example, largest, config.mesh, seed=config.seed,
                    parameters=config.parameters())
    if bh is None:
        return []
    alias = " (above pi: the 3-point Gauss loads alias)" if bh > np.pi else ""
    return [f"max_bh={FLOAT_FMT.format(bh)}{alias}"]


def _run_table(config: ExperimentConfig) -> str:
    rows = convergence_table(config.example, config.stages, config.mesh,
                             config.reference, h=config.h_of,
                             full_h1=config.full_h1, **_stage_kwargs(config))
    out = [(r.n, r.group, r.l2_error, r.h1_error, r.center_value,
            r.reference_id, r.m, r.seed) for r in rows]
    return _write_csv(config, _out_path(config), _sweep_comments(config),
                      ["n", "group", "l2_error", "h1_error", "center_value",
                       "reference", "m", "seed"], out)


def _run_cauchy(config: ExperimentConfig) -> str:
    rows = cauchy_diagnostics(config.example, config.centers, config.window,
                              config.mesh, h=config.h_of,
                              full_h1=config.full_h1, **_stage_kwargs(config))
    out = [(r.n, r.group, r.epsilon, r.delta, r.window) for r in rows]
    return _write_csv(config, _out_path(config), _sweep_comments(config),
                      ["n", "group", "epsilon", "delta", "window"], out)


def _run_solution(config: ExperimentConfig) -> str:
    sol = solve_example_stage(config.example, config.n, config.mesh,
                              h=config.h_of(config.n), **_stage_kwargs(config))
    rows = []
    for e in range(sol.stage.n):
        for j in range(config.mesh + 1):
            rows.append((e + 1, j, j / config.mesh, sol.values[e, j]))
    return _write_csv(config, _out_path(config),
                      [f"center_value={FLOAT_FMT.format(sol.center)}"],
                      ["edge_index", "node_index", "t", "value"], rows)


def _run_identity(config: ExperimentConfig) -> str:
    sol = solve_example_stage(config.example, config.n, config.mesh,
                              h=config.h_of(config.n), **_stage_kwargs(config))
    center_res = center_identity_residual(sol)
    edge_res = float(edge_identity_defects(sol).max())
    flux_gap = abs(center_flux_sum(sol) + sol.h + float(sol.node_loads[:, 0].sum()))
    rows = [(config.n, config.mesh, center_res, edge_res, flux_gap)]
    return _write_csv(config, _out_path(config), [],
                      ["n", "m", "center_identity", "max_edge_identity",
                       "flux_gap"], rows)


def _run_upscaled(config: ExperimentConfig) -> str:
    problem = build_upscaled(config.example, config.parameters(),
                             config.probs, config.values,
                             coeff=config.coeff, h=config.h_of)
    hom = solve_upscaled(problem, config.mesh)
    limit = center_limit(problem)
    comments = [
        f"center_value={FLOAT_FMT.format(hom.center)}",
        f"center_limit={FLOAT_FMT.format(limit)}",
    ]
    for i in range(1, problem.groups + 1):
        comments.append(
            f"group {i}: predicted_flux={FLOAT_FMT.format(predicted_edge_flux(problem, i))}"
            f" discrete_flux={FLOAT_FMT.format(hom.edge_flux(i))}")
    rows = []
    for i, grid in enumerate(hom.grids, start=1):
        for j in range(config.mesh + 1):
            rows.append((i, j, j / config.mesh, grid.values[j]))
    return _write_csv(config, _out_path(config), comments,
                      ["group", "node_index", "t", "value"], rows)


def _run_weyl(config: ExperimentConfig) -> str:
    c, d = config.interval
    frac = weyl_fraction(config.n, (c, d))
    rows = [(config.n, c, d, frac, weyl_cos_mean(config.n))]
    return _write_csv(config, _out_path(config), [],
                      ["n", "c", "d", "fraction", "cos_mean"], rows)


def _run_rate(config: ExperimentConfig) -> str:
    if len(config.errors) < 4:
        raise InvalidArgumentError("rate needs at least four errors")
    gaps = np.abs(np.diff(np.asarray(config.errors, dtype=float)))
    alphas = rate_from_errors(config.errors)
    rows = [(k + 1, gaps[k], gaps[k + 1], gaps[k + 2], alphas[k])
            for k in range(len(alphas))]
    return _write_csv(config, _out_path(config), [],
                      ["k", "d_minus", "d_zero", "d_plus", "alpha"], rows)


_RUNNERS = {
    "table": _run_table,
    "cauchy": _run_cauchy,
    "solution": _run_solution,
    "identity": _run_identity,
    "upscaled": _run_upscaled,
    "weyl": _run_weyl,
    "rate": _run_rate,
}


def run(config: ExperimentConfig) -> list:
    """Execute one experiment; returns the list of files written."""
    return [_RUNNERS[config.emit](config)]


_SUBCOMMAND_EMIT = {
    "solve": "solution",
    "table": "table",
    "cauchy": "cauchy",
    "upscaled": "upscaled",
    "weyl": "weyl",
    "identity": "identity",
    "rate": "rate",
}

_NEEDS_CONFIG = ("solve", "table", "cauchy", "upscaled", "identity")


#: config keys that are also flags: the subcommands that take each (None
#: for every one) and its help; a flag's text is parsed as the key's is
_FLAGS = {
    "out": (None, "output file path"),
    "seed": (None, "override the config seed"),
    "mesh": (None, "override elements per edge"),
    "n": (("solve", "identity", "weyl"), "stage size (weyl: count)"),
    "interval": (("weyl",), "subinterval of [0,2pi], e.g. '0,pi'"),
    "errors": (("rate",), "comma-separated error sequence, length >= 4"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfem",
        description="Star-graph diffusion experiments: stage solves, "
                    "group-average convergence tables, window diagnostics, "
                    "and the upscaled limit problem.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, emit in _SUBCOMMAND_EMIT.items():
        p = sub.add_parser(name, help=f"emit {emit} CSV")
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--timestamp", action="store_true",
                       help="add a generation timestamp comment")
        for key, (names, help_text) in _FLAGS.items():
            if names is None or name in names:
                p.add_argument(f"--{key}", help=help_text)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    elif args.command in _NEEDS_CONFIG:
        raise ConfigError(f"{args.command} requires --config")
    else:
        config = ExperimentConfig(example="ex1")
    updates = {"emit": _SUBCOMMAND_EMIT[args.command]}
    if args.timestamp:
        updates["timestamp"] = True
    for key in _FLAGS:
        raw = getattr(args, key, None)
        if raw is not None:
            try:
                updates[key] = _PARSERS[key](raw.strip(), None)
            except ConfigError as exc:
                raise ConfigError(f"--{key}: {exc}") from None
    config = config._replace(**updates)
    _validate(config)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        paths = run(config)
    except (ConfigError, InvalidArgumentError, EmptyGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdownError, UndefinedRateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None) or "output"
        verb = "read" if name == getattr(args, "config", None) else "write"
        print(f"error: cannot {verb} {name}: {exc.strerror or exc}",
              file=sys.stderr)
        return 4
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
