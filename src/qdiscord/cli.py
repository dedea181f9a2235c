"""Command-line front end.

Subcommands:
  compute   full correlation report for a state file
  sweep     CSV over a one-parameter state family
  oracle    brute-force minimum conditional entropy for a state file
  validate  density-matrix validity check with exit code

Exit codes: 0 success, 1 input or usage error, 2 optimizer non-convergence.
Flag values override the optional JSON config file (path from --config
or the QDISCORD_CONFIG environment variable), which overrides defaults.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys
from dataclasses import asdict

from .correlations import quantum_discord
from .linalg import von_neumann_entropy
from .measurement import conditional_entropy_fn
from .optimizer import METHODS, OptimizerConfig, grid_oracle
from .states import (DensityMatrix, bell_diagonal, load_state,
                     mixed_bell_family, read_state, werner)

CONFIG_ENV_VAR = "QDISCORD_CONFIG"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

# The sweep CSV's fixed columns: param, then fields of the report or of
# its stats, looked up by name.
CSV_COLUMNS = ("param", "mutual_information", "classical_correlation",
               "discord", "min_conditional_entropy",
               "oracle_min_conditional_entropy", "iterations", "converged")
MAX_SWEEP_ROWS = 10_000


_MINIMIZE = ("compute", "sweep")

# The one table of options: flag, config-file key (None: flag only),
# JSON type (a tuple: one of its strings), default, and the subcommands
# that read it.  An optimizer default of None is OptimizerConfig's own.
# Ranges are checked where each value is used, not here.
_OPTIONS = (
    ("--method", "optimizer.method", METHODS, None, _MINIMIZE),
    ("--tol", "optimizer.tol", float, None, _MINIMIZE),
    ("--max-iter", "optimizer.max_iter", int, None, _MINIMIZE),
    ("--restarts", "optimizer.restarts", int, None, _MINIMIZE),
    ("--seed", "optimizer.seed", int, None, _MINIMIZE),
    ("--oracle", None, bool, False, _MINIMIZE),
    ("--oracle-resolution", "oracle_resolution", int, 200,
     _MINIMIZE + ("oracle",)),
    ("--out", "output_path", str, None, _MINIMIZE),
    ("--plot-script", "emit_plot_script", bool, False, ("sweep",)),
    ("--tolerance-input", "input_tolerance", float, 1e-6,
     ("compute", "oracle", "validate")),
    ("--config", None, str, None, ("compute", "sweep", "oracle", "validate")),
)

_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               bool: ((bool,), "true or false"), str: ((str,), "a string")}


def _file_value(key: str, kind, value):
    """A config-file value of its row's JSON type; a bool is no number."""
    if isinstance(kind, tuple):
        ok, expected = value in kind, "one of " + ", ".join(kind)
    else:
        types, expected = _JSON_TYPES[kind]
        ok = type(value) in types
    if not ok:
        raise ValueError(f"config key {key!r} must be {expected}, "
                         f"not {json.dumps(value)}")
    return float(value) if kind is float else value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _resolve_options(args) -> None:
    """Set on args each option its subcommand reads: the flag over the
    config file (path from --config or QDISCORD_CONFIG) over the default.
    Keys the subcommand does not read are ignored."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    top: dict = {}
    if path:
        try:
            with open(path) as f:
                top = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
    top = _json_object(top, f"config file {path}")
    minimizes = args.command in _MINIMIZE
    section = _json_object(top.get("optimizer", {}) if minimizes else {},
                           "config key 'optimizer'")
    optimizer = {}
    for flag, key, kind, default, commands in _OPTIONS:
        if args.command not in commands:
            continue
        dest = flag[2:].replace("-", "_")
        in_section, _, name = (key or "").rpartition(".")
        values = section if in_section else top
        if getattr(args, dest) is None:
            setattr(args, dest, _file_value(key, kind, values[name])
                    if key and name in values else default)
        if in_section:
            optimizer[name] = getattr(args, dest)
    unknown = set(section) - set(optimizer)
    if unknown:
        raise ValueError(f"unknown optimizer config keys: {sorted(unknown)}")
    if minimizes:
        args.optimizer = OptimizerConfig(
            **{k: v for k, v in optimizer.items() if v is not None})


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def _csv_text(value) -> str:
    """One report value as CSV text: None empty, bools lower-case."""
    if value is None:
        return ""
    if isinstance(value, bool):  # before int: a bool is an int
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else _fmt(value)


def cmd_compute(args) -> int:
    rho = load_state(args.state, args.tolerance_input)
    report = quantum_discord(
        rho, args.optimizer,
        oracle_resolution=args.oracle_resolution if args.oracle else None)
    print(f"mutual information      {_fmt(report.mutual_information)} bits")
    print(f"classical correlation   {_fmt(report.classical_correlation)} bits")
    print(f"quantum discord         {_fmt(report.discord)} bits")
    print(f"min conditional entropy {_fmt(report.min_conditional_entropy)} bits")
    meas = report.optimal_measurement
    print(f"optimal measurement     r={meas.r:+.6f} y=({meas.y[0]:+.6f}, "
          f"{meas.y[1]:+.6f}, {meas.y[2]:+.6f})")
    stats = report.optimizer_stats
    print(f"optimizer               {stats.method}, {stats.iterations} iterations, "
          f"converged={stats.converged}")
    if stats.oracle_gap is not None:
        print(f"oracle gap              {stats.oracle_gap:+.3e}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(asdict(report), f, indent=1)
            f.write("\n")
    return EXIT_OK if stats.converged else EXIT_NOT_CONVERGED


_SAFE_EVAL_NAMES = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "sqrt": math.sqrt,
    "exp": math.exp, "log": math.log, "pi": math.pi, "abs": abs,
}

_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv,
               ast.Pow: operator.pow}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_omega(expr: str, a: float) -> float:
    """Value of one --omega expression at a.

    Only numbers, the name a, the names in _SAFE_EVAL_NAMES, the
    operators + - * / ** and unary +/- are accepted; the syntax tree is
    walked here, so nothing reaches eval.
    """
    names = dict(_SAFE_EVAL_NAMES, a=a)

    def value(node):
        if (isinstance(node, ast.Constant)
                and type(node.value) in (int, float)):
            return float(node.value)
        if (isinstance(node, ast.Name) and node.id in names
                and not callable(names[node.id])):
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](value(node.left),
                                              value(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](value(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(names.get(node.func.id)) and not node.keywords):
            return names[node.func.id](*(value(x) for x in node.args))
        raise ValueError(f"unsupported term {ast.unparse(node)!r}")

    try:
        return float(value(ast.parse(expr.strip(), mode="eval").body))
    except (SyntaxError, ArithmeticError, TypeError, ValueError,
            RecursionError) as exc:
        raise ValueError(f"cannot evaluate omega expression {expr!r}: "
                         f"{exc}") from exc


def _family_state(family: str, a: float, omega_exprs) -> DensityMatrix:
    if family == "werner":
        return werner(a)
    if family == "mixed_bell":
        return mixed_bell_family(a)
    if family == "bell_diagonal":
        if not omega_exprs:
            raise ValueError("bell_diagonal sweep needs --omega")
        return bell_diagonal(tuple(_eval_omega(e, a) for e in omega_exprs))
    raise ValueError(f"unknown family {family!r}")


def _sweep_params(start: float, end: float, step: float):
    if not all(map(math.isfinite, (start, end, step))):
        raise ValueError("start, end and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if start > end:
        raise ValueError("start must not exceed end")
    last = end + 1e-12  # round-off slack for the final row
    rows = []
    for k in range(MAX_SWEEP_ROWS + 1):
        a = start + k * step
        if a > last:
            return rows
        rows.append(min(a, end))
    raise ValueError(f"a sweep has at most {MAX_SWEEP_ROWS} rows")


def cmd_sweep(args) -> int:
    omega_exprs = args.omega.split(",") if args.omega else None
    params = _sweep_params(args.start, args.end, args.step)
    states = []
    for a in params:  # every row's state before any row is minimized
        try:
            states.append(_family_state(args.family, a, omega_exprs))
        except ValueError as exc:
            raise ValueError(f"invalid state at parameter {a}: {exc}") from exc
    all_converged = True
    lines = [",".join(CSV_COLUMNS)]
    for a, rho in zip(params, states):
        report = quantum_discord(
            rho, args.optimizer,
            oracle_resolution=args.oracle_resolution if args.oracle else None)
        stats = report.optimizer_stats
        all_converged = all_converged and stats.converged
        # The report's and the stats' field names do not overlap.
        values = {"param": a, **vars(report), **vars(stats)}
        lines.append(",".join(_csv_text(values[c]) for c in CSV_COLUMNS))
    csv_text = "\n".join(lines) + "\n"
    out_path = args.out or "sweep.csv"
    with open(out_path, "w") as f:
        f.write(csv_text)
    print(f"wrote {len(params)} rows to {out_path}")
    if args.plot_script:
        script_path = out_path + ".gp"
        with open(script_path, "w") as f:
            f.write(_plot_script(os.path.basename(out_path)))
        print(f"wrote plot script to {script_path}")
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _plot_script(csv_name: str) -> str:
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'family parameter'\n"
        "set ylabel 'bits'\n"
        f"plot '{csv_name}' using 1:3 with linespoints title 'classical correlation', \\\n"
        f"     '{csv_name}' using 1:4 with linespoints title 'quantum discord'\n"
    )


def cmd_oracle(args) -> int:
    rho = load_state(args.state, args.tolerance_input)
    value, direction = grid_oracle(conditional_entropy_fn(rho),
                                   args.oracle_resolution)
    print(f"grid minimum conditional entropy {_fmt(value)} bits "
          f"(resolution {args.oracle_resolution}, refined)")
    print(f"optimal projector direction      ({direction[0]:+.6f}, "
          f"{direction[1]:+.6f}, {direction[2]:+.6f})")
    print(f"marginal entropy S(rho_A)        "
          f"{_fmt(von_neumann_entropy(rho.marginal('A')))} bits")
    return EXIT_OK


def cmd_validate(args) -> int:
    report = read_state(args.state).validity(args.tolerance_input)
    print(f"hermiticity defect {report.hermiticity_defect:.6e}")
    print(f"trace defect       {report.trace_defect:.6e}")
    print(f"min eigenvalue     {report.min_eigenvalue:.6e}")
    print(f"valid at tol {report.tol:.1e}: {report.valid}")
    return EXIT_OK if report.valid else EXIT_INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error, not exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdiscord",
        description="Classical correlation and quantum discord of bipartite "
                    "states via measurement optimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
            ("compute", cmd_compute, "full report for a state file"),
            ("sweep", cmd_sweep, "CSV sweep over a state family"),
            ("oracle", cmd_oracle, "brute-force minimum for a state file"),
            ("validate", cmd_validate, "validity report for a state file")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name == "sweep":
            p.add_argument("--family", required=True,
                           choices=("werner", "mixed_bell", "bell_diagonal"))
            for flag in ("--start", "--end", "--step"):
                p.add_argument(flag, type=float, required=True)
            p.add_argument("--omega",
                           help="three comma-separated expressions in 'a' "
                                "(bell_diagonal only)")
        else:
            p.add_argument("--state", required=True)
        for flag, _, kind, _, commands in _OPTIONS:
            if name in commands:
                p.add_argument(flag, **(
                    {"action": "store_true", "default": None} if kind is bool
                    else {"choices": kind} if isinstance(kind, tuple)
                    else {"type": kind}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_options(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
