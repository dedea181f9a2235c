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
from dataclasses import dataclass, fields, replace

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

CSV_COLUMNS = ("param", "mutual_information", "classical_correlation",
               "discord", "min_conditional_entropy",
               "oracle_min_conditional_entropy", "iterations", "converged")


@dataclass(frozen=True)
class RunConfig:
    optimizer: OptimizerConfig | None  # None where nothing is minimised
    oracle_resolution: int = 200
    output_path: str | None = None
    emit_plot_script: bool = False
    use_oracle: bool = False
    input_tolerance: float = 1e-6


def _load_config_file(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc


def _optimizer_config(args, file_cfg: dict) -> OptimizerConfig:
    opt_cfg = dict(file_cfg.get("optimizer", {}))
    for name in ("method", "tol", "max_iter", "restarts", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            opt_cfg[name] = value
    known = {f.name for f in fields(OptimizerConfig)}
    unknown = set(opt_cfg) - known
    if unknown:
        raise ValueError(f"unknown optimizer config keys: {sorted(unknown)}")
    return replace(OptimizerConfig(), **opt_cfg)


def _build_run_config(args, minimizes: bool) -> RunConfig:
    """Flags over the config file over defaults.  The optimizer section
    is built, and checked, only for the subcommands that minimise."""
    file_cfg: dict = {}
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        file_cfg = _load_config_file(path)
    optimizer = _optimizer_config(args, file_cfg) if minimizes else None

    def pick(flag, key, fallback):
        value = getattr(args, flag, None)
        if value is not None:
            return value
        return file_cfg.get(key, fallback)

    return RunConfig(
        optimizer=optimizer,
        oracle_resolution=int(pick("oracle_resolution", "oracle_resolution", 200)),
        output_path=pick("out", "output_path", None),
        emit_plot_script=bool(pick("plot_script", "emit_plot_script", False)),
        use_oracle=bool(getattr(args, "oracle", False)),
        input_tolerance=float(pick("tolerance_input", "input_tolerance", 1e-6)),
    )


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def _report_dict(report) -> dict:
    stats = report.optimizer_stats
    meas = report.optimal_measurement
    return {
        "mutual_information": report.mutual_information,
        "classical_correlation": report.classical_correlation,
        "discord": report.discord,
        "min_conditional_entropy": report.min_conditional_entropy,
        "optimal_measurement": {"r": meas.r, "y": list(meas.y)},
        "optimizer_stats": {
            "method": stats.method,
            "iterations": stats.iterations,
            "restarts": stats.restarts,
            "converged": stats.converged,
            "used_bell_fast_path": stats.used_bell_fast_path,
            "clamped_values": list(stats.clamped_values),
            "oracle_gap": stats.oracle_gap,
        },
    }


def cmd_compute(args) -> int:
    cfg = _build_run_config(args, minimizes=True)
    rho = load_state(args.state, cfg.input_tolerance)
    report = quantum_discord(
        rho, cfg.optimizer,
        oracle_resolution=cfg.oracle_resolution if cfg.use_oracle else None)
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
    if cfg.output_path:
        with open(cfg.output_path, "w") as f:
            json.dump(_report_dict(report), f, indent=1)
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


def _omega_at(exprs, a: float):
    return tuple(_eval_omega(e, a) for e in exprs)


def _family_state(family: str, a: float, omega_exprs) -> DensityMatrix:
    if family == "werner":
        return werner(a)
    if family == "mixed_bell":
        return mixed_bell_family(a)
    if family == "bell_diagonal":
        if not omega_exprs:
            raise ValueError("bell_diagonal sweep needs --omega")
        return bell_diagonal(_omega_at(omega_exprs, a))
    raise ValueError(f"unknown family {family!r}")


def _sweep_params(start: float, end: float, step: float):
    if step <= 0:
        raise ValueError("step must be positive")
    if start > end:
        raise ValueError("start must not exceed end")
    out = []
    k = 0
    while True:
        a = start + k * step
        if a > end + 1e-12:
            break
        out.append(min(a, end))
        k += 1
    return out


def cmd_sweep(args) -> int:
    cfg = _build_run_config(args, minimizes=True)
    omega_exprs = args.omega.split(",") if args.omega else None
    params = _sweep_params(args.start, args.end, args.step)
    all_converged = True
    lines = [",".join(CSV_COLUMNS)]
    for a in params:
        try:
            rho = _family_state(args.family, a, omega_exprs)
        except ValueError as exc:
            raise ValueError(f"invalid state at parameter {a}: {exc}") from exc
        report = quantum_discord(rho, cfg.optimizer)
        if cfg.use_oracle:
            oracle_val, _ = grid_oracle(conditional_entropy_fn(rho),
                                        cfg.oracle_resolution)
            oracle_field = _fmt(oracle_val)
        else:
            oracle_field = ""
        stats = report.optimizer_stats
        all_converged = all_converged and stats.converged
        lines.append(",".join([
            _fmt(a),
            _fmt(report.mutual_information),
            _fmt(report.classical_correlation),
            _fmt(report.discord),
            _fmt(report.min_conditional_entropy),
            oracle_field,
            str(stats.iterations),
            "true" if stats.converged else "false",
        ]))
    csv_text = "\n".join(lines) + "\n"
    out_path = cfg.output_path or "sweep.csv"
    with open(out_path, "w") as f:
        f.write(csv_text)
    print(f"wrote {len(params)} rows to {out_path}")
    if cfg.emit_plot_script:
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
    cfg = _build_run_config(args, minimizes=False)
    rho = load_state(args.state, cfg.input_tolerance)
    value, meas = grid_oracle(conditional_entropy_fn(rho),
                              cfg.oracle_resolution)
    direction = meas.bloch_direction()
    print(f"grid minimum conditional entropy {_fmt(value)} bits "
          f"(resolution {cfg.oracle_resolution}, refined)")
    print(f"optimal projector direction      ({direction[0]:+.6f}, "
          f"{direction[1]:+.6f}, {direction[2]:+.6f})")
    print(f"marginal entropy S(rho_A)        "
          f"{_fmt(von_neumann_entropy(rho.marginal('A')))} bits")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _build_run_config(args, minimizes=False)
    report = read_state(args.state).validity(cfg.input_tolerance)
    print(f"hermiticity defect {report.hermiticity_defect:.6e}")
    print(f"trace defect       {report.trace_defect:.6e}")
    print(f"min eigenvalue     {report.min_eigenvalue:.6e}")
    print(f"valid at tol {report.tol:.1e}: {report.valid}")
    return EXIT_OK if report.valid else EXIT_INPUT_ERROR


# The flags each subcommand reads, named by argparse after the flag
# ("--max-iter" -> max_iter); _build_run_config treats an absent one as unset.
_FLAGS = {"--method": {"choices": METHODS}, "--tol": {"type": float},
          "--max-iter": {"type": int}, "--restarts": {"type": int},
          "--seed": {"type": int}, "--oracle": {"action": "store_true"},
          "--oracle-resolution": {"type": int}, "--out": {},
          "--plot-script": {"action": "store_true", "default": None},
          "--tolerance-input": {"type": float}, "--config": {}}
_MINIMIZE_FLAGS = ("--method", "--tol", "--max-iter", "--restarts", "--seed",
                   "--oracle", "--oracle-resolution", "--out")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error, not exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdiscord",
        description="Classical correlation and quantum discord of bipartite "
                    "states via measurement optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full report for a state file")
    p.add_argument("--state", required=True)
    _add_flags(p, _MINIMIZE_FLAGS + ("--tolerance-input", "--config"))
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sweep", help="CSV sweep over a state family")
    p.add_argument("--family", required=True,
                   choices=("werner", "mixed_bell", "bell_diagonal"))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--end", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--omega",
                   help="three comma-separated expressions in 'a' "
                        "(bell_diagonal only)")
    _add_flags(p, _MINIMIZE_FLAGS + ("--plot-script", "--config"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="brute-force minimum for a state file")
    p.add_argument("--state", required=True)
    _add_flags(p, ("--oracle-resolution", "--tolerance-input", "--config"))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="validity report for a state file")
    p.add_argument("--state", required=True)
    _add_flags(p, ("--tolerance-input", "--config"))
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
