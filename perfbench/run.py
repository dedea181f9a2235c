"""qdiscord benchmark: one workload per run, closed loop, single caller.

    python3 perfbench/run.py --workload general_2x2 --seed 1 \
        --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One process, no threads.  Each state is sent only after the
previous call returned, and calls continue until `--seconds` of call
time have been spent.  Every answer is then checked, outside the timed
region, against the independent reference in `reference.py`.

With `--trace 0` the end-to-end metrics are reported.  Their times are
scaled to a reference machine speed by a calibration kernel timed next
to every call (see calibration.py), because on a shared host the
processor's speed moves by more than any bound worth setting; the wall
times are printed beside them and kept in the details file.

- setup_s: median over fresh interpreters of the processor time that
  `import qdiscord` takes in the child's main thread, measured inside
  each child process and scaled like the other times.  Processor time,
  because an import's wall time also holds waits for the disk and the
  scheduler, which on a shared host moved a ten-seed median by 30 %;
  the main thread's, because numpy's import starts BLAS threads whose
  start-up would count in the process's.
- latency_p50_ms: median time per state (per `quantum_discord` call; per
  `cli.main` call in oracle_verify).  bell_orbit sends its states in
  pairs, one as built and one LU-rotated, whose costs differ about 3x;
  its samples are pair means, so that the median does not jump between
  the two halves.
- latency_tail_ms: over the first TAIL[workload] samples of the run,
  the highest percentile with at least ten samples above it (the
  largest sample when there are too few for that).  The number of
  samples and the percentile are fixed per workload, so every commit
  reports the same statistic of the same states whatever its speed; the
  run goes on past `--seconds` until it has that many.  Both are
  printed.
- states_per_s: states completed per second of call time.

A state fails on an exception, a nonzero CLI exit, an invariant broken
by more than 1e-9 (I = C + QD, 0 <= C <= S(rho_A), C <= 1, QD >= 0) or
a minimum conditional entropy more than 1e-5 bits from the reference.
`failed` counts such states; `correct` is false when any returned
answer is wrong (an exception or a nonzero exit alone leaves it true).

With `--trace 1` public functions of each module are wrapped in spans
(see tracing.py) for the first half of `--seconds`; the same states are
then replayed untraced.  Per-layer metrics are per traced state, and
their times are scaled by the calibration kernel like the end-to-end
ones.  Times named after a stage are inclusive (optimizer.grid_oracle_ms,
correlations.mutual_information_ms, states.load_state_ms); the others
are self times.  The path medians (correlations.*_path_state_ms) come
from the untraced replay, and trace.overhead_s is the traced minus the
untraced call time per state.  A metric whose functions no longer
exist is left out and named on the "absent" line.

The last line of standard output is the JSON result.  Details (the
environment, sample counts, the answer digest) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 11
# Calibration windows on each side of a state that set its time scale;
# more than one, because a single kernel run is a point sample of a
# speed that changes within a second.
CALIBRATION_NEIGHBOURS = 3
DIGEST_STATES = 3
# latency_tail_ms: (latency samples, percentile) per workload.  The
# samples are the run's first ones; ten-seed 25 s runs on a 2-vCPU
# x86_64 host always got at least this many.  At each percentile ten
# samples lie above (qutrit_qubit's seven give their maximum).
# bell_orbit's samples are pair means, so its 50 take 100 states.
TAIL = {"general_2x2": (200, 95.0), "bell_orbit": (50, 80.0),
        "oracle_verify": (30, 66.0), "qutrit_qubit": (7, 100.0)}
SETUP_CHILD = ("import time; t = time.perf_counter(); c = time.thread_time(); "
               "import qdiscord; "
               "print(time.perf_counter() - t, time.thread_time() - c)")


def _import_program():
    """Import qdiscord from this checkout's src/, and nowhere else."""
    package = SRC / "qdiscord"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qdiscord sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdiscord

    if Path(qdiscord.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported qdiscord from {qdiscord.__file__}, "
                 f"not from {package}")


@dataclass
class Sample:
    case: object
    latency_s: float
    answer: object = None
    error: str | None = None
    kernel_s: float | None = None  # calibration kernel time around the call


def measure_setup():
    """Median import time over fresh interpreters: (scaled main-thread
    processor time, wall time) in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    wall, scaled = [], []
    before = calibration.kernel_time(0.0)
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        after = calibration.kernel_time(0.0)
        took, cpu = map(float, done.stdout.split())
        wall.append(took)
        scaled.append(cpu * calibration.scale((before + after) / 2.0))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def closed_loop(workload, seed, seconds, workdir, cases=None, tracer=None,
                calibrate=False, min_states=1):
    """Send states one at a time until `seconds` of call time are spent
    and at least `min_states` were sent (or, given `cases`, exactly
    those).  Returns (samples, call time).

    With `calibrate`, the calibration kernel runs before the first call
    and after every call, outside the timed region, and each sample gets
    the mean kernel time of the CALIBRATION_NEIGHBOURS windows on each
    side of it."""
    from tracing import STATE_SPAN
    from workloads import make_case, prepare

    samples = []
    busy = 0.0
    index = 0
    windows = [calibration.kernel_time(0.0)] if calibrate else []
    while True:
        if cases is not None:
            if index == len(cases):
                break
            case = cases[index]
        else:
            # bell_orbit stops only after a whole (built, rotated) pair.
            if (index >= min_states and busy >= seconds
                    and (workload != "bell_orbit" or index % 2 == 0)):
                break
            case = make_case(workload, seed, index)
        call, read = prepare(workload, case, workdir)
        if tracer is not None:
            tracer.state = case.index
            call = tracer.wrap(STATE_SPAN, call)
        sample = Sample(case, 0.0)
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed state is counted, not fatal
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.latency_s = perf_counter() - t0
        if tracer is not None:
            tracer.state = -1  # making the next state is not its work
        busy += sample.latency_s
        if calibrate:
            windows.append(calibration.kernel_time(sample.latency_s))
        if sample.error is None:
            try:
                sample.answer = read(result)
            except (OSError, ValueError, KeyError) as exc:
                sample.error = f"unreadable answer: {exc}"
        samples.append(sample)
        index += 1
    if calibrate:
        k = CALIBRATION_NEIGHBOURS
        for i, sample in enumerate(samples):
            # windows[i] precedes sample i and windows[i + 1] follows it.
            sample.kernel_s = statistics.fmean(
                windows[max(0, i + 1 - k):i + 1 + k])
    return samples, busy


def check_samples(samples):
    """(failed, correct, gaps) over samples; a state's reference is
    computed once even when the state was run twice."""
    from workloads import check, expected

    failed = 0
    correct = True
    gaps = []
    refs = {}
    for s in samples:
        if s.answer is None:
            failed += 1
            print(f"state {s.case.index} failed: {s.error}")
            continue
        if s.case.index not in refs:
            refs[s.case.index] = expected(s.case)
        defects, gap = check(s.case, s.answer, *refs[s.case.index])
        gaps.append(gap)
        if defects:
            failed += 1
            print(f"state {s.case.index} failed: {', '.join(defects)} "
                  f"(gap {gap:.3e} bits)")
        correct = correct and not (set(defects) - {"exit code"})
    return failed, correct, gaps


def per_state_ms(samples, scaled=True):
    """Call time per state in ms; scaled to the reference machine speed
    by the calibration kernel timed around each call, or as wall time."""
    return [s.latency_s * 1000.0 * (calibration.scale(s.kernel_s)
                                    if scaled else 1.0) for s in samples]


def latency_samples(workload, ms):
    """bell_orbit's samples are pair means (see the module docstring)."""
    if workload == "bell_orbit":
        return [(a + b) / 2.0 for a, b in zip(ms[0::2], ms[1::2])]
    return ms


def tail(values, percentile):
    """Nearest-rank `percentile` of `values`, or their largest value when
    fewer than ten of them lie above that rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0))
    if len(ordered) - rank < 10:
        return ordered[-1]
    return ordered[rank - 1]


def end_to_end(workload, seed, seconds, workdir):
    setup, setup_wall = measure_setup()
    tail_samples, tail_pct = TAIL[workload]
    per_sample = 2 if workload == "bell_orbit" else 1
    samples, busy = closed_loop(workload, seed, seconds, workdir,
                                calibrate=True,
                                min_states=per_sample * tail_samples)
    scaled = per_state_ms(samples)
    lat = latency_samples(workload, scaled)
    wall = latency_samples(workload, per_state_ms(samples, scaled=False))
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail(lat[:tail_samples], tail_pct), "ms"),
        "states_per_s": (1000.0 * len(scaled) / sum(scaled), "1/s"),
    }
    notes = {"latency_samples": len(lat), "tail_samples": tail_samples,
             "tail_percentile": tail_pct,
             "wall_setup_s": setup_wall,
             "wall_latency_p50_ms": statistics.median(wall),
             "wall_latency_tail_ms": tail(wall[:tail_samples], tail_pct),
             "wall_states_per_s": len(samples) / busy,
             "kernel_median_ms": 1000.0 * statistics.median(
                 s.kernel_s for s in samples)}
    return samples, metrics, notes


# Per-layer metrics read from spans: (metric, span, field, unit).  Times
# are per traced state; "total_s" is inclusive, "self_s" excludes children.
_SPAN_METRICS = (
    ("measurement.cost_evals", "measurement.cost_eval", "calls", "count"),
    ("measurement.cost_eval_ms", "measurement.cost_eval", "self_s", "ms"),
    ("measurement.map_calls", "measurement.map", "calls", "count"),
    ("measurement.map_ms", "measurement.map", "self_s", "ms"),
    ("optimizer.search_ms", "optimizer.search", "self_s", "ms"),
    ("optimizer.grid_oracle_ms", "optimizer.grid_oracle", "total_s", "ms"),
    ("optimizer.grid_oracle_calls", "optimizer.grid_oracle", "calls", "count"),
    ("linalg.eig_calls", "linalg.eig", "calls", "count"),
    ("linalg.eig_ms", "linalg.eig", "self_s", "ms"),
    ("su_basis.decompose_calls", "su_basis.decompose", "calls", "count"),
    ("su_basis.decompose_ms", "su_basis.decompose", "self_s", "ms"),
    ("correlations.mutual_information_ms", "correlations.mutual_information",
     "total_s", "ms"),
    ("states.load_state_ms", "states.load_state", "total_s", "ms"),
    ("cli.self_ms", "cli.main", "self_s", "ms"),
)
_PATH_METRICS = ("correlations.fast_path_share",
                 "correlations.fast_path_state_ms",
                 "correlations.general_path_state_ms")


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(workload, seed, seconds, workdir):
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        traced, _ = closed_loop(workload, seed, seconds / 2.0, workdir,
                                tracer=tracer, calibrate=True)
    replay, _ = closed_loop(workload, seed, seconds, workdir,
                            cases=[s.case for s in traced], calibrate=True)
    tracer.save(OUT / f"spans_{workload}.npz")

    n = len(traced)
    spans = tracer.summary({s.case.index: calibration.scale(s.kernel_s)
                            for s in traced})
    missing = tracer.missing_spans()
    metrics = {}
    absent = []
    for name, span, field, unit in _SPAN_METRICS:
        if span in missing:
            absent.append(name)
            continue
        scale = 1e3 if field.endswith("_s") else 1.0
        metrics[name] = (spans.get(span, {}).get(field, 0) * scale / n, unit)

    answers = [s.answer for s in traced if s.answer is not None]
    metrics["optimizer.iterations"] = (
        _mean(a.iterations for a in answers), "count")
    metrics["optimizer.converged_share"] = (
        _mean(a.converged for a in answers), "share")
    metrics["trace.overhead_s"] = (
        (sum(per_state_ms(traced)) - sum(per_state_ms(replay))) / n / 1e3, "s")
    fast = [a.fast_path for a in answers]
    if None in fast:  # the report no longer says which path it took
        absent.extend(_PATH_METRICS)
    else:
        path_ms = {True: [], False: []}
        for s, ms in zip(replay, per_state_ms(replay)):
            if s.answer is not None:
                path_ms[s.answer.fast_path].append(ms)
        metrics[_PATH_METRICS[0]] = (_mean(fast), "share")
        for flag, name in zip((True, False), _PATH_METRICS[1:]):
            metrics[name] = (
                statistics.median(path_ms[flag]) if path_ms[flag] else 0.0,
                "ms")
    notes = {"traced_states": n, "absent": absent,
             "absent_functions": tracer.absent}
    return traced + replay, metrics, notes


def digest(samples):
    """First DIGEST_STATES minimum conditional entropies to 12 digits,
    and a hash of them, so a change that moves an answer shows."""
    values = [f"{s.answer.min_conditional_entropy:.12f}"
              for s in samples[:DIGEST_STATES] if s.answer is not None]
    return values, hashlib.sha256(",".join(values).encode()).hexdigest()[:16]


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    _import_program()
    from workloads import WORKLOADS, make_case, prepare

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        warm_call, _ = prepare("general_2x2",
                               make_case("general_2x2", 0, 0), workdir)
        warm_call()
        measure = per_layer if args.trace else end_to_end
        samples, metrics, notes = measure(args.workload, args.seed,
                                          args.seconds, workdir)
    failed, correct, gaps = check_samples(samples)
    if args.trace:
        metrics["correlations.max_gap_bits"] = (max(gaps, default=0.0), "bits")
    values, answer_hash = digest(samples)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment(), "states": len(samples),
               "answer_digest": {"values": values, "sha256_16": answer_hash},
               **notes, "metrics": reported}
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w") as f:
        json.dump(details, f, indent=1)
        f.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  states {len(samples)}"
          f"  failed_share {failed / len(samples):.4f}"
          f"  digest {answer_hash}")
    for key, value in notes.items():
        print(f"{key:36s} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:<14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
