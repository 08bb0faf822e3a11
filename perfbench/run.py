"""Benchmark of the ifsdigits command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the README commands of one workload (see ``workloads.py``) from the
source tree under ``src/``, each in a fresh process, as a closed loop with
one client: the next command starts when the previous one has exited.  It
repeats the workload for ``--seconds`` seconds, then checks the outputs:
every repetition must write the same bytes, those bytes must pass the
workload's correctness checks, and at the default seed they must match the
SHA-256 digests in ``golden.json``.  On ``occupancy-law`` the same command
with ``--threads 2`` must write the same bytes as with ``--threads 1``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracer.py``), plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its unit and sample count, the output
digests, and a run record.

Exits 2 without a result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path("perfbench") / ".work"  # relative to ROOT, where commands run
DEFAULT_SEED = 0xD1617  # the command line's own default seed
COMMAND_TIMEOUT_S = 60
MIN_REPS = 3
MIN_SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "digits_per_s": "digits/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_share": "share",
}

# Per-layer metric -> (unit, where a traced repetition's value comes from).
# ("total_s" | "self_s", span) is a span's total or self time, ("counts", name)
# a counter; None marks a value computed in per_layer().
PER_LAYER = {
    "cli.import_s": ("s", None),
    "cli.import_scipy_s": ("s", None),
    "cli.self_s": ("s", ("self_s", "cli.main")),
    "cli.bytes_out": ("bytes", None),
    "weights.sampler_build_s": ("s", ("total_s", "weights.sampler_build")),
    "weights.table_entries": ("count", ("counts", "weights.table_entries")),
    "weights.sample_s": ("s", ("total_s", "weights.sample")),
    "weights.draws": ("count", ("counts", "weights.draws")),
    "weights.fallback_draws": ("count", ("counts", "weights.fallback_draws")),
    "weights.fallback_share": ("share", None),
    "weights.tilted_tail_sum.calls": ("count", ("counts", "weights.tilted_tail_sum.calls")),
    "weights.potter_scan_s": ("s", ("total_s", "weights.potter_scan")),
    "weights.partial_sum_exponent.calls": ("count", ("counts", "weights.partial_sum_exponent.calls")),
    "occupancy.monte_carlo_law_self_s": ("s", ("self_s", "occupancy.monte_carlo_law")),
    "occupancy.expected_distinct_s": ("s", ("total_s", "occupancy.expected_distinct")),
    "occupancy.distinct_counts_s": ("s", ("total_s", "occupancy.distinct_counts")),
    "occupancy.distinct_counts.calls": ("count", ("counts", "occupancy.distinct_counts.calls")),
    "occupancy.threads2_speedup": ("ratio", None),
    "tilt.cylinder_sum_mc_self_s": ("s", ("self_s", "tilt.cylinder_sum_mc")),
    "tilt.words": ("count", ("counts", "tilt.words")),
    "tilt.bound_chain_s": ("s", ("total_s", "tilt.bound_chain")),
    "linear.build_block_schedule_s": ("s", ("total_s", "linear.build_block_schedule")),
    "linear.sample_word_s": ("s", ("total_s", "linear.sample_word")),
    "linear.point_trace_s": ("s", ("total_s", "linear.point_trace")),
    "sublinear.profile_s": ("s", ("total_s", "sublinear.profile")),
    "sublinear.build_schedule_s": ("s", ("total_s", "sublinear.build_schedule")),
    "sublinear.sample_word_s": ("s", ("total_s", "sublinear.sample_word")),
    "sublinear.ratio_trace_s": ("s", ("total_s", "sublinear.ratio_trace")),
    "sublinear.cumulative_tables": ("count", ("counts", "sublinear.cumulative_tables")),
    "codec.word_to_line_s": ("s", ("total_s", "codec.word_to_line")),
    "rng.substream.calls": ("count", ("counts", "rng.substream.calls")),
    "trace.overhead_s": ("s", None),
}

@dataclass
class Invocation:
    """One command run in a fresh process: its report and output digest."""

    cmd: workloads.Command
    traced: bool
    report: dict | None = None
    digest: str | None = None
    bytes_out: int = 0
    import_scipy_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _paths(tag: str) -> dict[str, Path]:
    return {ext: ROOT / WORK / f"{tag}.{ext}" for ext in ("out", "err", "json")}


def _child(argv, tag: str, traced: bool) -> tuple[dict | None, str]:
    """Run ``child.py`` on ``argv``; returns its report, or None and the problem."""
    paths = _paths(tag)
    paths["json"].unlink(missing_ok=True)
    cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
    cmd += [str(HERE / "child.py"), str(paths["json"])] + (["--trace"] if traced else [])
    cmd += ["--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(paths["out"], "wb") as fo, open(paths["err"], "wb") as fe:
        try:
            proc = subprocess.run(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {COMMAND_TIMEOUT_S} s"
    if proc.returncode != 0 or not paths["json"].exists():
        err = paths["err"].read_text(encoding="utf-8", errors="replace").strip()
        return None, f"exit {proc.returncode} {' '.join(err.splitlines()[-1:])}".strip()
    return json.loads(paths["json"].read_text(encoding="utf-8")), ""


def setup_only() -> dict | None:
    """Set-up alone in a fresh process: import ``ifsdigits.cli``, build the parser."""
    return _child([], "setup", False)[0]


def _outputs(cmd) -> list[Path]:
    """Standard output, then the word file if the command writes one."""
    return [_paths(cmd.label)["out"]] + ([ROOT / cmd.word_out] if cmd.word_out else [])


def _reference(cmd) -> list[Path]:
    return [path.with_name(path.name + ".ref") for path in _outputs(cmd)]


def run_command(cmd, traced: bool, keep: bool = False) -> Invocation:
    """Run ``cmd`` and digest its outputs; ``keep`` saves them for the checks."""
    inv = Invocation(cmd, traced)
    if cmd.word_out is not None:
        (ROOT / cmd.word_out).unlink(missing_ok=True)
    inv.report, problem = _child(cmd.argv, cmd.label, traced)
    if problem:
        inv.problems.append(f"{cmd.label}: {problem}")
        return inv
    digest = hashlib.sha256()
    for path, ref in zip(_outputs(cmd), _reference(cmd)):
        data = path.read_bytes()
        inv.bytes_out += len(data)
        digest.update(data)
        if keep:
            ref.write_bytes(data)
    inv.digest = digest.hexdigest()
    if traced:
        inv.import_scipy_s = _scipy_import_s(_paths(cmd.label)["err"])
    return inv


def _scipy_import_s(err_path: Path) -> float:
    """Cumulative ``-X importtime`` of ``scipy.special``; 0 if not imported."""
    for line in err_path.read_text(encoding="utf-8", errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[2].strip() == "scipy.special":
            return int(parts[1]) / 1e6
    return 0.0


def _complete(rep) -> bool:
    return all(inv.report for inv in rep)


def _wall(rep) -> float:
    return sum(inv.report["wall_s"] for inv in rep)


# -- checks -------------------------------------------------------------------


def check_outputs(ifs, invocations, seed: int) -> dict[str, str]:
    """Check every invocation against the first output of its command.

    The first output of each command, kept by :func:`run_command`, is
    checked for correctness once; every other invocation of the command
    must have written the same bytes.  At the default seed the digests must
    match ``golden.json``.  Problems are attached to the invocations they
    fail; returns the reference digest of each command.
    """
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    references = {}
    for inv in invocations:
        label = inv.cmd.label
        if inv.digest is None:
            continue
        if label not in references:
            references[label] = (inv.digest, _check_reference(ifs, inv, seed, golden))
        digest, problems = references[label]
        if inv.digest != digest:
            inv.problems.append(f"{label}: output differs from the first repetition")
        inv.problems.extend(problems)
    return {label: digest for label, (digest, _) in references.items()}


def _check_reference(ifs, inv, seed: int, golden: dict) -> list[str]:
    cmd = inv.cmd
    texts = [path.read_text(encoding="utf-8") for path in _reference(cmd)]
    out, word = texts[0], (texts[1] if len(texts) > 1 else None)
    try:
        problems = workloads.CHECKS[cmd.label](ifs, cmd, out, word)
    except (ValueError, KeyError, IndexError, ifs.IfsDigitsError) as exc:
        problems = [f"{cmd.label}: check raised {type(exc).__name__}: {exc}"]
    expected = golden.get(cmd.label)
    if seed == DEFAULT_SEED and inv.digest != expected:
        problems.append(f"{cmd.label}: sha256 {inv.digest} differs from golden {expected}")
    return problems


# -- metrics ------------------------------------------------------------------


def _tail_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"no tail percentile: {n} samples, 20 needed for p50 + 10 beyond"
    p = int(100 * (1 - 10 / n))
    return f"p{p} = {statistics.quantiles(values, n=100)[p - 1]!r} s"


def end_to_end(reps, setups, attempted: int, failed: int) -> tuple[dict, dict]:
    good = [rep for rep in reps if _complete(rep)]
    walls = [_wall(rep) for rep in good]
    digits = sum(inv.cmd.digits for inv in good[0])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "digits_per_s": statistics.median([digits / w for w in walls]),
        "cpu_s": statistics.median([sum(i.report["cpu_s"] for i in rep) for rep in good]),
        "peak_rss_mb": statistics.median(
            [max(i.report["peak_rss_mb"] for i in rep) for rep in good]),
        "ops_ok_share": 1.0 - failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(walls)} repetitions; {_tail_note(walls)}",
        "digits_per_s": f"{digits} digits per repetition, median of {len(walls)}",
        "cpu_s": f"user + system, median of {len(walls)} repetitions",
        "peak_rss_mb": f"largest process per repetition, median of {len(walls)}",
        "ops_ok_share": f"{attempted - failed} of {attempted} commands ok; "
                        f"ops_failed_share = {failed / attempted!r}",
    }
    return values, notes


def per_layer(reps, speedup: float) -> tuple[dict, dict]:
    traced = [rep for rep in reps if rep[0].traced and _complete(rep)]
    plain = [rep for rep in reps if not rep[0].traced and _complete(rep)]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for rep in traced:
        sums = {name: 0.0 for name, (_, source) in PER_LAYER.items() if source}
        for inv in rep:
            summary = inv.report["trace"]
            for name in sums:
                section, key = PER_LAYER[name][1]
                sums[name] += summary[section].get(key, 0)
        for name, value in sums.items():
            samples[name].append(value)
        draws = sums["weights.draws"]
        samples["weights.fallback_share"].append(
            sums["weights.fallback_draws"] / draws if draws else 0.0)
        samples["cli.bytes_out"].append(sum(i.bytes_out for i in rep))
        samples["cli.import_s"].append(statistics.median([i.report["import_s"] for i in rep]))
        samples["cli.import_scipy_s"].append(statistics.median([i.import_scipy_s for i in rep]))
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    values["occupancy.threads2_speedup"] = speedup
    values["trace.overhead_s"] = (statistics.median([_wall(r) for r in traced])
                                  - statistics.median([_wall(r) for r in plain]))
    notes = {name: f"median of {len(traced)} traced repetitions" for name in values}
    notes["occupancy.threads2_speedup"] = "monte_carlo_law time, threads 1 / threads 2"
    notes["trace.overhead_s"] = (f"median traced minus median untraced wall "
                                 f"({len(traced)} and {len(plain)} repetitions)")
    return values, notes


def threads2_speedup(reps, two: Invocation, trace: bool) -> float:
    """``monte_carlo_law`` time (traced) or command wall time (untraced),
    median with ``--threads 1`` over the time with ``--threads 2``."""

    def cost(inv):
        if trace:
            return inv.report["trace"]["total_s"].get("occupancy.monte_carlo_law", 0.0)
        return inv.report["wall_s"]

    one = statistics.median([cost(i) for rep in reps for i in rep
                             if i.report and i.traced == trace])
    return one / cost(two) if cost(two) else 0.0


# -- run record ---------------------------------------------------------------


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# -- main ---------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through the normal unwinding path, so subprocess.run kills and
    # reaps a running command and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ifsdigits" / "cli.py").is_file():
        print(f"error: no ifsdigits source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ifsdigits as ifs

    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    try:
        return _run(ifs, args)
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)


def _run(ifs, args) -> int:
    name, seed, trace = args.workload, args.seed, bool(args.trace)
    commands = workloads.WORKLOADS[name](seed, WORK)
    setup_only()  # warm-up: byte-compiles the package and fills the page cache

    reps = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS * (1 + trace) or time.perf_counter() < deadline:
        traced = trace and len(reps) % 2 == 1
        rep = [run_command(cmd, traced, keep=not reps) for cmd in commands]
        reps.append(rep)
        if not _complete(rep):
            break  # a failing command would fail again; stop measuring

    # Thread independence: --threads 2 must write the --threads 1 bytes.
    extra = []
    nproc = _nproc()
    if name == "occupancy-law" and nproc >= 2:
        extra.append(run_command(workloads.occupancy_law(seed, WORK, threads=2)[0], trace))

    setups = [i.report["setup_s"] for rep in reps for i in rep if i.report and not i.traced]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        report = setup_only()
        if report is None:
            break
        setups.append(report["setup_s"])

    invocations = [i for rep in reps for i in rep] + extra
    digests = check_outputs(ifs, invocations, seed)
    attempted = len(invocations)
    failed = sum(not inv.ok for inv in invocations)
    needed = {False, True} if trace else {False}
    if {rep[0].traced for rep in reps if _complete(rep)} != needed or not setups:
        for inv in invocations:
            print("FAILED", *inv.problems, file=sys.stderr)
        print("error: a command failed before any measurement completed", file=sys.stderr)
        return 1

    speedup = threads2_speedup(reps, extra[0], trace) if extra and extra[0].report else 0.0
    if trace:
        values, notes = per_layer(reps, speedup)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, notes = end_to_end(reps, setups, attempted, failed)
        units = END_TO_END

    print(f"workload {name}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}  "
          f"commands {attempted}  nproc {nproc}")
    for metric, unit in units.items():
        print(f"  {metric:36s} {values[metric]!r} {unit}  ({notes[metric]})")
    walls = [_wall(rep) for rep in reps if _complete(rep)]
    print("  repetition walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    if extra and not trace:
        print(f"  threads2_speedup {speedup!r}  (wall, --threads 1 / --threads 2; not gated)")
    missing = sorted({m for i in invocations if i.report for m in i.report.get("missing", [])})
    if missing:
        print("  not traced, target not found: " + ", ".join(missing))
    for label, digest in digests.items():
        print(f"  sha256 {label} {digest}")
    for inv in invocations:
        for problem in inv.problems:
            print(f"  FAILED {problem}")
    print(f"  checks: {attempted - failed} of {attempted} commands passed")

    record = {
        "version": getattr(ifs, "__version__", None),
        "commit": _git_commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "workload": name,
        "spec": ifs.model_to_spec(ifs.luroth_model()),
        "seed": seed,
        "argv": [list(inv.cmd.argv) for inv in reps[0] + extra],
        "stages": {k: values[k] for k, unit in units.items() if unit == "s"},
        "counters": {k: values[k] for k, unit in units.items() if unit != "s"},
        "peak_rss_mb": max(i.report["peak_rss_mb"] for i in invocations if i.report),
    }
    print("run record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
