"""Command-line front end.

Subcommands: ``weights``, ``simulate``, ``construct linear``,
``construct sublinear``, ``cylsum``, ``verify``.  All randomized outputs
carry the seed in a header comment (CSV) or field (JSON) and are
byte-identical across reruns with the same arguments; the thread count
only affects wall time, never output bytes.

Exit codes: 0 success, 2 usage (argparse), 3 invalid values, 4 a
verification suite reported failures, 141 (128 + SIGPIPE) the reader closed
the output pipe early, with nothing written to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import asdict
from itertools import chain, islice

import numpy as np

from . import codec, linear, occupancy, sublinear, tilt, verify, weights
from .errors import DomainError, IfsDigitsError
from .rng import DEFAULT_SEED, substream

__all__ = ["main", "build_parser"]

_JSON_BATCH = 1 << 16  # encoder tokens per write


def _parse_seed(text: str) -> int:
    return int(text, 0)


# An empty item, as in "4,,8" or ",", raises ValueError: argparse's usage error.
def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _parse_number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsdigits",
        description="Distinct-digit statistics of affine digit expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, model: bool = True, seed: bool = True) -> None:
        if model:
            p.add_argument("--model", help="model kind: luroth, power, power-log, explicit-prefix")
            p.add_argument("--rho", type=float, help="tail index for power kinds")
            p.add_argument("--gamma", type=float, help="log exponent for power-log")
            p.add_argument("--prefix", type=_parse_float_list,
                           help="comma-separated explicit prefix probabilities")
            p.add_argument("--config", help="JSON config file; flags override its values")
        if seed:
            p.add_argument("--seed", type=_parse_seed, help="RNG seed (default 0xD1617)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default stdout)")

    w = sub.add_parser("weights", help="weight tables and derived scalars")
    add_common(w, seed=False)
    w.add_argument("--k-max", type=int, default=10, help="print p_k for k up to this")
    w.add_argument("--solve-s", type=int, action="append", default=[],
                   help="solve the truncated-sum exponent at this K (repeatable)")
    w.add_argument("--tail", type=int, action="append", default=[],
                   help="tail sum from this start index (repeatable)")
    w.add_argument("--tilted-tail", nargs=2, type=_parse_number, action="append", default=[],
                   metavar=("M", "S"), help="tilted tail sum from M at exponent S")
    w.add_argument("--potter", type=float, help="run the dyadic ratio scan at this epsilon")
    w.add_argument("--scan-limit", type=int, default=10_000)
    w.set_defaults(func=cmd_weights)

    s = sub.add_parser("simulate", help="Monte Carlo occupancy law")
    add_common(s)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--checkpoints", type=_parse_int_list, default=None)
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("construct", help="sample points from the constructions")
    csub = c.add_subparsers(dest="construction", required=True)

    cl = csub.add_parser("linear", help="block concatenation at a linear rate")
    add_common(cl)
    cl.add_argument("--theta", type=float, required=True)
    cl.add_argument("--depth", type=int, required=True, help="number of blocks")
    cl.add_argument("--k1", type=int, default=None, help="override the scan-derived start index")
    cl.add_argument("--word-out", help="also write the digit word to this path")
    cl.set_defaults(func=cmd_construct_linear)

    cs = csub.add_parser("sublinear", help="forced-digit construction at a sublinear profile")
    add_common(cs)
    cs.add_argument("--profile", default="sqrt", help="sqrt, log, power, or a JSON profile spec")
    cs.add_argument("--beta", type=float, default=None, help="exponent for the power profile")
    cs.add_argument("--c", type=float, default=1.0, help="scale for the power profile")
    cs.add_argument("--t", type=float, required=True, help="dimension target in (0,1)")
    cs.add_argument("--n", type=int, required=True, help="word length (profile horizon)")
    cs.add_argument("--word-out", help="also write the digit word to this path")
    cs.set_defaults(func=cmd_construct_sublinear)

    cy = sub.add_parser("cylsum", help="tilted cylinder sums and the bound chain")
    add_common(cy)
    cy.add_argument("--n", type=_parse_int_list, required=True,
                    help="comma-separated word lengths")
    cy.add_argument("--s", type=float, required=True)
    cy.add_argument("--theta", type=float, required=True)
    cy.add_argument("--mode", choices=("exact", "mc"), default="mc")
    cy.add_argument("--cap", type=int, default=6, help="alphabet cap for exact mode")
    cy.add_argument("--trials", type=int, default=100_000)
    cy.set_defaults(func=cmd_cylsum)

    v = sub.add_parser("verify", help="run the named invariant suites")
    v.add_argument("tier", choices=("quick", "full"))
    add_common(v, model=False)
    v.add_argument("--threads", type=int, default=1)
    v.set_defaults(func=cmd_verify)

    return parser


# -- plumbing -------------------------------------------------------------------


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise IfsDigitsError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise IfsDigitsError("config file must hold a JSON object")
    return cfg


def _resolve(args) -> tuple[weights.WeightModel, int]:
    """The model and seed from the config file, overridden by flags."""
    cfg = _load_config(args)
    spec = cfg.get("model", {})
    if not isinstance(spec, dict):
        raise IfsDigitsError("config field 'model' must be a JSON object")
    spec = dict(spec)
    if getattr(args, "model", None) and args.model != spec.get("kind"):
        spec = {"kind": args.model}  # the config's fields describe another kind
    if getattr(args, "rho", None) is not None:
        spec["rho"] = args.rho
    if getattr(args, "gamma", None) is not None:
        spec["gamma"] = args.gamma
    if getattr(args, "prefix", None) is not None:
        spec["prefix"] = args.prefix
    if not spec.get("kind"):
        spec["kind"] = "luroth"
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = codec.as_count(cfg.get("seed", DEFAULT_SEED), "config field 'seed'", least=0)
    return weights.model_from_spec(spec), seed


def _emit(args, chunks) -> None:
    """Write an iterable of text chunks to ``--out`` or stdout as they arrive."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)


class _ArrayList(list):
    """A numpy array as ``json`` reads a list: ``CSV_CHUNK_ROWS`` entries at a time."""

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator:
        a, step = self.array, codec.CSV_CHUNK_ROWS
        return chain.from_iterable(a[i : i + step].tolist() for i in range(0, len(a), step))


def _as_lists(obj):
    """``obj`` with every numpy array in it, nested dicts included, as an :class:`_ArrayList`.

    Not ``json``'s ``default=``: the encoder passes each token of what that
    returns up through two more generators, 10% more CPU time for
    ``construct linear --depth 18 --format json``.
    """
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    return _ArrayList(obj) if isinstance(obj, np.ndarray) else obj


def _emit_json(args, obj: dict) -> None:
    """``json.dumps(obj, sort_keys=True, indent=2)``, written in batches of tokens; the
    numpy arrays in ``obj`` are read as lists, a chunk of entries at a time."""
    tokens = json.JSONEncoder(sort_keys=True, indent=2).iterencode(_as_lists(obj))
    batches = iter(lambda: "".join(islice(tokens, _JSON_BATCH)), "")
    _emit(args, chain(batches, ["\n"]))


# The weights output per format: the writer of its strings and values, its head, one
# row and the text between rows.  A JSON row is one entry of the "rows" list as
# json.dumps(obj, sort_keys=True, indent=2) writes it.
_WEIGHTS_TEXT = {
    "csv": (str, "# model=%s\nquantity,k,value", "%(q)s,%(k)s,%(v)s", "\n"),
    "json": (json.dumps, '{\n  "model": %s,\n  "rows": [',
             '    {\n      "k": %(k)s,\n      "quantity": %(q)s,\n      "value": %(v)s\n    }',
             ",\n"),
}


def _weights_text(fmt: str, model, p: np.ndarray, rows: list) -> Iterator[str]:
    """The ``weights`` output in ``fmt``: a row of ``p`` and of ``cum`` per digit, then
    the extra ``rows``.  The digit rows are written ``CSV_CHUNK_ROWS`` digits at a
    time from one template, with ``float.__repr__`` for their values, as CSV and
    ``json`` write finite floats; the model name and the extra rows go through
    the format's writer."""
    text, head, row, join = _WEIGHTS_TEXT[fmt]
    digit_rows = join.join(row % {"q": text(q), "k": "%d", "v": "%r"} for q in ("p", "cum"))
    yield head % text(model.describe())
    cum = np.cumsum(p)
    sep = "\n"
    for start in range(0, p.size, codec.CSV_CHUNK_ROWS):
        stop = min(start + codec.CSV_CHUNK_ROWS, p.size)
        cells = zip(range(start + 1, stop + 1), p[start:stop].tolist(), cum[start:stop].tolist())
        yield sep + join.join(digit_rows % (k, v, k, c) for k, v, c in cells)
        sep = join
    for q, k, v in rows:
        yield sep + row % {"q": text(q), "k": k, "v": text(float(v))}
        sep = join
    yield "\n" if fmt == "csv" else "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def _emit_csv(args, comment: str, columns: dict) -> None:
    _emit(args, chain([f"# {comment}\n"], codec.csv_chunks(columns)))


# -- subcommands ------------------------------------------------------------------


def cmd_weights(args) -> int:
    model, _ = _resolve(args)
    k_max = codec.as_count(args.k_max, "--k-max", least=0)
    if k_max > weights._MAX_THRESHOLD:
        raise DomainError(f"--k-max {k_max} exceeds the limit of {weights._MAX_THRESHOLD}")
    p = weights.weights_range(model, 1, k_max + 1)
    rows = []
    for K in args.solve_s:
        rows.append(("s", K, weights.partial_sum_exponent(model, K)))
    for M in args.tail:
        rows.append(("tail", M, weights.tail_sum(model, M)))
    for M, s in args.tilted_tail:
        rows.append((f"tilted_tail(s={float(s)!r})", M,
                     weights.tilted_tail_sum(model, M, float(s))))
    if args.potter is not None:
        rep = weights.potter_scan(model, args.potter, args.scan_limit)
        rows.append((f"potter_k_eps(eps={args.potter!r})", rep.scan_limit, float(rep.k_eps)))
        rows.append((f"potter_C_eps(eps={args.potter!r})", rep.scan_limit, rep.C_eps))
    _emit(args, _weights_text(args.format, model, p, rows))
    return 0


# The LawReport fields that simulate's JSON names otherwise
_LAW_JSON_NAMES = {"model_desc": "model", "karlin": "karlin_constant"}


def cmd_simulate(args) -> int:
    model, seed = _resolve(args)
    report = occupancy.monte_carlo_law(
        model,
        args.n,
        args.trials,
        seed,
        checkpoints=args.checkpoints,
        threads=args.threads,
    )
    if args.format == "json":
        _emit_json(args, {_LAW_JSON_NAMES.get(key, key): v for key, v in asdict(report).items()})
    else:
        rows = len(report.checkpoints)
        _emit_csv(args, f"seed={report.seed} model={report.model_desc} trials={report.trials}", {
            "n": [report.n] * rows,
            "checkpoint": report.checkpoints,
            "mean": report.means,
            "sd": report.sds,
            "exact_expectation": report.exact_expectations,
            "karlin_constant": [report.karlin] * rows,
        })
    return 0


def cmd_construct_linear(args) -> int:
    model, seed = _resolve(args)
    sched = linear.build_block_schedule(model, args.theta, args.depth, k1=args.k1)
    word = sched.sample_word(args.depth, substream(seed, 0x11EA, args.depth))
    trace = linear.point_trace(sched, word)
    if args.word_out:
        codec.write_word(args.word_out, word)
    if args.format == "json":
        # JSON writes every trace column as floats, n and distinct too
        trace = {key: np.asarray(col, dtype=np.float64) for key, col in trace.items()}
        _emit_json(args, {"seed": seed, "theta": float(sched.theta), "depth": args.depth,
                          "k1": sched.k1, "word": word, "trace": trace})
    else:
        _emit_csv(args, f"seed={seed} theta={float(sched.theta)!r} depth={args.depth} "
                        f"k1={sched.k1} model={model.describe()}", trace)
    return 0


def _profile_from_args(args) -> sublinear.AdmissibleProfile:
    # Validate on a horizon of at least 1024: the decay-clause proxy needs a
    # last decade long enough to be meaningful even for short sample requests.
    horizon = max(args.n, 1024)
    text = args.profile
    if text.strip().startswith("{"):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IfsDigitsError(f"--profile is not valid JSON: {exc}") from exc
        spec.setdefault("horizon", horizon)
        return sublinear.profile_from_spec(spec)
    spec = {"kind": text, "horizon": horizon}
    if text == "power":
        spec["beta"] = args.beta
        spec["c"] = args.c
    return sublinear.profile_from_spec(spec)


def cmd_construct_sublinear(args) -> int:
    model, seed = _resolve(args)
    profile = _profile_from_args(args)
    sched = sublinear.build_sublinear_schedule(model, profile, args.t)
    word = sched.sample_word(args.n, substream(seed, 0x5B11, args.n))
    trace = sched.ratio_trace(word)
    counts = occupancy.distinct_counts(word)
    word = sched.to_model_digits(word)
    if args.word_out:
        codec.write_word(args.word_out, word)
    columns = {
        "log_ratio": trace.log_ratio,
        "free_part": trace.free_part,
        "forced_part": trace.forced_part,
        "f": profile.values[1 : args.n + 1],
        "K": sched.K[: args.n],
        "distinct": counts,
    }
    if args.format == "json":
        _emit_json(args, {"seed": seed, "t": sched.t, "k_star": sched.k_star,
                          "profile": profile.provenance, "word": word, **columns})
    else:
        csv_names = ("log_ratio", "free_part", "forced_part", "f_n", "K_n", "D_n")
        _emit_csv(args, f"seed={seed} t={sched.t!r} profile={profile.provenance} "
                        f"k_star={sched.k_star} model={model.describe()}",
                  {"n": range(1, args.n + 1), **dict(zip(csv_names, columns.values()))})
    return 0


def cmd_cylsum(args) -> int:
    model, seed = _resolve(args)
    bounds = [tilt.bound_chain(model, n, args.s, args.theta) for n in args.n]  # before any draw
    if args.mode == "exact":
        records = [tilt.cylinder_sum_exact(model, n, args.s, args.theta, args.cap) for n in args.n]
    else:
        records = tilt.cylinder_sums_mc(model, args.n, args.s, args.theta, args.trials, seed)
    if args.format == "json":
        _emit_json(args, {
            "seed": seed,
            "records": [
                {
                    "n": r.n, "s": r.s, "theta": r.theta, "mode": r.mode,
                    "value": r.value, "stderr": r.stderr,
                    "truncation_deficit": r.truncation_deficit,
                    "log_zeta": r.log_zeta, "prob": r.prob,
                    "log_binomial_bound": b.log_binomial_bound,
                    "log_sum_bound": b.log_sum_bound,
                }
                for r, b in zip(records, bounds)
            ],
        })
    else:
        names = ("n", "s", "theta", "mode", "value", "stderr", "truncation_deficit")
        columns = {name: [getattr(r, name) for r in records] for name in names}
        columns["binomial_bound"] = [math.exp(min(b.log_binomial_bound, 0.0)) for b in bounds]
        _emit_csv(args, f"seed={seed} model={model.describe()}", columns)
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = verify.run_suite(args.tier, seed=seed, threads=args.threads)
    if args.format == "json":
        _emit_json(args, {"tier": report.tier, "seed": report.seed, "passed": report.passed,
                          "checks": [asdict(r) for r in report.results]})
    else:
        _emit(args, [report.to_text()])
    return 0 if report.passed else 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IfsDigitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # buffered output cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
