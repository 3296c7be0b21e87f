"""Command-line orchestration.

Subcommands: classify, plan, verify-density, carayol, sigma, screen-p,
a-ell.  All reports are JSON with sorted keys, a ``schema_version`` field,
and the config's asserted hypotheses echoed under ``assertions``; repeated
runs with identical config and flags produce byte-identical output (no
timestamps unless --timestamps).  The reports with a row a prime
(``classify``, ``sigma``, ``a-ell``) render their rows from the sweep's
columns, one string a chunk, with the text ``json.dumps`` would print
(:func:`_emit_report`).

Every output, stdout, ``--out`` or ``verify-density --csv``, is empty when
its command fails.  A file is opened, and emptied, before the work it
receives starts, so an unwritable path is refused at once; it is written
as the command runs, so a sweep's memory stays flat.  On a nonzero exit,
:func:`main` empties every file the command line names, opened or not,
unless the run reads it: the config, or a table the config names, is never
emptied, also when the config does not load.  Once the config has loaded, and
before any output is opened, an ``--out`` or ``--csv`` that names one of
those files, or the other output, is refused.  Text for stdout is held and
written only on success.  A command line argparse refuses runs no command
and touches no file.
Input that asks for two things at once is refused, never half done:
``a-ell`` takes ``--ell`` or ``--from`` and ``--to``, and ``verify-density``
takes ``--enumerate-gl2`` or ``--csv``, not both.  Exit codes: 0 success, 2 configuration or
usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import IO, Callable, Iterator

from .arith import PrimeRange, factorize
from .config import RunConfig, build_context, input_paths, load_config
from .density import empirical_density, enumerate_gl2_classes
from .errors import ComputationError, ConfigError
from .forms import a_ells
from .iwasawa import bk_rank_bounds, sigma_columns
# the traced benchmark (bench/run.py) wraps cli.sigma_ell by name
from .iwasawa import sigma_ell  # noqa: F401
from .levels import CARAYOL_TRIAL_BOUND, carayol_check, plan_target_lambda
from .residual import (
    JSON_FIELD,
    JSON_ROW_SEPARATOR,
    Verdict,
    classify_chunks,
    coefficient_chunks,
    json_row_pieces,
    json_value,
    resolve_workers,
    screen_p,
    tee_to_csv,
)
# the traced benchmark (bench/run.py) wraps cli.classify_range by name
from .residual import classify_range  # noqa: F401

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# The JSON rows of sigma and a-ell, cut at their fields (in key order).
_SIGMA_JSON = json_row_pieces(dict.fromkeys(("d", "ell", "s", "sigma"), JSON_FIELD))
_A_ELL_JSON = json_row_pieces(dict.fromkeys(("a_ell", "ell"), JSON_FIELD))


class _Held(list):
    """Text for stdout, held as the strings written until the command succeeds."""

    write = list.append


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """Where a command writes: the file at ``path``, else stdout.

    A file is opened, and so emptied, at once, and written as the command
    runs; :func:`main` empties it again if the command fails.  Text for
    stdout is held, and written to the ``sys.stdout`` of that moment once
    the command has succeeded.
    """
    if not path:
        held = _Held()
        yield held
        for text in held:
            sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as out:
        yield out


def _refuse_clobbering(outputs: dict[str, str], inputs: list[Path]) -> None:
    """Refuse outputs (flag -> path) that name one file, or a file of ``inputs``.

    Called before any output is opened, so that no input is emptied.
    """
    named = {os.path.realpath(path): flag for flag, path in outputs.items()}
    if len(named) < len(outputs):
        raise ConfigError("verify-density --out and --csv name the same file")
    for path in inputs:
        if flag := named.get(os.path.realpath(path)):
            raise ConfigError(f"{flag} names {path}, which this run reads")


def _empty(paths: list[str], inputs: list[Path]) -> None:
    """Empty each file in ``paths`` that exists, can be written and is none of ``inputs``.

    No file is created, and a file the run reads is kept whole.
    """
    kept = {os.path.realpath(path) for path in inputs}
    for path in paths:
        if os.path.realpath(path) not in kept:
            with contextlib.suppress(OSError), open(path, "r+b") as file:
                file.truncate()


class _JsonRows(list):
    """A report's list of rows as JSON text: a string a chunk, its rows joined
    by :data:`~lambda_forge.residual.JSON_ROW_SEPARATOR` ("" for no rows)."""


@contextlib.contextmanager
def _exact_int_text() -> Iterator[None]:
    """Python's int <-> str conversions, unlimited in digits, within the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_report(payload: dict, cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    """Write the report as ``json.dumps(report, sort_keys=True, indent=2,
    default=json_value)`` prints it: a report object in ``payload`` is
    written through :func:`~lambda_forge.residual.json_value`.

    A value of ``payload`` that is :class:`_JsonRows` (a report has at most
    one) is already JSON text: the rest of the report is dumped with an
    empty list at its key, and the pieces are written into that list one
    at a time, never joined.
    """
    report = dict(payload)
    report["schema_version"] = SCHEMA_VERSION
    report["assertions"] = cfg.assertions()
    if args.timestamps:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    key = next((key for key, value in report.items() if isinstance(value, _JsonRows)), None)
    pieces = [piece for piece in report.get(key, ()) if piece]
    if key is not None:
        report[key] = []
    with _exact_int_text():  # a level of any size is written exactly
        text = json.dumps(report, sort_keys=True, indent=2, default=json_value) + "\n"
    if pieces:
        # only the lines of top-level keys are indented by exactly two spaces
        head, _, text = text.partition(f"\n  {json.dumps(key)}: []")
        out.write(f"{head}\n  {json.dumps(key)}: [\n    ")
        out.write(pieces[0])
        for piece in pieces[1:]:
            out.write(JSON_ROW_SEPARATOR)
            out.write(piece)
        out.write("\n  ]")
    out.write(text)


def nonnegative_int(text: str) -> int:
    """argparse type for a count that may be 0 but not negative."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def level_int(text: str) -> int:
    """argparse type for a level: an integer of any number of digits, as ``plan`` prints."""
    with _exact_int_text():
        try:
            return int(text)
        except ValueError:
            shown = repr(text)
            if len(text) > 100:
                shown = f"{shown[:21]}...' ({len(text):,} characters)"
            raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def _add_common(parser: argparse.ArgumentParser, run: Callable) -> None:
    parser.set_defaults(run=run)
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--timestamps", action="store_true", help="add a generation timestamp")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-forge",
        description=(
            "Level raising with prescribed lambda-invariants: classify Frobenius "
            "classes, plan admissible levels, and verify the density claims."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify primes in a range")
    _add_common(p_classify, _cmd_classify)
    p_classify.add_argument("--from", dest="lo", type=int, required=True)
    p_classify.add_argument("--to", dest="hi", type=int, required=True)
    p_classify.add_argument("--format", choices=("json", "csv"), default="json")
    p_classify.add_argument(
        "--workers", type=nonnegative_int, default=0, help="0 = LAMBDA_FORGE_THREADS or all cores"
    )

    p_plan = sub.add_parser("plan", help="plan a level set hitting a target lambda")
    _add_common(p_plan, _cmd_plan)
    p_plan.add_argument("--target-lambda", dest="target", type=int, required=True)
    p_plan.add_argument("--omega-count", dest="omega_count", type=nonnegative_int, default=0)
    p_plan.add_argument("--scan-bound", dest="scan_bound", type=int, default=100_000)

    p_density = sub.add_parser("verify-density", help="verify the density claims")
    _add_common(p_density, _cmd_verify_density)
    p_density.add_argument("--bound", type=int, default=2_000_000)
    p_density.add_argument(
        "--enumerate-gl2",
        dest="enumerate_gl2",
        type=int,
        metavar="P",
        help="exhaustive class census for small p instead of the empirical sweep",
    )
    p_density.add_argument("--csv", dest="csv_path", help="also dump per-prime classification")
    p_density.add_argument(
        "--workers", type=nonnegative_int, default=0, help="0 = LAMBDA_FORGE_THREADS or all cores"
    )

    p_carayol = sub.add_parser("carayol", help="check a proposed level for admissibility")
    _add_common(p_carayol, _cmd_carayol)
    p_carayol.add_argument("--level", type=level_int, required=True)

    p_sigma = sub.add_parser("sigma", help="local transfer invariants over a prime range")
    _add_common(p_sigma, _cmd_sigma)
    p_sigma.add_argument("--from", dest="lo", type=int, required=True)
    p_sigma.add_argument("--to", dest="hi", type=int, required=True)
    p_sigma.add_argument("--format", choices=("json", "csv"), default="json")

    p_screen = sub.add_parser("screen-p", help="screen a candidate working prime")
    _add_common(p_screen, _cmd_screen_p)
    p_screen.add_argument("--p", dest="candidate", type=int, required=True)

    p_aell = sub.add_parser("a-ell", help="Fourier coefficients from the backend")
    _add_common(p_aell, _cmd_a_ell)
    p_aell.add_argument("--ell", type=int, action="append", default=None)
    p_aell.add_argument("--from", dest="lo", type=int)
    p_aell.add_argument("--to", dest="hi", type=int)
    p_aell.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _cmd_classify(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    workers = args.workers or resolve_workers()
    chunks = classify_chunks(ctx, PrimeRange(args.lo, args.hi), workers=workers)
    if args.format == "csv":
        for _ in tee_to_csv(chunks, out):
            pass
        return
    rows = _JsonRows()
    counts = Counter(dict.fromkeys(Verdict, 0))
    for chunk in chunks:
        rows.append(chunk.json_rows())
        counts.update(chunk.counts())
    _emit_report(
        {
            "range": {"from": args.lo, "to": args.hi},
            "counts": {verdict.value: n for verdict, n in counts.items()},
            "classification": rows,
        },
        cfg,
        args,
        out,
    )


def _cmd_plan(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    level_set = plan_target_lambda(
        ctx, args.target, args.omega_count, args.scan_bound,
        workers=resolve_workers(),
    )
    payload = json_value(level_set)
    payload["bk_rank"] = bk_rank_bounds(level_set.predicted_lambda)
    # the level's factors are known: N_g's, and each chosen prime once
    factors = factorize(ctx.level, trial_bound=CARAYOL_TRIAL_BOUND)
    factors += [(ell, 1) for ell in level_set.pi_primes + level_set.omega_primes]
    payload["carayol_cases"] = carayol_check(ctx, level_set.N_f, factors=factors).primes
    _emit_report(payload, cfg, args, out)


def _cmd_verify_density(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    if args.enumerate_gl2 is not None:
        if args.csv_path:
            raise ConfigError("verify-density takes --enumerate-gl2 or --csv, not both")
        report = enumerate_gl2_classes(args.enumerate_gl2)
        _emit_report(json_value(report), cfg, args, out)
        return
    ctx = build_context(cfg)
    workers = args.workers or resolve_workers()
    prime_range = PrimeRange(2, args.bound)
    if args.csv_path:
        # the CSV has a row a prime, so this sweep fetches and checks every a_ell
        with _output(args.csv_path) as csv_file:
            chunks = tee_to_csv(classify_chunks(ctx, prime_range, workers=workers), csv_file)
            pi_report, omega_report = empirical_density(ctx, prime_range, chunks=chunks)
    else:
        pi_report, omega_report = empirical_density(ctx, prime_range, workers=workers)
    _emit_report({"bound": args.bound, "pi": pi_report, "omega": omega_report}, cfg, args, out)


def _cmd_carayol(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    report = carayol_check(ctx, args.level)
    _emit_report(json_value(report), cfg, args, out)


def _cmd_sigma(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    prime_range = PrimeRange(args.lo, args.hi)
    chunks = classify_chunks(ctx, prime_range, workers=resolve_workers())
    tables = (zip(*(column.tolist() for column in sigma_columns(chunk))) for chunk in chunks)
    if args.format == "csv":
        out.write("ell,s,d,sigma\n")
        for table in tables:
            out.write("".join([f"{e},{s},{d},{sg}\n" for e, s, d, sg in table]))
        return
    p0, p1, p2, p3, p4 = _SIGMA_JSON
    rows = _JsonRows(
        JSON_ROW_SEPARATOR.join([f"{p0}{d}{p1}{e}{p2}{s}{p3}{sg}{p4}" for e, s, d, sg in table])
        for table in tables
    )
    _emit_report({"range": {"from": args.lo, "to": args.hi}, "sigma": rows}, cfg, args, out)


def _cmd_screen_p(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    if cfg.backend != "curve" or cfg.curve is None:
        raise ConfigError("screen-p needs a curve backend")
    report = screen_p(cfg.curve, args.candidate)
    _emit_report(json_value(report), cfg, args, out)


def _cmd_a_ell(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    if args.ell and (args.lo is not None or args.hi is not None):
        raise ConfigError("a-ell takes --ell or --from and --to, not both")
    ctx = build_context(cfg)
    if args.ell:
        ells = sorted(set(args.ell))
        tables = [zip(ells, a_ells(ctx, ells))]
    elif args.lo is not None and args.hi is not None:
        # the sweep's coefficient stream: sieved primes, so a_ells' checks are not needed
        prime_range = PrimeRange(args.lo, args.hi)
        tables = (
            zip(chunk.ells[chunk.fetched].tolist(), chunk.a_ells.tolist())
            for chunk in coefficient_chunks(ctx, prime_range, workers=resolve_workers())
        )
    else:
        raise ConfigError("a-ell needs --ell or both --from and --to")
    if args.format == "csv":
        out.write("ell,a_ell\n")
        for table in tables:
            out.write("".join([f"{ell},{a}\n" for ell, a in table]))
        return
    p0, p1, p2 = _A_ELL_JSON
    rows = _JsonRows(
        JSON_ROW_SEPARATOR.join([f"{p0}{a}{p1}{ell}{p2}" for ell, a in table]) for table in tables
    )
    _emit_report({"coefficients": rows}, cfg, args, out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    named = {"--out": args.out, "--csv": getattr(args, "csv_path", None)}
    outputs = {flag: path for flag, path in named.items() if path}
    inputs = input_paths(args.config)
    failed = True
    try:
        cfg = load_config(args.config)
        _refuse_clobbering(outputs, inputs)
        with _output(args.out) as out:
            args.run(cfg, args, out)
        failed = False
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out or --csv, named in exc
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    finally:
        if failed:
            _empty(list(outputs.values()), inputs=inputs)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
