"""Command-line orchestration.

Subcommands: classify, plan, verify-density, carayol, sigma, screen-p,
a-ell.  All reports are JSON with sorted keys, a ``schema_version`` field,
and the config's asserted hypotheses echoed under ``assertions``; repeated
runs with identical config and flags produce byte-identical output (no
timestamps unless --timestamps).  ``--out`` is opened before any work
starts, so an unwritable path is refused at once and a command that fails
leaves it empty, as it leaves ``verify-density --csv``.  Exit codes:
0 success, 2 configuration or usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import sys
from typing import IO, Iterator

from .arith import PrimeRange
from .config import RunConfig, build_context, load_config
from .density import empirical_density, enumerate_gl2_classes
from .errors import ComputationError, ConfigError, LambdaForgeError
from .forms import a_ells
from .iwasawa import bk_rank_bounds, sigma_columns
# the traced benchmark (bench/run.py) wraps cli.sigma_ell by name
from .iwasawa import sigma_ell  # noqa: F401
from .levels import carayol_check, plan_target_lambda
from .residual import (
    Verdict,
    classification_to_csv,
    classify_chunks,
    classify_range,
    coefficient_chunks,
    resolve_workers,
    screen_p,
    tee_to_csv,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


@contextlib.contextmanager
def _opened_out(out_path: str | None) -> Iterator[IO[str]]:
    """Where the report goes: ``--out``, opened (and emptied) now, else stdout."""
    if not out_path:
        yield sys.stdout
        return
    with open(out_path, "w", encoding="utf-8") as out:
        yield out


def _emit_report(payload: dict, cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    report = dict(payload)
    report["schema_version"] = SCHEMA_VERSION
    report["assertions"] = cfg.assertions()
    if getattr(args, "timestamps", False):
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def nonnegative_int(text: str) -> int:
    """argparse type for a count that may be 0 but not negative."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _add_common(parser: argparse.ArgumentParser) -> None:
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
    _add_common(p_classify)
    p_classify.add_argument("--from", dest="lo", type=int, required=True)
    p_classify.add_argument("--to", dest="hi", type=int, required=True)
    p_classify.add_argument("--format", choices=("json", "csv"), default="json")
    p_classify.add_argument(
        "--workers", type=nonnegative_int, default=0, help="0 = LAMBDA_FORGE_THREADS or all cores"
    )

    p_plan = sub.add_parser("plan", help="plan a level set hitting a target lambda")
    _add_common(p_plan)
    p_plan.add_argument("--target-lambda", dest="target", type=int, required=True)
    p_plan.add_argument("--omega-count", dest="omega_count", type=nonnegative_int, default=0)
    p_plan.add_argument("--scan-bound", dest="scan_bound", type=int, default=100_000)

    p_density = sub.add_parser("verify-density", help="verify the density claims")
    _add_common(p_density)
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
    _add_common(p_carayol)
    p_carayol.add_argument("--level", type=int, required=True)

    p_sigma = sub.add_parser("sigma", help="local transfer invariants over a prime range")
    _add_common(p_sigma)
    p_sigma.add_argument("--from", dest="lo", type=int, required=True)
    p_sigma.add_argument("--to", dest="hi", type=int, required=True)
    p_sigma.add_argument("--format", choices=("json", "csv"), default="json")

    p_screen = sub.add_parser("screen-p", help="screen a candidate working prime")
    _add_common(p_screen)
    p_screen.add_argument("--p", dest="candidate", type=int, required=True)

    p_aell = sub.add_parser("a-ell", help="Fourier coefficients from the backend")
    _add_common(p_aell)
    p_aell.add_argument("--ell", type=int, action="append", default=None)
    p_aell.add_argument("--from", dest="lo", type=int)
    p_aell.add_argument("--to", dest="hi", type=int)
    p_aell.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _cmd_classify(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    workers = args.workers or resolve_workers()
    prime_range = PrimeRange(args.lo, args.hi)
    if args.format == "csv":
        buf = io.StringIO()
        classification_to_csv(classify_chunks(ctx, prime_range, workers=workers), buf)
        out.write(buf.getvalue())
        return
    rows = [fc.as_dict() for fc in classify_range(ctx, prime_range, workers=workers)]
    counts: dict[str, int] = {v.value: 0 for v in Verdict}
    for row in rows:
        counts[row["verdict"]] += 1
    _emit_report(
        {"range": {"from": args.lo, "to": args.hi}, "counts": counts, "classification": rows},
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
    payload = level_set.as_dict()
    payload["bk_rank"] = bk_rank_bounds(level_set.predicted_lambda).as_dict()
    carayol = carayol_check(ctx, level_set.n_f)
    payload["carayol_cases"] = [p.as_dict() for p in carayol.primes]
    _emit_report(payload, cfg, args, out)


def _cmd_verify_density(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    if args.enumerate_gl2 is not None:
        report = enumerate_gl2_classes(args.enumerate_gl2)
        _emit_report(report.as_dict(), cfg, args, out)
        return
    ctx = build_context(cfg)
    workers = args.workers or resolve_workers()
    prime_range = PrimeRange(2, args.bound)
    if args.csv_path:
        # the CSV has a row a prime, so this sweep fetches and checks every a_ell
        with open(args.csv_path, "w", encoding="utf-8") as csv_file:
            chunks = tee_to_csv(classify_chunks(ctx, prime_range, workers=workers), csv_file)
            try:
                pi_report, omega_report = empirical_density(ctx, prime_range, chunks=chunks)
            except BaseException:
                # written chunk by chunk, so memory stays flat; a failed sweep
                # leaves it empty, as it leaves --out
                csv_file.truncate(0)
                raise
    else:
        pi_report, omega_report = empirical_density(ctx, prime_range, workers=workers)
    _emit_report(
        {"bound": args.bound, "pi": pi_report.as_dict(), "omega": omega_report.as_dict()},
        cfg,
        args,
        out,
    )


def _cmd_carayol(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    report = carayol_check(ctx, args.level)
    _emit_report(report.as_dict(), cfg, args, out)


def _cmd_sigma(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    ctx = build_context(cfg)
    prime_range = PrimeRange(args.lo, args.hi)
    chunks = classify_chunks(ctx, prime_range, workers=resolve_workers())
    if args.format == "csv":
        # each chunk's rows are written as it arrives, to a buffer, so a sweep that fails
        # writes nothing
        buf = io.StringIO()
        buf.write("ell,s,d,sigma\n")
        for chunk in chunks:
            columns = (column.tolist() for column in sigma_columns(chunk))
            buf.write("".join([f"{e},{s},{d},{sg}\n" for e, s, d, sg in zip(*columns)]))
        out.write(buf.getvalue())
        return
    rows: list[tuple[int, int, int, int]] = []
    for chunk in chunks:
        rows += zip(*(column.tolist() for column in sigma_columns(chunk)))
    _emit_report(
        {
            "range": {"from": args.lo, "to": args.hi},
            "sigma": [{"ell": e, "s": s, "d": d, "sigma": sg} for e, s, d, sg in rows],
        },
        cfg,
        args,
        out,
    )


def _cmd_screen_p(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    if cfg.backend != "curve" or cfg.curve is None:
        raise ConfigError("screen-p needs a curve backend")
    report = screen_p(cfg.curve, args.candidate)
    _emit_report(report.as_dict(), cfg, args, out)


def _cmd_a_ell(cfg: RunConfig, args: argparse.Namespace, out: IO[str]) -> None:
    if args.ell and (args.lo is not None or args.hi is not None):
        raise ConfigError("a-ell takes --ell or --from and --to, not both")
    ctx = build_context(cfg)
    if args.ell:
        ells = sorted(set(args.ell))
        values = a_ells(ctx, ells)
    elif args.lo is not None and args.hi is not None:
        # the sweep's coefficient stream: sieved primes, so only its errors need checking
        prime_range = PrimeRange(args.lo, args.hi)
        ells, values = [], []
        with contextlib.closing(
            coefficient_chunks(ctx, prime_range, workers=resolve_workers())
        ) as chunks:
            for chunk in chunks:
                if chunk.error is not None:
                    raise chunk.error
                ells += chunk.ells[chunk.fetched].tolist()
                values += chunk.a_ells.tolist()
    else:
        raise ConfigError("a-ell needs --ell or both --from and --to")
    if args.format == "csv":
        lines = ["ell,a_ell"] + [f"{ell},{a}" for ell, a in zip(ells, values)]
        out.write("\n".join(lines) + "\n")
        return
    rows = [{"ell": ell, "a_ell": a} for ell, a in zip(ells, values)]
    _emit_report({"coefficients": rows}, cfg, args, out)


_COMMANDS = {
    "classify": _cmd_classify,
    "plan": _cmd_plan,
    "verify-density": _cmd_verify_density,
    "carayol": _cmd_carayol,
    "sigma": _cmd_sigma,
    "screen-p": _cmd_screen_p,
    "a-ell": _cmd_a_ell,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        with _opened_out(args.out) as out:
            _COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out or --csv, named in exc
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except LambdaForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
