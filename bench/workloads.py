"""The four benchmark workloads: their inputs, CLI invocations and checks.

A workload is built from ``--seed``; the program only ever sees the files
generated here and the argv.  classify-naive and density-sweep run on the
shipped ``configs/default.cfg`` and do not use the seed.  table-sweep
generates its coefficient table from the seed, and plan-carayol draws its
request mix from it.

One run of a workload is a list of requests.  A request is a list of steps;
each step builds one CLI invocation from the outputs of the request's
earlier steps (carayol needs the level the plan chose).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
PLAN_CFGS = [DEFAULT_CFG, ROOT / "configs" / "curve37a.cfg", ROOT / "configs" / "curve389a.cfg"]

CLASSIFY_TO = 60_000  # every ell below the default naive_count_limit of 100000
DENSITY_BOUND = 1_000_000  # high enough that BSGS outweighs naive counting
TABLE_TO = 1_000_000  # 78,498 table rows
PLAN_REQUESTS = 2  # plan + carayol pairs per run; one plan takes about 11 s at 2 workers
PLAN_SCAN_BOUND = 100_000  # the CLI default: 9,592 primes, three 4096-prime pool chunks
POINT_COUNT_SAMPLES = 12  # ells per sweep range for the naive == BSGS oracle
SETUP_PROBES = 15  # set-up probes per untraced run (about 0.2 s each on a curve config)
TABLE_SETUP_PROBES = 7  # a table probe parses the whole table: about 2 s each

WORKLOADS = {
    "classify-naive": "classify to 6e4 on curve 11a: naive point counting, a 1.5 MB JSON report",
    "density-sweep": "verify-density to 1e6 on curve 11a: the Chebotarev check, BSGS the larger share",
    "table-sweep": "classify + sigma over a seeded 78k-row table: parsing, congruences, CSV, pool dispatch",
    "plan-carayol": "seeded plan requests over three curves, each then carayol: the only early-stop consumer",
}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]  # lambda-forge arguments; "{W}" stands for the worker count
    ref: str  # key of the recorded reference digest
    check: Callable[[bytes], str | None]  # oracle independent of the digest

    def args(self, workers: int) -> list[str]:
        return [a.replace("{W}", str(workers)) for a in self.argv]


Step = Callable[[list[bytes]], Invocation]


@dataclass
class Workload:
    name: str
    seed: int
    setup_config: Path
    requests: list[list[Step]]
    primes: int  # primes classified per run; 0 where not a sweep
    digests: dict[str, str]  # reference digests recorded for these inputs
    point_count_ranges: list[tuple[Path, list[int]]] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    setup_probes: int = SETUP_PROBES


def _fixed(inv: Invocation) -> Step:
    return lambda _prev: inv


def read_config(path: Path) -> dict[str, str]:
    entries = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    return entries


def _sample_ells(rng: random.Random, hi: int, bad: int) -> list[int]:
    pool = [ell for ell in oracles.primes_upto(hi) if ell >= 5 and bad % ell]
    return sorted(rng.sample(pool, POINT_COUNT_SAMPLES))


def _curve_bad_primes(cfg: dict[str, str]) -> int:
    return int(cfg["conductor"]) * abs(int(cfg.get("discriminant", "0")) or 1)


def build(name: str, seed: int, work_dir: Path, references: dict) -> Workload:
    """Generate the inputs of one workload into ``work_dir`` (not timed)."""
    refs = references.get("digests", {}).get(name, {})
    rng = random.Random(f"{name}:{seed}")
    if name == "classify-naive":
        cfg = read_config(DEFAULT_CFG)
        inv = Invocation(
            ("classify", "--config", str(DEFAULT_CFG), "--from", "2", "--to", str(CLASSIFY_TO),
             "--format", "json", "--workers", "{W}"),
            "classify",
            oracles.check_classify_json(int(cfg["conductor"]), int(cfg["p"]), CLASSIFY_TO),
        )
        return Workload(
            name, seed, DEFAULT_CFG, [[_fixed(inv)]], len(oracles.primes_upto(CLASSIFY_TO)), refs,
            [(DEFAULT_CFG, _sample_ells(rng, CLASSIFY_TO, _curve_bad_primes(cfg)))],
        )
    if name == "density-sweep":
        cfg = read_config(DEFAULT_CFG)
        inv = Invocation(
            ("verify-density", "--config", str(DEFAULT_CFG), "--bound", str(DENSITY_BOUND),
             "--workers", "{W}"),
            "verify-density",
            oracles.check_density_json(
                int(cfg["conductor"]), int(cfg["p"]), DENSITY_BOUND, references.get("density_hits")
            ),
        )
        return Workload(
            name, seed, DEFAULT_CFG, [[_fixed(inv)]], len(oracles.primes_upto(DENSITY_BOUND)), refs,
            [(DEFAULT_CFG, _sample_ells(rng, DENSITY_BOUND, _curve_bad_primes(cfg)))],
        )
    if name == "table-sweep":
        return _table_sweep(seed, rng, work_dir, refs)
    if name == "plan-carayol":
        return _plan_carayol(seed, rng, refs)
    raise KeyError(name)


def _table_sweep(seed: int, rng: random.Random, work_dir: Path, refs: dict) -> Workload:
    level, p = 11, 7
    coeffs: dict[int, int] = {}
    for ell in oracles.primes_upto(TABLE_TO):
        bound = isqrt(4 * ell)
        a = rng.randint(-bound, bound)
        while ell == p and a % p == 0:  # keep the form p-ordinary
            a = rng.randint(-bound, bound)
        coeffs[ell] = a
    work_dir.mkdir(parents=True, exist_ok=True)
    table = work_dir / "table.csv"
    table.write_text("ell,a_ell\n" + "".join(f"{e},{a}\n" for e, a in coeffs.items()))
    config = work_dir / "table.cfg"
    config.write_text(
        "backend = table\ntable_path = table.csv\n"
        f"level = {level}\np = {p}\nlambda_g = 0\nmu_zero = true\n"
        "surjective_mod_p = true\noptimal_level_asserted = true\n"
    )
    classify_csv, sigma_csv = oracles.table_outputs(coeffs, level, p, TABLE_TO)
    span = ("--config", str(config), "--from", "2", "--to", str(TABLE_TO), "--format", "csv")
    classify = Invocation(
        ("classify", *span, "--workers", "{W}"), f"{seed}/classify",
        oracles.equals(classify_csv, "classify"),
    )
    sigma = Invocation(("sigma", *span), f"{seed}/sigma", oracles.equals(sigma_csv, "sigma"))
    table_digest = hashlib.sha256(table.read_bytes()).hexdigest()
    recorded = refs.get(f"{seed}/table")
    if recorded is not None and recorded != table_digest:
        raise RuntimeError(f"table generator drifted: seed {seed} table digest {table_digest}")
    return Workload(
        "table-sweep", seed, config, [[_fixed(classify), _fixed(sigma)]],
        2 * len(coeffs), refs, [],
        {"table_rows": len(coeffs), "table_sha256": table_digest},
        TABLE_SETUP_PROBES,
    )


def plan_request(path: Path, target: int, omega: int) -> list[Step]:
    """A plan, then carayol on the level it chose."""
    cfg = read_config(path)
    key = f"{path.stem} {target} {omega}"
    plan = Invocation(
        ("plan", "--config", str(path), "--target-lambda", str(target),
         "--omega-count", str(omega), "--scan-bound", str(PLAN_SCAN_BOUND)),
        f"plan {key}",
        oracles.check_plan_json(int(cfg["conductor"]), int(cfg["lambda_g"]), target, omega),
    )

    def carayol(prev: list[bytes]) -> Invocation:
        n_f = json.loads(prev[0])["N_f"]
        return Invocation(
            ("carayol", "--config", str(path), "--level", str(n_f)),
            f"carayol {key}",
            oracles.check_carayol_admissible,
        )

    return [_fixed(plan), carayol]


def _plan_carayol(seed: int, rng: random.Random, refs: dict) -> Workload:
    drawn = [rng.choice(all_plan_requests()) for _ in range(PLAN_REQUESTS)]
    ranges = [
        (path, _sample_ells(rng, PLAN_SCAN_BOUND, _curve_bad_primes(read_config(path))))
        for path in PLAN_CFGS
    ]
    return Workload(
        "plan-carayol", seed, PLAN_CFGS[0], [plan_request(*r) for r in drawn], 0, refs, ranges,
        {"requests": [f"{path.stem} {target} {omega}" for path, target, omega in drawn]},
    )


def all_plan_requests() -> list[tuple[Path, int, int]]:
    """Every (config, target, omega) the plan-carayol mix can draw."""
    out = []
    for path in PLAN_CFGS:
        lambda_g = int(read_config(path)["lambda_g"])
        out += [(path, lambda_g + k, r) for k in (1, 2, 3) for r in (0, 1, 2)]
    return out
