"""Report bytes pinned by their sha256, so a renamed report field (a key) fails here.

The plan report of every request the plan-carayol benchmark can draw, and
the carayol report on the level it chose, must hash to the digest
``bench/record.py`` recorded in ``bench/references.json`` (read here, never
written).  The screen-p and verify-density digests below were recorded from
the CLI before reports were written through ``residual.json_value``.  Every
command runs in-process at one worker; a report's bytes do not depend on the
worker count.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lambda_forge.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = json.loads((ROOT / "bench" / "references.json").read_text())
PLAN_DIGESTS = REFERENCES["digests"]["plan-carayol"]
PLAN_REQUESTS = sorted(key.removeprefix("plan ") for key in PLAN_DIGESTS if key.startswith("plan "))
PLAN_SCAN_BOUND = 100_000  # the scan bound of the benchmark's plan requests

PINNED = {
    ("default", "screen-p", "--p", "5"):
        "99c9efbff9934064267179ae0c6dd67bc7a3b03ddf25df3c4a966aeb2b26028a",
    ("default", "screen-p", "--p", "7"):
        "99d55e0012c32fe3d3900c2ddc1976a94ae45d6abcd1de831008c1f768fe7920",
    ("default", "screen-p", "--p", "11"):
        "9dc052ed39174f97eb2ac8771db340c64b2ec586473e45a01fc58479ce94b02d",
    ("curve37a", "screen-p", "--p", "5"):
        "1ede3af658231804e84256ad0e8ee008f667f99db17d6f58ceebef3f59de9dde",
    ("curve37a", "screen-p", "--p", "7"):
        "ae487f0f83613a27cadf695ff112576ac31936ba9b1069f9d73bcfd6836d3858",
    ("curve37a", "screen-p", "--p", "11"):
        "7e32e7b97f1a2c2600ad58cfd01388ac0a2da3a302487c56591a74ee92495cab",
    ("curve389a", "screen-p", "--p", "5"):
        "5d452128b57de12c10c5ae3d4ae2cca1e187b86cc7f3cdcc9fd515f68f23734e",
    ("curve389a", "screen-p", "--p", "7"):
        "5d5e0d18a63a190bfd5295dda4d9382fdee477fb844fd95a361b9e57bfd01f70",
    ("curve389a", "screen-p", "--p", "11"):
        "980b409f445cb46259878ff5c20495a4c0f8051a7f78b412e3c85f46047e1555",
    ("default", "verify-density", "--enumerate-gl2", "5"):
        "25b6339ff58e9ba15bf562ec3bbb6ff6afc3de09eee27f7def98bdaa47604730",
    ("default", "verify-density", "--enumerate-gl2", "7"):
        "fc26e56caa52b2530865c9a5c1d50957129aa2dda43505cc402ea2e2d0bc368c",
    ("default", "verify-density", "--bound", "30000"):
        "0078458e9e9503bace2e143b8074d6ae0d8f64f307a6e16f0498756add168dad",
}


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("LAMBDA_FORGE_THREADS", "1")


def report(capsys, argv: list[str]) -> bytes:
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out.encode()


def config(name: str) -> str:
    return str(ROOT / "configs" / f"{name}.cfg")


def test_every_plan_request_is_pinned():
    assert len(PLAN_REQUESTS) == 27
    assert {f"carayol {request}" for request in PLAN_REQUESTS} == {
        key for key in PLAN_DIGESTS if key.startswith("carayol ")}


@pytest.mark.parametrize("request_key", PLAN_REQUESTS)
def test_plan_and_carayol_bytes(capsys, request_key):
    name, target, omega = request_key.split()
    plan = report(capsys, ["plan", "--config", config(name), "--target-lambda", target,
                           "--omega-count", omega, "--scan-bound", str(PLAN_SCAN_BOUND)])
    assert hashlib.sha256(plan).hexdigest() == PLAN_DIGESTS[f"plan {request_key}"]
    level = str(json.loads(plan)["N_f"])
    carayol = report(capsys, ["carayol", "--config", config(name), "--level", level])
    assert hashlib.sha256(carayol).hexdigest() == PLAN_DIGESTS[f"carayol {request_key}"]


@pytest.mark.parametrize("request_key", list(PINNED), ids=" ".join)
def test_report_bytes(capsys, request_key):
    name, command, *flags = request_key
    out = report(capsys, [command, "--config", config(name), *flags])
    assert hashlib.sha256(out).hexdigest() == PINNED[request_key]
