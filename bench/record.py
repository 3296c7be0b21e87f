#!/usr/bin/env python3
"""Record reference digests of every benchmark invocation at this commit.

    python3 bench/record.py

Runs each invocation once as a CLI subprocess at 1 worker, checks it with
the digest-independent oracles, and writes ``bench/references.json``:

* classify-naive and density-sweep: one digest each (seed-independent);
* plan-carayol: a plan and a carayol digest for every request the mix can
  draw (3 curves x 3 targets x 3 omega counts);
* table-sweep: table, classify and sigma digests for seeds 0 to 19.  Other
  seeds are still checked byte for byte against the reference model in
  ``oracles.py``.

Because the digests come from 1-worker runs, the W-worker runs that
``run.py`` checks against them are also checked to equal a serial run.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads

TABLE_REF_SEEDS = 20  # table-sweep seeds 0..19 get recorded digests


def main() -> int:
    env = run.child_env(1)
    refs: dict = {"workers": 1, "digests": {}}
    failures = []

    def record(wl: workloads.Workload) -> dict[str, str]:
        digests = {}
        tally = run.Tally(wl)

        def invoke(inv):
            rc, out, err, wall = run.spawn([sys.executable, "-m", "lambda_forge", *inv.args(1)], env)
            digests[inv.ref] = hashlib.sha256(out).hexdigest()
            print(f"{wall:7.2f} s  {inv.ref}", file=sys.stderr)
            return rc, out, err, wall

        _, outputs = run.run_requests(wl, tally, invoke)
        failures.extend(tally.reasons)
        if wl.name == "density-sweep":
            report = json.loads(outputs[0])
            refs["density_hits"] = {fam: report[fam]["hits"] for fam in ("pi", "omega")}
        return digests

    for name in ("classify-naive", "density-sweep"):
        refs["digests"][name] = record(workloads.build(name, 0, run.WORK, {}))

    plan = workloads.build("plan-carayol", 0, run.WORK, {})
    plan.requests = [workloads.plan_request(*r) for r in workloads.all_plan_requests()]
    refs["digests"]["plan-carayol"] = record(plan)

    table: dict[str, str] = {}
    for seed in range(TABLE_REF_SEEDS):
        wl = workloads.build("table-sweep", seed, run.WORK / "inputs" / f"table-sweep-seed{seed}", {})
        table[f"{seed}/table"] = wl.notes["table_sha256"]
        table.update(record(wl))
    refs["digests"]["table-sweep"] = table

    if failures:
        print("not recorded; oracles failed:\n" + "\n".join(failures), file=sys.stderr)
        return 1
    refs["commit"] = run.git_commit()
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
