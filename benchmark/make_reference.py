"""Generate the committed reference outputs the benchmark checks against.

Run once from the root of a checkout whose outputs are trusted:

    python3 benchmark/make_reference.py

It writes benchmark/reference/{norm_grid,chain_grid,sweep_cli}.json:
  norm_grid   per instance, the sha256 and bit length of the decimal norm N
              and log N (which also feeds chain-grid's reports);
  chain_grid  per instance and k, the interval [lo, hi] containing
              -G_k^m(Z(W)), summed at the tighter tail REFERENCE_TAIL;
  sweep_cli   the summary and, per instance, the status, norm digest,
              singular pair and epsilon count of the CLI sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import workloads as wl

ROOT = os.path.dirname(wl.HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from singmod import G_k_m, PrecisionContext, build_cycle, verify_nonunit  # noqa: E402


def _write(name: str, payload: dict) -> None:
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(wl.REFERENCE_DIR, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def norm_and_chain() -> None:
    ctx = PrecisionContext()
    norms, chains = {}, {}
    for d1, d2, m in wl.grid_instances():
        rep = verify_nonunit(d1, d2, m, ctx, factor=True)
        if rep.status != "ok" or wl.check_norm(rep, {"sha256": wl.digest(rep.norm),
                                                     "bits": rep.norm.bit_length()}):
            raise SystemExit(f"({d1}, {d2}, {m}): unusable reference {rep}")
        k = wl.key(d1, d2, m)
        norms[k] = {"sha256": wl.digest(rep.norm), "bits": rep.norm.bit_length(),
                    "log_norm": rep.log_norm}
        cycle = build_cycle(d1, d2)
        entry = {"multiplicity": sum(p.multiplicity for p in cycle.pairs), "neg_gkm": {}}
        for kk in wl.CHAIN_KS:
            lo = hi = 0.0
            for pair in cycle.pairs:
                part = G_k_m(kk, m, pair.z1, pair.z2, ctx, tail_target=wl.REFERENCE_TAIL)
                lo += pair.multiplicity * -part.value
                hi += pair.multiplicity * (-part.value + part.tail_bound)
            entry["neg_gkm"][str(kk)] = [lo, hi]
        chains[k] = entry
    common = {"dmax": wl.GRID_DMAX, "ms": list(wl.GRID_MS)}
    _write("norm_grid", dict(common, instances=norms))
    _write("chain_grid", dict(common, ks=list(wl.CHAIN_KS), tail=wl.REFERENCE_TAIL,
                              instances=chains))


def sweep_cli() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = os.path.join(tmp, "sweep.json")
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [sys.executable, "-m", "singmod.cli", *wl.SWEEP_ARGS,
               "--cache-dir", os.path.join(tmp, "cache"), "--out", out]
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
    reports = {}
    for row in payload["reports"]:
        entry = {"status": row["status"]}
        if row["status"] == "zero":
            entry["singular_pair"] = row["singular_pair"]
        elif row["status"] == "ok":
            entry["sha256"] = wl.digest(int(row["norm"]))
            entry["eps_count"] = row["epsilon_bounds"][0]["count"]
        else:
            raise SystemExit(f"sweep instance failed: {row}")
        reports[wl.key(row["d1"], row["d2"], row["m"])] = entry
    _write("sweep_cli", {"args": wl.SWEEP_ARGS, "summary": payload["summary"],
                         "reports": reports})


if __name__ == "__main__":
    norm_and_chain()
    sweep_cli()
