"""Instances, reference outputs and output checks for the three workloads.

norm-grid and chain-grid share one instance set: coprime pairs of distinct
fundamental discriminants with |d| <= GRID_DMAX and m in 1..4 (big cycles
only).  sweep-cli runs the installed command line over its own grid.

Every check returns a list of problems (empty when the output is right); the
caller counts an instance with problems as failed and carries on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

GRID_DMAX = 24
GRID_MS = (1, 2, 3, 4)
CHAIN_KS = (3, 5, 7)
CHAIN_TAIL = 1e-3
# the reference chain sums are computed at this tighter tail
REFERENCE_TAIL = 1e-5

SWEEP_ARGS = ["sweep", "--dmax", "31", "--mmax", "3", "--coprime-fundamental",
              "--epsilon", "0.5", "--factor", "--threads", "2", "--json"]
SWEEP_WORKERS = int(SWEEP_ARGS[SWEEP_ARGS.index("--threads") + 1])


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        return (-d // 4) % 4 in (1, 2) and _squarefree(-d // 4)
    return False


def grid_instances(dmax: int = GRID_DMAX, ms=GRID_MS) -> list[tuple[int, int, int]]:
    """(d1, d2, m) with d1 > d2 fundamental, gcd(d1, d2) = 1, in a fixed order."""
    ds = [d for d in range(-3, -dmax - 1, -1) if is_fundamental(d)]
    return [(d1, d2, m)
            for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
            if math.gcd(d1, d2) == 1
            for m in ms]


def shuffled(instances, seed: int, pass_index: int):
    """The instance order of one pass; each pass of a run has its own."""
    out = list(instances)
    random.Random(f"{seed}:{pass_index}").shuffle(out)
    return out


def key(d1: int, d2: int, m: int) -> str:
    return f"{d1},{d2},{m}"


def digest(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks


def check_norm(rep, ref: dict) -> list[str]:
    """Exact norm against its reference digest; fourth power; full factorization."""
    problems = []
    if rep.status != "ok":
        return [f"status {rep.status!r} ({rep.error})"]
    n = rep.norm
    if not isinstance(n, int) or n < 2:
        return [f"norm {n!r} is not an integer >= 2"]
    if digest(n) != ref["sha256"] or n.bit_length() != ref["bits"]:
        problems.append("norm differs from the reference")
    root = math.isqrt(math.isqrt(n))
    if root ** 4 != n:
        problems.append("norm is not a fourth power")
    fac = rep.factorization
    if fac is None or not fac.complete:
        problems.append("factorization incomplete")
    else:
        product = 1
        for p, e in fac.factors:
            product *= p ** e
        if product != n:
            problems.append("factorization does not reassemble the norm")
    return problems


def check_chain(bounds, ref: dict) -> list[str]:
    """Each -G_k^m upper bound lies in [ref_lo, ref_lo + 2 * mult * tail]."""
    problems = []
    by_k = {b.k: b for b in bounds}
    budget = 2.0 * ref["multiplicity"] * CHAIN_TAIL
    for k in CHAIN_KS:
        b = by_k.get(k)
        if b is None:
            problems.append(f"k={k}: missing")
            continue
        lo = ref["neg_gkm"][str(k)][0]
        if not b.neg_gkm >= lo:
            problems.append(f"k={k}: upper bound {b.neg_gkm!r} below the reference {lo!r}")
        elif b.neg_gkm - lo > budget:
            problems.append(f"k={k}: upper bound {b.neg_gkm!r} exceeds the reference "
                            f"{lo!r} by more than {budget!r}")
        if not b.passed:
            problems.append(f"k={k}: chain inequality failed")
    return problems


_DECIMAL = re.compile(r"[0-9]+")


def _decimal(text) -> int | None:
    return int(text) if isinstance(text, str) and _DECIMAL.fullmatch(text) else None


def check_sweep_report(row: dict, ref: dict) -> list[str]:
    """One instance of the CLI's JSON sweep output against its reference."""
    if row.get("status") != ref["status"]:
        return [f"status {row.get('status')!r}, expected {ref['status']!r}"]
    if ref["status"] == "zero":
        if row.get("singular_pair") != ref["singular_pair"]:
            return ["singular pair differs from the reference"]
        return []
    problems = []
    n = _decimal(row.get("norm"))
    if n is None:
        return [f"norm {row.get('norm')!r} is not a decimal string"]
    if digest(n) != ref["sha256"]:
        problems.append("norm differs from the reference")
    if n < 2 or row.get("non_unit") is not True:
        problems.append("norm is not a non-unit")
    product = _decimal(row.get("cofactor"))
    for pair in row.get("factorization") or []:
        p = _decimal(pair[0])
        product = None if p is None or product is None else product * p ** pair[1]
    if product != n:
        problems.append("factorization does not reassemble the norm")
    eps = row.get("epsilon_bounds") or []
    if len(eps) != 1 or not eps[0].get("passed") or eps[0].get("count") != ref["eps_count"]:
        problems.append("epsilon bound missing, failed or miscounted")
    return problems


def check_sweep(payload: dict | None, exit_code: int, ref: dict) -> tuple[int, list[str]]:
    """(failed instances, problems) for one CLI sweep pass."""
    total = len(ref["reports"])
    if exit_code != 0 or payload is None:
        return total, [f"sweep exited {exit_code}" if exit_code else "no JSON output"]
    problems = []
    if payload.get("summary") != ref["summary"]:
        problems.append(f"summary {payload.get('summary')} != {ref['summary']}")
    rows = payload.get("reports") or []
    seen = {key(r.get("d1"), r.get("d2"), r.get("m")): r for r in rows}
    failed = 0
    for k, expected in ref["reports"].items():
        row = seen.get(k)
        found = check_sweep_report(row, expected) if row is not None else ["missing"]
        if found:
            failed += 1
            problems.extend(f"{k}: {p}" for p in found)
    if len(rows) != total:
        problems.append(f"{len(rows)} reports, expected {total}")
    # a wrong summary or an extra report fails the pass even if no instance did
    return max(failed, 1 if problems else 0), problems
