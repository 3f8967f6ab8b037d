"""Self-tests of the benchmark harness (not of singmod).

    python3 benchmark/selftest.py

Each injected fault must be counted as a failed instance, never crash the
run: a perturbed norm, a flipped zero status, a chain upper bound below the
reference and an exception inside an instance.  Also checks the self-time
arithmetic on a synthetic span tree, that every binding of a traced function
is wrapped and restored, and that BENCHMARK.json names the metrics the
harness prints.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, self_times, wrap  # noqa: E402

from singmod import PrecisionContext, verify  # noqa: E402
from singmod.verify import VerificationReport  # noqa: E402

CTX = PrecisionContext()


class InjectedFaults(unittest.TestCase):
    def test_perturbed_norm_is_counted(self):
        ref = wl.load_reference("norm_grid")["instances"]
        items = [(-3, -4, 1), (-3, -7, 2)]

        def call(item):
            rep = verify.verify_nonunit(*item, CTX, factor=True)
            if item == (-3, -7, 2):
                rep.norm += 1
            return rep

        _, _, _, failed, problems, _ = run.run_instances(
            items, lambda i: i, call, lambda i, rep: wl.check_norm(rep, ref[wl.key(*i)]))
        self.assertEqual(failed, 1)
        self.assertTrue(any("(-3, -7, 2)" in p for p in problems))

    def test_non_fourth_power_is_reported(self):
        rep = verify.verify_nonunit(-3, -4, 1, CTX, factor=True)
        rep.norm *= 2
        problems = wl.check_norm(rep, {"sha256": wl.digest(rep.norm),
                                       "bits": rep.norm.bit_length()})
        self.assertIn("norm is not a fourth power", problems)

    def test_exception_inside_an_instance_is_counted(self):
        def call(item):
            if item == 2:
                raise ZeroDivisionError("injected")
            return item

        lat, _, outputs, failed, problems, _ = run.run_instances(
            [1, 2, 3], lambda i: i, call, lambda i, out: [])
        self.assertEqual(failed, 1)
        self.assertEqual(len(lat), 3)
        self.assertEqual(outputs[2], 3)
        self.assertIn("raised ZeroDivisionError", problems[0])

    def test_chain_bound_below_reference_is_counted(self):
        ref = wl.load_reference("chain_grid")["instances"]
        logs = wl.load_reference("norm_grid")["instances"]
        item = (-3, -4, 2)
        rep = VerificationReport(d1=-3, d2=-4, m=2, status="ok",
                                 log_norm=logs[wl.key(*item)]["log_norm"])
        bounds = verify.verify_chain(*item, CTX, ks=wl.CHAIN_KS,
                                     tail_target=wl.CHAIN_TAIL, report=rep)
        self.assertEqual(wl.check_chain(bounds, ref[wl.key(*item)]), [])
        lo = ref[wl.key(*item)]["neg_gkm"]["5"][0]
        bad = [dataclasses.replace(b, neg_gkm=lo - 1e-9) if b.k == 5 else b for b in bounds]
        _, _, _, failed, problems, _ = run.run_instances(
            [item], lambda i: i, lambda i: bad,
            lambda i, out: wl.check_chain(out, ref[wl.key(*i)]))
        self.assertEqual(failed, 1)
        self.assertIn("below the reference", problems[0])

    def test_flipped_zero_status_is_counted(self):
        ref = wl.load_reference("sweep_cli")
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            out = os.path.join(tmp, "sweep.json")
            cmd = [sys.executable, "-m", "singmod.cli", *wl.SWEEP_ARGS,
                   "--cache-dir", os.path.join(tmp, "cache"), "--out", out]
            proc = subprocess.run(cmd, cwd=ROOT, env=run._env(),
                                  stdout=subprocess.DEVNULL, timeout=120)
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
        self.assertEqual(wl.check_sweep(payload, proc.returncode, ref), (0, []))
        flipped = copy.deepcopy(payload)
        row = next(r for r in flipped["reports"] if r["status"] == "zero")
        row["status"] = "ok"
        failed, problems = wl.check_sweep(flipped, 0, ref)
        self.assertEqual(failed, 1)
        self.assertTrue(any("status 'ok', expected 'zero'" in p for p in problems))
        perturbed = copy.deepcopy(payload)
        row = next(r for r in perturbed["reports"] if r["status"] == "ok")
        row["norm"] = str(int(row["norm"]) + 1)
        self.assertEqual(wl.check_sweep(perturbed, 0, ref)[0], 1)
        self.assertEqual(wl.check_sweep(None, 2, ref)[0], len(ref["reports"]))


class Tracing(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
        spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
                 ["a1", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0]]
        own = self_times(spans)
        self.assertEqual(own, {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0})
        self.assertEqual(sum(own.values()), 10.0)

    def test_wrappers_nest_and_count_errors(self):
        tr = Tracer()
        inner = wrap(tr, lambda x: 1 / x, "inner")
        outer = wrap(tr, lambda x: inner(x) + 1, "outer")
        self.assertEqual(outer(1), 2.0)
        with self.assertRaises(ZeroDivisionError):
            outer(0)
        self.assertEqual(tr.counts["outer.calls"], 2)
        self.assertEqual([s[3] for s in tr.spans], [-1, 0, -1, 2])
        self.assertEqual(tr.stack, [])

    def test_every_binding_is_wrapped_and_restored(self):
        from singmod import cmcycles, greens, modular
        original = modular.modpoly_eval
        uninstall = layers.install(Tracer())
        try:
            self.assertIsNot(cmcycles.modpoly_eval, original)
            self.assertIs(cmcycles.modpoly_eval, greens.modpoly_eval)
            self.assertIs(cmcycles.modpoly_eval, modular.modpoly_eval)
        finally:
            uninstall()
        self.assertIs(cmcycles.modpoly_eval, original)
        self.assertIs(greens.modpoly_eval, original)

    def test_j_eval_count_identity(self):
        tr = Tracer()
        uninstall = layers.install(tr)
        try:
            verify.verify_nonunit(-7, -8, 4, CTX, factor=True)
        finally:
            uninstall()
        self.assertGreater(tr.counts["modular.j_eval.calls"], 0)
        self.assertEqual(tr.counts["modular.j_eval.calls"],
                         tr.counts["identity.j_eval_expected"])
        self.assertEqual(tr.counts["cmcycles.cycle_log_norm.probe_calls"], 1)
        self.assertEqual(layers.hecke_coset_count(4), 7)


class Specification(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         layers.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_grid_matches_its_reference(self):
        items = {wl.key(*i) for i in wl.grid_instances()}
        self.assertEqual(items, set(wl.load_reference("norm_grid")["instances"]))
        self.assertEqual(items, set(wl.load_reference("chain_grid")["instances"]))


if __name__ == "__main__":
    unittest.main()
