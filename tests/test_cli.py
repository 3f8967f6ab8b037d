import json
import os
import re
import sys

import mpmath as mp
import pytest

from singmod import cache as diskcache
from singmod import cli, modular, verify
from singmod.cli import main, parse_point
from singmod.greens import TailBudgetError
from singmod.numerics import PrecisionContext, PrecisionError
from singmod.quadforms import QuadForm
from singmod.verify import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_parse_point_spellings():
    assert parse_point("-4") == QuadForm(1, 0, 1)
    assert parse_point("2,1,3") == QuadForm(2, 1, 3)
    assert parse_point("6,1,1") == QuadForm(1, 1, 6)  # reduced first
    # both spellings of the principal class of -23 share one j-value
    ctx = PrecisionContext()
    assert modular.j_eval(parse_point("6,1,1"), ctx) is modular.j_eval(parse_point("-23"), ctx)
    z = parse_point("0.3+1.1i")
    assert z == pytest.approx(0.3 + 1.1j)
    assert parse_point("2i") == pytest.approx(2j)
    assert parse_point("i") == pytest.approx(1j)
    with pytest.raises(ValueError):
        parse_point("1-2i")  # lower half plane
    with pytest.raises(Exception):
        parse_point("-5")  # not a discriminant


def test_classpoly_text_and_json(capsys):
    code, out, _ = run(capsys, "classpoly", "-23")
    assert code == 0
    assert "X^3" in out and "3491750" in out
    code, payload, _ = run_json(capsys, "classpoly", "-23")
    assert code == 0
    assert payload["degree"] == 3
    assert payload["coeffs"] == ["12771880859375", "-5151296875", "3491750", "1"]


def test_classpoly_bad_discriminant(capsys):
    code, _, err = run(capsys, "classpoly", "--", "-5")
    assert code == 2
    assert err


def test_classpoly_cache(capsys, tmp_path):
    cache = str(tmp_path)
    code, first, _ = run_json(capsys, "classpoly", "-23", "--cache-dir", cache)
    assert code == 0
    assert any(name.startswith("classpoly") for name in os.listdir(cache))
    code, second, _ = run_json(capsys, "classpoly", "-23", "--cache-dir", cache)
    assert code == 0 and first == second


def test_classpoly_cache_non_ascii_entry_recomputed(capsys, tmp_path):
    cache = str(tmp_path)
    with open(diskcache.cache_path(cache, "classpoly:-23"), "wb") as fh:
        fh.write(b"1\nclasspoly:-23\n\xff\n")
    code, payload, _ = run_json(capsys, "classpoly", "-23", "--cache-dir", cache)
    assert code == 0
    assert payload["coeffs"] == ["12771880859375", "-5151296875", "3491750", "1"]


def test_cmpoints(capsys):
    code, payload, _ = run_json(capsys, "cmpoints", "-23", "--j")
    assert code == 0
    assert payload["h"] == 3 and payload["d_K"] == -23
    assert len(payload["points"]) == 3
    assert all("j" in p for p in payload["points"])


def test_cmpoints_reports_at_the_context_precision(capsys):
    # a finer j-value that earlier work left in the point cache does not
    # change the scale of the reported error
    modular.j_eval(QuadForm(2, 1, 3), PrecisionContext(mantissa_bits=1100))
    code, payload, _ = run_json(capsys, "cmpoints", "-23", "--j")
    assert code == 0
    errors = [float(p["j_error"]) for p in payload["points"]]
    assert all(1e-90 < e < 1e-70 for e in errors), errors


def test_cmpoints_j_inside_its_error_is_zero(capsys):
    # j(zeta_3) = 0 and j(i) = 1728: a part within the certified error is
    # printed as 0, and every point reports that error
    code, out, _ = run(capsys, "cmpoints", "-3", "--j")
    assert code == 0 and out.rstrip().endswith("j = 0.0")
    code, payload, _ = run_json(capsys, "cmpoints", "-3", "--j")
    (point,) = payload["points"]
    assert point["j"] == "0.0" and 0 < float(point["j_error"]) < 1e-70
    code, payload, _ = run_json(capsys, "cmpoints", "-4", "--j")
    assert payload["points"][0]["j"] == "1728.0"
    code, payload, _ = run_json(capsys, "cmpoints", "-23", "--j")
    assert all("j_error" in p for p in payload["points"])


def _part_within_half_a_digit(shown: str, exact, digits: int = 20) -> bool:
    """Whether the decimal string shown is within half a unit of its last
    (digits-th) significant digit of exact."""
    value = mp.mpf(shown)
    unit = mp.mpf(10) ** (mp.floor(mp.log10(abs(exact))) - digits + 1)
    return abs(value - exact) <= unit / 2


def test_cmpoints_j_digits_are_the_class_polynomial_roots(capsys):
    # every printed digit is certified: each part of each j-value is within
    # half a unit of its 20th significant digit of a root of H_-23, found at
    # 300 bits, and the three values are the three roots
    code, payload, _ = run_json(capsys, "cmpoints", "-23", "--j")
    assert code == 0
    with mp.workprec(300):
        roots = mp.polyroots([1, 3491750, -5151296875, 12771880859375],
                             maxsteps=200, extraprec=600)
        matched = []
        for point in payload["points"]:
            parts = re.fullmatch(r"\(?(-?[0-9.]+)(?: ([+-]) ([0-9.]+)j\))?", point["j"])
            assert parts, point["j"]
            re_text, sign, im_text = parts.groups()
            im_shown = mp.mpf(sign + im_text) if sign else mp.mpf(0)
            root = min(roots, key=lambda r: abs(mp.mpf(re_text) - r.real)
                       + abs(im_shown - r.imag))
            assert _part_within_half_a_digit(re_text, root.real), (point["j"], root)
            if sign:
                assert _part_within_half_a_digit(sign + im_text, root.imag), (point["j"], root)
            else:
                assert abs(root.imag) < mp.mpf(10) ** -60
            matched.append(root)
        assert len({mp.nstr(r, 30) for r in matched}) == 3


def test_modpoly_eval_value_and_zero(capsys):
    code, payload, _ = run_json(capsys, "modpoly-eval", "1", "-3", "-4")
    assert code == 0
    assert not payload["zero"]
    assert "-1728.0" in payload["value"]
    code, payload, _ = run_json(capsys, "modpoly-eval", "2", "-4", "-4")
    assert code == 0
    assert payload["zero"] and payload["zero_cosets"] == [[1, 1, 2]]


def test_modpoly_eval_bad_point(capsys):
    code, _, err = run(capsys, "modpoly-eval", "1", "1-2i", "-4")
    assert code == 2 and err


def test_norm_with_checks(capsys):
    code, payload, _ = run_json(
        capsys, "norm", "-4", "-7", "1", "--factor",
        "--epsilon", "0.5", "--epsilon", "2.0", "--chain")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["norm"] == str(5103 ** 4)
    assert payload["witness"] == 3
    assert payload["factorization"] == [["3", 24], ["7", 4]]
    assert [c["k"] for c in payload["chain"]] == [3, 5, 7]
    assert all(c["passed"] for c in payload["chain"])
    assert all(b["passed"] for b in payload["epsilon_bounds"])


def test_norm_zero_exit_ok(capsys):
    code, payload, _ = run_json(capsys, "norm", "-4", "-4", "2")
    assert code == 0
    assert payload["status"] == "zero"
    assert payload["singular_pair"]


def test_norm_past_the_int_str_digit_limit(capsys):
    # N has 14 932 bits, 4 495 decimal digits: past Python's default limit of
    # 4 300 for int <-> str, which main lifts before printing the norm
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        code, payload, _ = run_json(capsys, "norm", "-39", "-47", "4")
        assert code == 0 and payload["status"] == "ok"
        assert int(payload["norm"]).bit_length() == 14932
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_norm_bad_input(capsys):
    code, out, _ = run(capsys, "norm", "-5", "-4", "1")
    assert code == 2 and "error" in out


def test_norm_epsilon_check_that_cannot_run_exits_2(capsys):
    code, out, err = run(capsys, "norm", "-3", "-4", "1", "--epsilon", "-0.5")
    assert code == 2
    assert "epsilon must be positive" in err


def test_norm_rejects_epsilon_before_a_zero_report(capsys):
    # (-4, -4, 2) is a legal zero, so the epsilon check never runs on it;
    # the invalid epsilon must still be refused, before any work
    code, out, err = run(capsys, "norm", "-4", "-4", "2", "--epsilon", "-0.5")
    assert code == 2
    assert "epsilon must be positive" in err
    assert out == ""


def test_sweep_epsilon_check_that_cannot_run_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--dmax", "4", "--epsilon", "-0.5")
    assert code == 2
    assert "epsilon must be positive" in err


def test_greens_point_mode(capsys):
    code, payload, _ = run_json(
        capsys, "greens", "--k", "3", "--m", "2",
        "--z1", "0.3+1.1i", "--z2", "0.21+2.3i")
    assert code == 0
    assert payload["value"] < 0
    code, payload, _ = run_json(
        capsys, "greens", "--k", "1", "--m", "2",
        "--z1", "0.3+1.1i", "--z2", "0.21+2.3i")
    assert code == 0
    assert len(payload["per_coset"]) == 3  # sigma_1(2) cosets listed


def test_points_with_a_negative_real_part(capsys):
    # half the fundamental domain has Re z < 0; argparse read such a point as
    # an option ("the following arguments are required", "expected one
    # argument") unless spelled --z1=... or after --
    code, payload, _ = run_json(capsys, "modpoly-eval", "2", "-0.3+1.1i", "0.21+2.3i")
    assert code == 0 and payload["z1"] == "-0.3+1.1i" and not payload["zero"]
    greens = ("greens", "--k", "3", "--tail", "1e-4")
    code, plain, _ = run_json(capsys, *greens, "--z1", "-0.3+1.1i", "--z2", "-.21+2.3i")
    assert code == 0 and plain["tail_bound"] <= 1e-4
    code, spelled, _ = run_json(capsys, *greens, "--z1=-0.3+1.1i", "--z2=-.21+2.3i")
    assert code == 0 and spelled == plain
    # z -> -conj z on both points leaves G_k unchanged
    code, mirror, _ = run_json(capsys, *greens, "--z1", "0.3+1.1i", "--z2", "0.21+2.3i")
    assert code == 0
    assert abs(mirror["value"] - plain["value"]) <= mirror["tail_bound"] + plain["tail_bound"]
    # options still parse as options, and an unknown one is still refused
    code, out, _ = run(capsys, "modpoly-eval", "2", "-0.3+1.1i", "0.21+2.3i",
                       "--precision-bits", "64")
    assert code == 0 and out.startswith("phi_2 = ")
    with pytest.raises(SystemExit) as exc:
        main(["modpoly-eval", "2", "-0.3+1.1i", "0.21+2.3i", "-q"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -q" in capsys.readouterr().err


def test_greens_cycle_mode(capsys):
    code, payload, _ = run_json(
        capsys, "greens", "--k", "3", "--m", "2", "--cycle", "-3", "-4",
        "--tail", "1e-4")
    assert code == 0
    assert payload["value"] < 0
    assert payload["tail_bound"] <= 4 * 1e-4 + 1e-12
    # one row per conjugate orbit: Cl(-15) x Cl(-23) has 6 pairs in 4 orbits
    code, payload, _ = run_json(
        capsys, "greens", "--k", "3", "--m", "2", "--cycle", "-15", "-23",
        "--tail", "1e-3")
    assert code == 0
    assert [row["multiplicity"] for row in payload["pairs"]] == [4, 8, 4, 8]


def test_greens_argument_validation(capsys):
    code, _, err = run(capsys, "greens", "--k", "3")
    assert code == 2 and err
    code, _, err = run(capsys, "greens", "--k", "2", "--z1", "i", "--z2", "2i")
    assert code == 2 and err
    # --cycle would otherwise run and drop the explicit points in silence
    for points in (["--z1", "i", "--z2", "2i"], ["--z1", "i"], ["--z2", "2i"]):
        code, out, err = run(capsys, "greens", "--k", "3", "--cycle", "-3", "-4",
                             *points)
        assert code == 2 and "not both" in err and not out


@pytest.mark.parametrize("argv", [
    ["norm", "-3", "-4", "1"],
    ["classpoly", "-23"],
    ["cmpoints", "-4"],
    ["modpoly-eval", "2", "-4", "-4"],
    ["greens", "--k", "3", "--z1", "i", "--z2", "2i"],
])
def test_flags_only_where_read(capsys, tmp_path, argv):
    # --threads is read by sweep alone, --cache-dir by classpoly (and
    # accepted by sweep); every other subcommand refuses them as argparse does
    flags = [["--threads", "2"]]
    if argv[0] != "classpoly":
        flags.append(["--cache-dir", str(tmp_path)])
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("tail", ["nan", "0", "-1"])
def test_greens_bad_tail_exits_2(capsys, tail):
    # a NaN tail would never stop the cutoff loop, and zero or negative
    # ones reach a division or a comparison that makes no sense
    for where in (["--z1", "i", "--z2", "2i"], ["--cycle", "-3", "-4"]):
        code, out, err = run(capsys, "greens", "--k", "3", *where, "--tail", tail)
        assert code == 2 and out == ""
        assert "tail target must be positive" in err


def test_norm_large_and_non_finite_epsilon(capsys):
    # Q_2(cosh(sqrt(2) eps)) is tiny here, so the bound passes
    for eps in ("70.5", "100", "1e308"):
        code, payload, _ = run_json(capsys, "norm", "-3", "-4", "1", "--epsilon", eps)
        assert code == 0
        (bound,) = payload["epsilon_bounds"]
        assert bound["passed"] and 0.0 <= bound["rhs"] < 1e-100
    for eps in ("inf", "nan"):
        code, out, err = run(capsys, "norm", "-3", "-4", "1", "--epsilon", eps)
        assert code == 2 and "positive and finite" in err
    code, out, _ = run(capsys, "norm", "-3", "-4", "1", "--epsilon", "1e-12")
    assert code == 2 and "too small" in out


def test_greens_tail_budget_exits_2(capsys):
    # TailBudgetError reaches exit 2 through main, with nothing on stdout
    code, out, err = run(capsys, "greens", "--k", "3", "--z1", "i", "--z2", "2i",
                         "--tail", "1e-30")
    assert code == 2 and out == ""
    assert err.startswith("tail budget:")


def test_greens_tail_far_below_the_floor_exits_2(capsys):
    # a budget of 1e-300 is refused as a tail budget, not as a numeric
    # overflow: the rounding floor is checked before any power of a cutoff
    code, out, err = run(capsys, "greens", "--k", "3", "--z1", "i", "--z2", "2i",
                         "--tail", "1e-300")
    assert code == 2 and out == ""
    assert err.startswith("tail budget:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["greens", "--k", "3", "--z1", "i", "--z2", "1e300i"],
    ["modpoly-eval", "1", "i", "1e300i"],
])
def test_overflow_exits_2(capsys, argv):
    # a point too high for floats overflows in the distance or the j-series;
    # that is a failed computation, not a counterexample (exit 1)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("numeric overflow:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_small_grid(capsys):
    code, payload, _ = run_json(
        capsys, "sweep", "--dmax", "8", "--mmax", "2",
        "--coprime-fundamental")
    assert code == 0
    stats = payload["summary"]
    assert stats["total"] == len(payload["reports"])
    assert stats["assert_failures"] == 0
    assert stats["error"] == 0


def test_sweep_empty(capsys):
    # a --dmax that leaves no discriminant is a meaningless request: exit 2
    for argv in (["--dmax", "2", "--coprime-fundamental"], ["--dmax", "-5"],
                 ["--dmax", "0"]):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2 and not out
        assert err.startswith("invalid input:") and "no discriminant" in err


def test_sweep_policy_all(capsys):
    # --policy all adds the small cycles and the diagnostic big ones, whose
    # products are reported but not asserted as norms
    code, payload, _ = run_json(capsys, "sweep", "--dmax", "8", "--mmax", "1",
                                "--policy", "all")
    assert code == 0
    kinds = {row["cycle_kind"] for row in payload["reports"]}
    assert kinds == {"big", "small", "diagnostic"}
    assert all(not row["asserted"] for row in payload["reports"]
               if row["cycle_kind"] == "diagnostic")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dmax", "8", "--mmax", "1", "--policy", "bogus"])
    assert exc.value.code == 2
    assert "argument --policy: invalid choice" in capsys.readouterr().err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "classpoly", "-4", "--json",
                       "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["coeffs"] == ["-1728", "1"]


def test_sweep_threads(capsys, tmp_path):
    code, serial, _ = run_json(capsys, "sweep", "--dmax", "4", "--mmax", "2")
    # the flags as the benchmark passes them; sweep reads no cache
    code2, parallel, _ = run_json(capsys, "sweep", "--dmax", "4", "--mmax", "2",
                                  "--threads", "2", "--cache-dir", str(tmp_path))
    assert code == code2 == 0 and os.listdir(tmp_path) == []
    strip = lambda p: [{k: v for k, v in r.items() if k != "elapsed"}
                       for r in p["reports"]]
    assert strip(serial) == strip(parallel)


def test_sweep_error_exit_code(capsys, monkeypatch):
    failed = VerificationReport(d1=-3, d2=-4, m=1, status="error",
                                error="PrecisionError: did not stabilize")
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: [failed])
    code, payload, _ = run_json(capsys, "sweep", "--dmax", "4")
    assert code == 2
    assert payload["summary"]["error"] == 1


def test_norm_chain_tail_budget_exit_code(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise TailBudgetError("tail target out of reach")

    monkeypatch.setattr(verify, "G_ks_m_cycle", unreachable)
    code, payload, err = run_json(capsys, "norm", "-3", "-4", "1", "--chain")
    assert code == 2
    assert "chain skipped" in err
    assert payload["status"] == "error" and "TailBudgetError" in payload["error"]


def test_norm_chain_precision_failure_reports_json(capsys, monkeypatch):
    def lost(*args, **kwargs):
        raise PrecisionError("did not stabilize")

    monkeypatch.setattr(verify, "G_ks_m_cycle", lost)
    code, payload, err = run_json(capsys, "norm", "-3", "-4", "1", "--chain")
    assert code == 2
    assert "chain skipped" in err
    assert payload["status"] == "error"
    assert payload["error"].startswith("chain: PrecisionError")


@pytest.mark.parametrize("d1, d2, m", [(-4, -7, 1), (-4, -4, 2), (-15, -20, 1)])
def test_norm_matches_its_sweep_row(capsys, d1, d2, m):
    # ok, legal zero and diagnostic: one pipeline, one report
    flags = ("--factor", "--epsilon", "0.5", "--chain")
    code, payload, _ = run_json(capsys, "norm", str(d1), str(d2), str(m), *flags)
    [rep] = verify.sweep([d1], [d2], [m], PrecisionContext(), policy="all",
                         epsilons=(0.5,), chain=True, factor=True)
    row = cli._report_dict(rep)
    del payload["elapsed"], row["elapsed"]
    assert payload == row
    assert code == cli._exit_code(verify.summarize([rep]))


@pytest.mark.parametrize("flag, value", [("--threads", "-4"), ("--threads", "0"),
                                         ("--mmax", "0")])
def test_sweep_refuses_a_non_positive_count(capsys, flag, value):
    # a sweep over no m, or on no worker, is a meaningless request: exit 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dmax", "8", "--coprime-fundamental", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid input:" in capsys.readouterr().err
