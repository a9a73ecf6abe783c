import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lowdisc import SumOfDigits, VanDerCorput
from lowdisc.cli import build_parser, main
from lowdisc.discrepancy import discrepancy
from lowdisc.generators import int_coordinates


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_dist_subcommand(tmp_path):
    code, data = run_cli(["dist", "--q", "2", "--j", "4"], tmp_path)
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "q,j,k,count,gaussian_main"
    counts = [int(line.split(",")[3]) for line in lines[1:]]
    assert counts == [1, 4, 6, 4, 1]


def test_disc_subcommand_value(tmp_path):
    code, data = run_cli(
        ["disc", "--spec", "vdc:2", "--N", "4", "--mode", "extreme"], tmp_path
    )
    assert code == 0
    row = data.decode().splitlines()[1].split(",")
    assert (row[1], row[2]) == ("1", "4")


def test_disc_with_transform(tmp_path):
    code, data = run_cli(
        ["disc", "--spec", "vdc:2", "--transform", "sod:2", "--N", "16"], tmp_path
    )
    assert code == 0
    assert data.decode().splitlines()[1].split(",")[3] == "exact-1d"


def test_gen_and_exact_fields(tmp_path):
    code, data = run_cli(["gen", "--spec", "halton:2,3", "--count", "3"], tmp_path)
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0].startswith("n,dim,base_1,prec_1,num_1,float_1,base_2")
    assert lines[1].split(",")[:2] == ["0", "2"]


def test_transform_subcommand(tmp_path):
    code, data = run_cli(
        ["transform", "--transform", "pow:1/2", "--count", "11"], tmp_path
    )
    assert code == 0
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    assert rows[10] == ["10", "3"]


def test_udisc_subcommand(tmp_path):
    code, data = run_cli(
        ["udisc", "--spec", "vdc:2", "--N", "3", "--kmax", "8"], tmp_path
    )
    assert code == 0
    row = data.decode().splitlines()[1].split(",")
    assert (row[1], row[2]) == ("13", "24")
    assert row[4] == "2"  # arg-max shift


def test_genbound_exit_zero(tmp_path):
    code, data = run_cli(
        ["genbound", "--spec", "vdc:2", "--q", "2", "--dmax", "6"], tmp_path
    )
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0].split(",")[:3] == ["d", "N", "lower"]
    assert all(line.split(",")[-1] == "1" for line in lines[1:])


def test_netcheck_failure_exit_code(tmp_path, capsys):
    code, _ = run_cli(
        ["netcheck", "--spec", "halton:2,3", "--base", "2", "--mmax", "2", "--kmax", "2"],
        tmp_path,
    )
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["command"] == "netcheck"


def test_netcheck_pass(tmp_path):
    code, _ = run_cli(
        ["netcheck", "--spec", "vdc:2", "--base", "2", "--mmax", "4", "--kmax", "3"],
        tmp_path,
    )
    assert code == 0


# Each subcommand's options in --help order: (flag, required, default, type,
# choices).  Every command but report also ends with ("--out", False, None, None, None).
SPEC = ("--spec", True, None, None, None)
TRANSFORM = ("--transform", False, None, None, None)
MODE = ("--mode", False, "extreme", None, ["extreme", "star"])


def need(flag):
    return (flag, True, None, int, None)


OPTION_SURFACE = {
    "gen": [SPEC, need("--count"), ("--start", False, 0, int, None)],
    "transform": [("--transform", True, None, None, None), need("--count"),
                  ("--start", False, 0, int, None)],
    "dist": [need("--q"), need("--j")],
    "disc": [SPEC, TRANSFORM, need("--N"), MODE],
    "udisc": [SPEC, TRANSFORM, need("--N"), need("--kmax"), MODE],
    "expsum": [need("--b"), need("--q"), ("--kmin", False, 0, int, None), need("--kmax"),
               need("--N")],
    "hkbound": [need("--b"), need("--q"), need("--N"), ("--g", False, None, int, None)],
    "genbound": [SPEC, need("--q"), need("--dmax")],
    "sodcheck": [SPEC, need("--q"), need("--dmax"), ("--cal", False, None, int, None), MODE],
    "monocheck": [SPEC, need("--u"), need("--v"), need("--dmax"),
                  ("--cal-dmax", False, 6, int, None), MODE],
    "ubound": [SPEC, need("--b"), ("--t", False, 0, int, None), need("--dmax"), need("--kmax"),
               ("--blocks", False, 8, int, None)],
    "netcheck": [SPEC, need("--base"), ("--t", False, 0, int, None), need("--mmax"),
                 need("--kmax")],
    "report": [("--config", True, None, None, None)],
}


def test_option_surface():
    # every subcommand keeps its options, their order, defaults, types and choices
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(OPTION_SURFACE)
    for name, sub in commands.choices.items():
        got = [(a.option_strings[0], a.required, a.default, a.type, a.choices)
               for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        out = [] if name == "report" else [("--out", False, None, None, None)]
        assert got == OPTION_SURFACE[name] + out, name
        assert sub.get_default("fn").__name__ == "cmd_" + name


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["disc", "--N", "4"])  # missing --spec
    assert exc.value.code == 2


def test_bad_value_exit_two(tmp_path):
    code, _ = run_cli(["gen", "--spec", "nope:7", "--count", "1"], tmp_path)
    assert code == 2


@pytest.mark.parametrize(
    "args,out_name,message",
    [
        (["disc", "--spec", "halton:2,3", "--N", "400"], "F.csv", "budget"),
        (["expsum", "--b", "2", "--q", "2", "--kmax", "3", "--N", "0"], "F.csv", "N >= 1"),
        (["transform", "--transform", '{"kind":"table","path":"/nonexistent"}', "--count", "3"],
         "F.csv", "No such file"),
        (["transform", "--transform", '{"kind":"sod"}', "--count", "3"], "F.csv", "'q'"),
        (["dist", "--q", "2", "--j", "3"], "nonexistent/dir/x.csv", "No such file"),
        (["sodcheck", "--spec", "vdc:2", "--q", "2", "--dmax", "4", "--cal", "1"],
         "F.csv", "log log N > 0"),
        (["gen", "--spec", "vdc:2", "--count", "0"], "F.csv", "no points to write"),
        (["gen", "--spec", "pascal:3,1,2", "--count", "12"], "F.csv",
         "index 11 needs more than 2 base-3 digits; raise the precision"),
        (["gen", "--spec", "vdc:2", "--count", "3", "--start", "-1"], "F.csv",
         "expected a non-negative integer, got -1"),
        (["gen", "--spec", "vdc:2", "--count", "-2"], "F.csv", "no points to write"),
        (["netcheck", "--spec", "vdc:2", "--base", "2", "--t", "-1", "--mmax", "2", "--kmax", "1"],
         "F.csv", "need t >= 0"),
        (["hkbound", "--b", "1", "--q", "3", "--N", "10"], "F.csv", "character base must be >= 2"),
        (["hkbound", "--b", "1", "--q", "3", "--N", "10", "--g", "2"], "F.csv",
         "base must be an integer >= 2, got 1"),
        (["monocheck", "--spec", "vdc:2", "--u", "1", "--v", "2", "--dmax", "0"], "F.csv",
         "need --dmax >= 1, got 0"),
        (["genbound", "--spec", "vdc:2", "--q", "2", "--dmax", "-1"], "F.csv",
         "need d_max >= 0"),
        (["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "-1", "--kmax", "3"], "F.csv",
         "need --dmax >= 0, got -1"),
        (["netcheck", "--spec", "vdc:2", "--base", "2", "--mmax", "-1", "--kmax", "2"], "F.csv",
         "m_max -1, t 0"),
        (["netcheck", "--spec", "vdc:2", "--base", "1", "--mmax", "2", "--kmax", "2"], "F.csv",
         "got base 1,"),
        (["netcheck", "--spec", "vdc:2", "--base", "2", "--mmax", "2", "--kmax", "-1"], "F.csv",
         "k_max -1,"),
        (["netcheck", "--spec", "vdc:2", "--base", "2", "--t", "3", "--mmax", "1", "--kmax", "2"],
         "F.csv", "m_max 1, t 3"),
        (["monocheck", "--spec", "vdc:2", "--u", "1", "--v", "2", "--dmax", "4", "--cal-dmax",
          "0"], "F.csv", "calibrate on a longer prefix"),
        (["monocheck", "--spec", "vdc:2", "--u", "1", "--v", "2", "--dmax", "4", "--cal-dmax",
          "-3"], "F.csv", "calibrate on a longer prefix"),
        (["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "2", "--kmax", "3", "--blocks", "0"],
         "F.csv", "need blocks >= 1"),
        (["transform", "--transform", "pow:1/2", "--count", "0"], "F.csv",
         "need --count >= 1, got 0"),
        (["expsum", "--b", "2", "--q", "2", "--kmin", "5", "--kmax", "2", "--N", "10"], "F.csv",
         "need --kmax >= 5, got 2"),
        (["hkbound", "--b", "2", "--q", "2", "--N", "100", "--g", "0"], "F.csv",
         "resolution g must be >= 1"),
        (["hkbound", "--b", "2", "--q", "2", "--N", "0"], "F.csv", "need N >= 1"),
        (["ubound", "--spec", "vdc:2", "--b", "1", "--dmax", "2", "--kmax", "3"], "F.csv",
         "need a base b >= 2 and t >= 0, got b=1, t=0"),
        (["ubound", "--spec", "vdc:2", "--b", "0", "--dmax", "2", "--kmax", "3"], "F.csv",
         "need a base b >= 2 and t >= 0, got b=0, t=0"),
        (["ubound", "--spec", "vdc:2", "--b", "-2", "--dmax", "2", "--kmax", "3"], "F.csv",
         "need a base b >= 2 and t >= 0, got b=-2, t=0"),
        (["ubound", "--spec", "vdc:2", "--b", "2", "--t", "-1", "--dmax", "2", "--kmax", "3"],
         "F.csv", "need a base b >= 2 and t >= 0, got b=2, t=-1"),
        # the upper bound's float product passes the float range
        (["monocheck", "--spec", "vdc:2", "--u", "1", "--v", "1000", "--dmax", "3"], "F.csv",
         "too large to convert to float"),
        # the counts are exact at any level, the Gaussian column is a float
        (["dist", "--q", "2", "--j", "1030"], "F.csv",
         "the Gaussian main term at q=2, j=1030, k=500 is larger than the float range"),
    ],
    ids=["disc-budget", "expsum-N0", "table-missing-path", "sod-missing-q", "out-dir-missing",
         "sodcheck-no-c3-level", "gen-count-0", "gen-index-out-of-range", "gen-start-negative",
         "gen-count-negative", "netcheck-t-negative", "hkbound-base-1", "hkbound-base-1-g-2",
         "monocheck-dmax-0",
         "genbound-dmax-negative", "ubound-dmax-negative", "netcheck-mmax-negative",
         "netcheck-base-1", "netcheck-kmax-negative", "netcheck-mmax-below-t",
         "monocheck-cal-dmax-0", "monocheck-cal-dmax-negative", "ubound-blocks-0",
         "transform-count-0", "expsum-kmax-below-kmin", "hkbound-g-0", "hkbound-N0",
         "ubound-base-1", "ubound-base-0", "ubound-base-negative", "ubound-t-negative",
         "monocheck-float-overflow", "dist-float-overflow"],
)
def test_usage_error_leaves_no_output(tmp_path, capsys, args, out_name, message):
    out = tmp_path / out_name
    code = main(args + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()
    assert not out.parent.exists() or list(out.parent.iterdir()) == []  # no temp file left


def test_gen_out_of_range_writes_no_rows(capsys):
    # points stream to the output, so the largest index is checked first
    assert main(["gen", "--spec", "pascal:3,1,2", "--count", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "raise the precision" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["gen", "--spec", "vdc:2", "--start", "-1", "--count", "3"], "got -1"),
        (["gen", "--spec", "pascal:2,1,11", "--count", "2049"], "index 2048 needs"),
        (["gen", "--spec", "vdc:2", "--count", "0"], "no points"),
        (["gen", "--spec", "vdc:2", "--count", "-2"], "no points"),
        (["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "2", "--kmax", "-1"], "k_max >= 0"),
        (["expsum", "--b", "2", "--q", "2", "--kmax", "3", "--N", "0"], "need N >= 1"),
        (["transform", "--transform", "pow:1/2", "--start", "-2", "--count", "3"],
         "index must be non-negative"),
        (["transform", "--transform", "TABLE", "--count", "5"], "index 4 outside table range 0..2"),
        (["transform", "--transform", "sod:2", "--start", "-2", "--count", "3"],
         "expected a non-negative integer, got -2"),
    ],
)
def test_gen_usage_errors_write_no_rows(tmp_path, capsys, args, message):
    # every command builds its rows before the first is written; gen and
    # transform stream theirs, so they check both extreme indices first
    table = tmp_path / "table.txt"
    table.write_text("0\n1\n2\n")
    spec = json.dumps({"kind": "table", "path": str(table)})
    assert main([spec if a == "TABLE" else a for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("q, start, count", [(2, 0, 1), (3, 5, 2100), (2, 2**70 - 1500, 3000),
                                            (1031, 1031**2 - 7, 1100)])
def test_transform_digit_sums_are_one_apply_per_row(tmp_path, q, start, count):
    # the rows come from batch digit sums a chunk at a time; each is s_q(n)
    out = tmp_path / "F.csv"
    args = ["transform", "--transform", f"sod:{q}", "--start", str(start), "--count", str(count)]
    assert main(args + ["--out", str(out)]) == 0
    rows = [f"{n},{SumOfDigits(q).apply(n)}" for n in range(start, start + count)]
    assert out.read_text() == "\n".join(["n,fn", *rows]) + "\n"


@pytest.mark.parametrize("k", [2**40, 2**1100], ids=["2^40", "2^1100"])
def test_expsum_at_huge_k_gives_one_row(tmp_path, k):
    # phi_2(k) = 1/(2k): no table over the denominator, and past the float
    # range the phase still rounds to a finite angle
    args = ["expsum", "--b", "2", "--q", "2", "--kmin", str(k), "--kmax", str(k), "--N", "10"]
    code, data = run_cli(args, tmp_path)
    assert code == 0
    header, row = data.decode().splitlines()
    assert header == "b,q,k,N,re,im,abs,bound"
    assert row.split(",")[:5] == ["2", "2", str(k), "10", "1.0"]


def test_disc_has_no_shift_window():
    # udisc is the one route to the windowed estimate
    with pytest.raises(SystemExit) as exc:
        main(["disc", "--spec", "vdc:2", "--N", "4", "--shift-window", "3"])
    assert exc.value.code == 2


def test_monocheck_star_mode_uses_halved_floor(tmp_path):
    # the repeated-point floor bounds the extreme discrepancy, and
    # extreme <= 2^s * star, so star mode checks against floor / 2^s
    args = ["monocheck", "--spec", "vdc:3", "--u", "2", "--v", "3", "--dmax", "6"]
    code, data = run_cli(args + ["--mode", "star"], tmp_path)
    assert code == 0
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    assert len(rows) == 6 and all(row[-1] == "1" for row in rows)
    assert rows[1][:3] == ["4", "1", "4"]  # the extreme floor at N=4 is 1/2
    code, data = run_cli(args, tmp_path, "extreme.csv")
    assert code == 0
    assert data.decode().splitlines()[2].split(",")[:3] == ["4", "1", "2"]


def test_monocheck_measures_each_level_once(monkeypatch, capsys):
    import lowdisc

    measure = lowdisc.transformed_discrepancy
    calls = []

    def counted(spec, transform, n, mode="extreme"):
        calls.append(n)
        return measure(spec, transform, n, mode)

    monkeypatch.setattr(lowdisc, "transformed_discrepancy", counted)
    assert main(["monocheck", "--spec", "vdc:2", "--u", "1", "--v", "2", "--dmax", "16"]) == 0
    assert sorted(calls) == [2**d for d in range(1, 17)]


@pytest.mark.parametrize(
    "args",
    [["expsum", "--b", "2", "--q", "3", "--kmax", "7", "--N", "100000"],
     ["hkbound", "--b", "3", "--q", "2", "--N", "100000", "--g", "2"]],
    ids=["expsum", "hkbound"],
)
def test_weyl_rows_count_the_digit_sums_once(args, monkeypatch, capsys):
    # every Weyl row, and hkbound's multiplicities, read one count list
    from lowdisc import digitsum_dist, expsums

    count = digitsum_dist.digit_sum_counts_below
    calls = []

    def counted(q, n):
        calls.append((q, n))
        return count(q, n)

    monkeypatch.setattr(digitsum_dist, "digit_sum_counts_below", counted)
    monkeypatch.setattr(expsums, "digit_sum_counts_below", counted)
    assert main(args) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.splitlines()) == 9 + (args[0] == "hkbound")  # + total


def test_dist_past_the_float_range_builds_no_counts(monkeypatch, capsys):
    # the Gaussian column comes from q, j and k alone, so it overflows before
    # any count is built, with the message of its first overflowing row
    import lowdisc

    monkeypatch.setattr(lowdisc, "distribution", lambda q, j: pytest.fail("counted first"))
    assert main(["dist", "--q", "2", "--j", "2894"]) == 2
    assert capsys.readouterr().err == ("usage error: the Gaussian main term at q=2, j=2894, "
                                       "k=80 is larger than the float range\n")


def test_failed_check_still_writes_its_rows(tmp_path, capsys):
    out = tmp_path / "F.csv"
    out.write_text("stale\n")
    code = main(["netcheck", "--spec", "halton:2,3", "--base", "2", "--mmax", "2", "--kmax", "2",
                 "--out", str(out)])
    assert code == 1
    assert out.read_text().startswith("base,t,s,mmax,kmax,ok")
    assert [p.name for p in tmp_path.iterdir()] == ["F.csv"]


def test_report_manifest_and_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("curve=sod\nspec=vdc:2\nq=2\ndmax=6\nout=%s\n" % (tmp_path / "rep"))
    assert main(["report", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
    assert manifest["files"] == ["sod_q2.dat"]
    data = (tmp_path / "rep" / "sod_q2.dat").read_text().splitlines()
    assert len(data) == 6

    bad = tmp_path / "bad"
    bad.write_text("curve=sod\nspec=vdc:2\nwhat=1\n")
    assert main(["report", "--config", str(bad)]) == 2


def test_report_manifest_bytes(tmp_path, monkeypatch):
    # the manifest holds the config as given, so a relative out= pins every byte
    monkeypatch.chdir(tmp_path)
    Path("cfg").write_text("curve=alpha\nspec=vdc:3\nu=2\nv=3\ndmax=6\nmode=star\nout=rep\n")
    assert main(["report", "--config", "cfg"]) == 0
    assert Path("rep/manifest.json").read_text() == (
        '{\n  "config": {\n    "curve": "alpha",\n    "dmax": 6,\n    "mode": "star",\n'
        '    "out": "rep",\n    "q": 2,\n    "spec": "vdc:3",\n    "u": 2,\n    "v": 3\n  },\n'
        '  "config_hash": "a3f0120d5b3e4e3af9baf3a27d880f71ca59d437f8e038feed3afca99109e6cf",\n'
        '  "files": [\n    "alpha_2_3.dat"\n  ],\n  "version": "0.1.0"\n}\n'
    )


def test_report_unknown_curve_leaves_no_output(tmp_path, capsys):
    # every curve is built before the report directory is made
    for config, message in [
        ("curve=nope\nspec=vdc:2\n", "unknown curve"),
        ("curve=alpha\nspec=halton:2,3\nu=1\nv=2\ndmax=17\n", "exceed the budget"),
        ("curve=alpha\nspec=vdc:2\nu=3\nv=2\ndmax=3\n", "0 < u < v"),
        # the sod curve is sodcheck's scaled column, so it needs sodcheck's fit
        ("curve=sod\nspec=vdc:2\nq=2\ndmax=1\n", "calibrate on a longer prefix"),
        # a level range with no level checks nothing
        ("curve=bound\nspec=vdc:2\nq=2\ndmax=-1\n", "need d_max >= 0"),
        ("curve=alpha\nspec=vdc:2\nu=1\nv=2\ndmax=0\n", "no N to check"),
        # the sandwich's floor bounds the extreme value, so bound has no other mode
        ("curve=bound\nspec=vdc:2\nq=2\ndmax=3\nmode=star\n", "got mode='star'"),
        ("curve=bound\nspec=vdc:2\nq=2\ndmax=3\nmode=bogus\n", "got mode='bogus'"),
    ]:
        cfg = tmp_path / "cfg"
        cfg.write_text(config + "out=%s\n" % (tmp_path / "rep"))
        assert main(["report", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "rep").exists()


def test_report_alpha_curve(tmp_path):
    cfg = tmp_path / "cfg2"
    cfg.write_text(
        "curve=alpha\nspec=vdc:2\nu=1\nv=2\ndmax=5\nout=%s\n" % (tmp_path / "rep2")
    )
    assert main(["report", "--config", str(cfg)]) == 0
    lines = (tmp_path / "rep2" / "alpha_1_2.dat").read_text().splitlines()
    assert len(lines) == 5 and all(len(line.split()) == 2 for line in lines)


@pytest.mark.parametrize(
    "args",
    [
        ["udisc", "--spec", "vdc:2", "--N", "16", "--kmax", "64"],
        ["genbound", "--spec", "vdc:2", "--q", "2", "--dmax", "7"],
        ["sodcheck", "--spec", "vdc:2", "--q", "2", "--dmax", "8"],
        ["expsum", "--b", "2", "--q", "2", "--kmin", "1", "--kmax", "6", "--N", "512"],
    ],
)
def test_outputs_byte_identical_across_thread_counts(tmp_path, args):
    # the library runs single-threaded, so this checks run-to-run determinism
    code1, data1 = run_cli(args, tmp_path, "a.csv")
    code2, data2 = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert data1 == data2
    _, data3 = run_cli(args, tmp_path, "c.csv")
    assert data3 == data2


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_import_keeps_one_blas_thread_unless_set(preset, expected):
    # lowdisc makes no BLAS call, so numpy's BLAS pool gets one thread by default
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, lowdisc; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == expected + "\n"


def run_bounded(args, memory: int = 1 << 30, seconds: float = 10) -> subprocess.CompletedProcess:
    """main(args) in a child under an address-space limit and a timeout, so a
    run that allocates past the limit fails at once, and one that hangs fails
    the test within `seconds` instead of stalling the suite."""
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({memory}, {memory}))\n"
        "from lowdisc.cli import main\n"
        f"sys.exit(main({args!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=seconds)


@pytest.mark.parametrize(
    "args, says",
    [(["udisc", "--spec", "vdc:2", "--N", "2", "--kmax", "1000000000000"], ""),
     (["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "3", "--kmax", "1000000000000"], ""),
     # the transformed window allocates its indices before it maps any of them
     (["udisc", "--spec", "vdc:2", "--transform", "sod:2", "--N", "2", "--kmax",
       "1000000000000"], ""),
     # digit-sum counts past the budget are refused before the first level,
     # whether the levels are many or one level is wide
     (["dist", "--q", "5", "--j", "1000000"], "past the budget"),
     (["dist", "--q", "100000000", "--j", "1"], "past the budget"),
     (["disc", "--spec", "vdc:2", "--transform", "sod:100000000", "--N", str(10**18)],
      "past the budget"),
     # floor(n^(1/10^20)) is 1 for n >= 1, so the count of f(n) = 2 is 3^(10^20) - 2^(10^20)
     (["monocheck", "--spec", "vdc:2", "--u", "1", "--v", str(10**20), "--dmax", "3"],
      "has more than"),
     # Weyl rows times digit-sum classes past the budget are refused before
     # the first row, however many rows (2^100 - 1 has no len())
     (["hkbound", "--b", "2", "--q", "2", "--N", "10", "--g", "40"], "past the budget"),
     (["hkbound", "--b", "2", "--q", "2", "--N", "10", "--g", "100"], "past the budget"),
     (["expsum", "--b", "2", "--q", "2", "--kmax", "100000000", "--N", "10"],
      "past the budget")],
    ids=["udisc", "ubound", "udisc-transform", "dist-levels", "dist-base", "disc-sod-base",
         "monocheck-root", "hkbound-g-40", "hkbound-g-100", "expsum-rows"],
)
def test_window_past_memory_is_a_usage_error(args, says, tmp_path):
    # a 2 GiB address space keeps a failed allocation from taking real memory;
    # a refusal made before any allocation says why
    proc = run_bounded(args + ["--out", str(tmp_path / "out.csv")], memory=2 << 30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert says in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_floor_power_with_a_huge_root_runs_at_once():
    # floor(n^(1/10^20)) is 1 for every n >= 1: neither the root nor the
    # value counts may form 2^(10^20 - 1) or 2^(10^20) on the way; the
    # address-space limit bounds what a run that does so can take
    pow_ = f"pow:1/{10**20}"
    runs = [(["transform", "--transform", pow_, "--count", "4"], "n,fn\n0,0\n1,1\n2,1\n3,1\n"),
            (["disc", "--spec", "vdc:2", "--transform", pow_, "--N", "4"],
             'N,value_num,value_den,method,witness\n4,3,4,exact-1d,"[1/2,1/2]"\n')]
    for args, want in runs:
        proc = run_bounded(args)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", want)


def test_digit_sum_counts_at_scale():
    # below 2^1000 - 1 every digit sum k < 1000 is taken C(1000, k) times
    n = 2**1000 - 1
    proc = run_bounded(["disc", "--spec", "vdc:2", "--transform", "sod:2", "--N", str(n)])
    assert (proc.returncode, proc.stderr) == (0, "")
    rep = discrepancy(int_coordinates(VanDerCorput(2), range(1000)),
                      [math.comb(1000, k) for k in range(1000)])
    row = [str(n), str(rep.value.numerator), str(rep.value.denominator), "exact-1d",
           str(rep.witness)]
    assert list(csv.reader(proc.stdout.splitlines()))[1:] == [row]
    # one digit below a huge base writes 1000 counts, not q: the parent's bytes
    proc = run_bounded(["hkbound", "--b", "2", "--q", "100000000", "--N", "1000"])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "dd4a4ecaebfd09fe30632460f1ee69480cbe0da694b5f2e0068d5bd3833f84dc")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


# Modules a numpy-free job does not load: records are NamedTuples or plain
# classes, and JSON is imported only where it is written or parsed.
LEAN = ("dataclasses", "inspect", "json")


def test_cli_start_up_loads_only_the_commands_modules():
    code = (
        "import contextlib, io, os, sys\n"
        "import lowdisc.cli as cli\n"
        f"def lean(): print(*(m in sys.modules for m in {LEAN!r}))\n"
        "print('numpy' in sys.modules, 'hashlib' in sys.modules)\n"
        "lean()\n"
        "assert cli.main(['dist', '--q', '3', '--j', '5', '--out', os.devnull]) == 0\n"
        "lean()\n"
        "assert cli.main(['transform', '--transform', 'pow:1/2', '--count', '50',"
        " '--out', os.devnull]) == 0\n"
        "lean()\n"
        "assert cli.main(['expsum', '--b', '2', '--q', '3', '--kmax', '15', '--N', '1000',"
        " '--out', os.devnull]) == 0\n"
        "lean()\n"
        "assert cli.main(['hkbound', '--b', '3', '--q', '2', '--N', '5000',"
        " '--out', os.devnull]) == 0\n"
        "lean()\n"
        "print('numpy' in sys.modules, 'lowdisc.generators' in sys.modules)\n"
        # small 1D radical-inverse multisets are evaluated on Python ints
        "assert cli.main(['sodcheck', '--spec', 'vdc:2', '--q', '3', '--dmax', '12',"
        " '--out', os.devnull]) == 0\n"
        "lean()\n"
        "assert cli.main(['monocheck', '--spec', 'vdc:2', '--u', '2', '--v', '3', '--dmax', '10',"
        " '--out', os.devnull]) == 0\n"
        "lean()\n"
        "assert cli.main(['disc', '--spec', 'vdc:3', '--transform', 'pow:1/2', '--N', '100000',"
        " '--out', os.devnull]) == 0\n"
        "lean()\n"
        "print('numpy' in sys.modules)\n"
        # a failed check still writes its JSON record, importing json to do so
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    rc = cli.main(['monocheck', '--spec', 'vdc:2', '--u', '1', '--v', '2', '--dmax', '8',"
        " '--cal-dmax', '1', '--out', os.devnull])\n"
        "print(rc, 'json' in sys.modules, 'numpy' in sys.modules)\n"
        "print(err.getvalue(), end='')\n"
    )
    lines = run_python(code).splitlines()
    assert lines[:-2] == (["False False"] + ["False False False"] * 5 + ["False False"]
                          + ["False False False"] * 3 + ["False"])
    assert lines[-2] == "1 True False"
    assert json.loads(lines[-1]) == {"command": "monocheck", "failures": [
        {"N": 4, "check": "monocheck"}, {"N": 8, "check": "monocheck"}]}


def test_one_point_loads_no_numpy():
    # spec.point(n) and points() are int_coordinates, for every kind of
    # spec, and give the arrays' points; a small net check counts them on
    # Python ints
    from lowdisc import parse_spec
    from lowdisc.generators import coordinates, to_points

    specs = ("vdc:3", "halton:2,3,5", "pascal:3,2", "pascal:2,1,62")
    code = (
        "import sys\n"
        "import lowdisc as ld\n"
        f"for text in {specs!r}:\n"
        "    spec = ld.parse_spec(text)\n"
        "    print(spec.point(12345))\n"
        "    print(ld.points(spec, 50))\n"
        "print(ld.check_net(ld.points(ld.VanDerCorput(2), 8), 2, 0))\n"
        "print('numpy' in sys.modules)\n"
    )
    want = []
    for text in specs:
        spec = parse_spec(text)
        want += [str(to_points(coordinates(spec, [12345]))[0]),
                 str(to_points(coordinates(spec, range(50))))]
    want.append("NetCheck(ok=True, violation=None)")
    assert run_python(code).splitlines() == want + ["False"]


def test_small_converted_input_loads_no_numpy():
    # Points, Fraction rows and scalars go to Python ints by the size rule of
    # points given by a spec, and give the array route's report
    from fractions import Fraction

    from lowdisc import Halton, points
    from lowdisc.generators import _as_arrays, _as_batch

    inputs = {
        "points(VanDerCorput(2), 8)": points(VanDerCorput(2), 8),
        "[Fraction(1, 4), Fraction(1, 2)]": [Fraction(1, 4), Fraction(1, 2)],
        "points(Halton((2, 3)), 10)": points(Halton((2, 3)), 10),
        "[(Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(3, 4))]":
            [(Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(3, 4))],
    }
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from lowdisc import Halton, VanDerCorput, points\n"
        "from lowdisc.discrepancy import discrepancy\n"
        "for mode in ('extreme', 'star'):\n"
        f"    for text in {list(inputs)!r}:\n"
        "        print(repr(discrepancy(eval(text), mode=mode)))\n"
        "print('numpy' in sys.modules)\n"
    )
    want = [repr(discrepancy(_as_arrays(_as_batch(pts)), mode=mode))
            for mode in ("extreme", "star") for pts in inputs.values()]
    assert run_python(code).splitlines() == want + ["False"]


@pytest.mark.parametrize(
    "jobs, loaded",
    [
        # 2**15 distinct points on Python ints, one more through the arrays
        ([["disc", "--spec", "vdc:2", "--N", "32768"], ["disc", "--spec", "vdc:2", "--N", "32769"]],
         "False True"),
        # a 1D window has no cut: (kmax + 1) * N points are 2**15, then 2**15 + 128,
        # and both slide on Python ints
        ([["udisc", "--spec", "vdc:2", "--N", "128", "--kmax", k] for k in ("255", "256")],
         "False False"),
        # the benchmark's sweep jobs: the envelope's 1D windows, 9,653 points
        # at most, run on Python ints
        ([["genbound", "--spec", "vdc:2", "--q", q, "--dmax", "12"] for q in ("2", "3", "5")],
         "False False False"),
        # the benchmark's grid jobs, on every Halton pair it draws
        ([job for pair in ("2,3", "3,2", "2,5", "5,2") for job in (
            ["disc", "--spec", f"halton:{pair}", "--N", "18"],
            ["disc", "--spec", "pascal:3,2,12", "--N", "81", "--mode", "star"],
            ["udisc", "--spec", f"halton:{pair}", "--N", "8", "--kmax", "16"],
            ["disc", "--spec", f"halton:{pair}", "--transform", "sod:2", "--N", "65536"],
        )], " ".join(["False"] * 16)),
        # 63 distinct points are 2^18 scan cells on Python ints, 64 go to the arrays
        ([["disc", "--spec", "halton:2,3", "--N", n] for n in ("63", "64")], "False True"),
        # the benchmark's points jobs, on every --start it draws; `ubound` runs
        # last, since it loads the bound checks that `udisc` must not
        ([job for start in ("0", "1024", "2048", "3072") for job in (
            ["gen", "--spec", "pascal:3,2", "--count", "20000", "--start", start],
            ["gen", "--spec", "vdc:2", "--count", "100000", "--start", start],
            ["netcheck", "--spec", "pascal:3,2", "--base", "3", "--mmax", "5", "--kmax", "8"],
            ["udisc", "--spec", "vdc:2", "--N", "1024", "--kmax", "4096"],
            ["udisc", "--spec", "vdc:2", "--transform", "sod:2", "--N", "256", "--kmax", "1024"],
        )] + [["ubound", "--spec", "vdc:2", "--b", "2", "--dmax", "10", "--kmax", "2048"]] * 4,
         " ".join(["False"] * 24)),
        # a net check counts its blocks on Python ints while their points times
        # (1 + shapes * s), summed over the levels, stay within NET_CUT =
        # 200,000: one 1D block a level up to 2**15 points is 131,068, two are
        # past it
        ([["netcheck", "--spec", "vdc:2", "--base", "2", "--mmax", "15", "--kmax", k]
          for k in ("0", "1")], "False True"),
        # one 2D block a level up to 3**8 points (9 shapes) is 177,147; two are
        # past it
        ([["netcheck", "--spec", "pascal:3,2", "--base", "3", "--mmax", "8", "--kmax", k]
          for k in ("0", "1")], "False True"),
        # a base far past the digit-reversal table's 1024 entries costs nothing extra
        ([["disc", "--spec", "vdc:1000000007", "--N", "3"],
          ["disc", "--spec", "halton:2,1000003", "--N", "20", "--mode", "star"]], "False False"),
    ],
    ids=["disc-cut", "window-cut", "genbound", "grid-jobs", "grid-cut", "points-jobs",
         "netcheck-cut", "netcheck-cut-2d", "large-base"],
)
def test_cli_loads_numpy_only_past_the_cut_and_for_windows(jobs, loaded):
    # a job that does not load numpy loads none of LEAN either; nor does
    # `disc` or `udisc` load the bound checks, which `genbound` runs
    code = "import os, sys\nimport lowdisc.cli as cli\nseen, lean = [], set()\n"
    for job in jobs:
        watched = (*LEAN, "lowdisc.bounds") if job[0] in ("disc", "udisc") else LEAN
        code += f"assert cli.main({job!r} + ['--out', os.devnull]) == 0\n"
        code += "seen.append('numpy' in sys.modules)\n"
        code += f"lean |= set() if seen[-1] else {{m for m in {watched!r} if m in sys.modules}}\n"
    code += "print(*seen)\nprint(sorted(lean))\n"
    assert run_python(code) == loaded + "\n[]\n"


def test_lazy_package_resolves_every_name():
    code = (
        "import sys, lowdisc\n"
        "print(sorted(m for m in sys.modules if m.startswith('lowdisc')))\n"
        "print(lowdisc.bounds.__name__)\n"
        "from lowdisc import generators\n"
        "print(generators.__name__)\n"
        "import lowdisc.expsums as expsums\n"
        "assert lowdisc.weyl_sum is expsums.weyl_sum\n"
        "missing = [n for n in lowdisc.__all__ if not hasattr(lowdisc, n)]\n"
        "print(len(lowdisc.__all__), missing, set(lowdisc.__all__) <= set(dir(lowdisc)))\n"
        "print(hasattr(lowdisc, 'no_such_name'))\n"
    )
    assert run_python(code).splitlines() == [
        "['lowdisc']",
        "lowdisc.bounds",
        "lowdisc.generators",
        "63 [] True",
        "False",
    ]
