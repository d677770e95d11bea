import inspect
import json
import os
import subprocess
import sys
import warnings
from collections import namedtuple

import pytest

from korbit import cli, foliation, kirillov, orbits

Run = namedtuple("Run", "returncode stdout stderr")


def _warning_to_stderr(message, category, filename, lineno, file=None,
                       line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """The command line in this process: run(*args) calls cli.entry and
    returns its exit status (argparse's SystemExit code included), stdout
    and stderr. KORBIT_THREADS is unset unless threads gives it. As in a
    fresh interpreter, each call prints every warning to stderr once per
    source line; a DeprecationWarning still fails the test."""
    monkeypatch.delenv("KORBIT_THREADS", raising=False)

    def run(*args, threads=None):
        capsys.readouterr()
        with monkeypatch.context() as mp, warnings.catch_warnings():
            if threads is not None:
                mp.setenv("KORBIT_THREADS", threads)
            warnings.simplefilter("default")
            warnings.simplefilter("error", DeprecationWarning)
            warnings.showwarning = _warning_to_stderr
            try:
                code = cli.entry(list(args))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        return Run(code, *capsys.readouterr())

    return run


def run_module(*args, flags=()):
    """Start python -m korbit in its own interpreter, KORBIT_THREADS unset,
    its streams piped as bytes; for the tests of the interpreter itself."""
    env = {k: v for k, v in os.environ.items() if k != "KORBIT_THREADS"}
    return subprocess.Popen([sys.executable, *flags, "-m", "korbit", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


def test_list_families_text(run_cli):
    r = run_cli("list-families")
    assert r.returncode == 0
    for tag in ("5.3.1", "5.3.4", "5.3.8"):
        assert tag in r.stdout


def test_list_families_json(run_cli):
    r = run_cli("list-families", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["families"]) == 8


def test_classify_text_and_json(run_cli):
    r = run_cli("classify", "--family", "5.3.1", "--params", "2,3",
                "--covector", "0,0,1,1,1")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "case 8, cylinder, dim 2"
    r = run_cli("classify", "--family", "5.3.1", "--params", "2,3",
                "--covector", "0,0,1,1,1", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["case"] == 8 and doc["dim"] == 2
    # a coordinate below --snap-tol reads as zero, and the text says so
    r = run_cli("classify", "--family", "5.3.1", "--params", "2,3",
                "--covector", "0,0,1,1,1e-12", "--snap-tol", "1e-9")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "case 7, cylinder, dim 2"
    assert lines[-1] == ("note: coordinates below the snap tolerance were "
                         "treated as zero")


@pytest.mark.parametrize("given,same_as", [
    ("", None),  # the catalog defaults, as with no --params
    ("lambda1=-2,,lambda2=0.5", "lambda1=-2,lambda2=0.5"),  # no empty item
])
def test_params_spelled_another_way(run_cli, given, same_as):
    run = ("classify", "--family", "5.3.1", "--covector", "0,0,1,1,1",
           "--format", "json")
    r = run_cli(*run, "--params=" + given)
    expect = run_cli(*run, *(() if same_as is None else ("--params", same_as)))
    assert r == expect and r.returncode == 0 and r.stderr == ""


def test_classify_named_params(run_cli):
    r = run_cli("classify", "--family", "5.3.8",
                "--params", "lambda=2,phi=0.5", "--covector", "1,1,0,0,3")
    assert r.returncode == 0
    assert r.stdout.startswith("case 2,")


@pytest.mark.parametrize("command,rest", [
    ("classify", ("--covector", "-1,1,1,1,1", "--format", "json")),
    ("sample-orbit", ("--covector", "-.5,1,-2,1,1", "--n", "3",
                      "--seed", "1", "--format", "json")),
    ("scan-md", ("--n", "300", "--seed", "1")),
    ("verify-props", ("--case", "8", "--n", "20", "--seed", "1")),
    ("check-foliation", ("--pairs", "3", "--members", "5", "--seed", "1")),
])
def test_negative_values_in_either_spelling(run_cli, command, rest):
    # '--params -2,0.5' starts like an option; it must read as '--params=...'
    spaced = [command, "--family", "5.3.1", "--params", "-2,0.5", *rest]
    joined = (" ".join(spaced).replace("--params ", "--params=")
              .replace("--covector ", "--covector=").split())
    a = run_cli(*spaced)
    b = run_cli(*joined)
    assert a.stderr == b.stderr == ""
    assert a.returncode == b.returncode and a.returncode in (0, 1)
    assert a.stdout == b.stdout and a.stdout


def test_usage_errors_exit_2(run_cli):
    assert run_cli("classify", "--family", "5.3.9",
                   "--covector", "0,0,1,1,1").returncode == 2
    assert run_cli("classify", "--family", "5.3.1",
                   "--covector", "1,2,3").returncode == 2
    assert run_cli("classify", "--family", "5.3.1", "--params", "1.0,3.0",
                   "--covector", "0,0,1,1,1").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    for args, line in (
            (("classify", "--covector", "1,1,1,1,1"),
             "--family is required (a tag like 5.3.1, or all)"),
            (("scan-md", "--family", "all", "--params", "2", "--n", "8",
              "--seed", "1"), "--params cannot be combined with --family all"),
            (("classify", "--family", "all", "--covector", "1,1,1,1,1"),
             "classify needs a single family"),
            (("classify", "--family", "5.3.1"),
             "a covector is required (--covector 'x,y,z,t,s')"),
            (("classify", "--family", "5.3.2", "--params", "lambda=x",
              "--covector", "1,1,1,1,1"),
             "could not parse parameters 'lambda=x'")):
        assert run_cli(*args) == (2, "", f"error: {line}\n"), args


def test_stochastic_commands_require_seed(run_cli):
    for cmd in (("scan-md", "--family", "5.3.1"),
                ("verify-props", "--family", "5.3.1"),
                ("sample-orbit", "--family", "5.3.1",
                 "--covector", "0,0,1,1,1"),
                ("check-foliation", "--family", "5.3.1")):
        r = run_cli(*cmd)
        assert r.returncode == 2
        assert "seed" in r.stderr


def test_scan_md_json_and_exit(run_cli):
    r = run_cli("scan-md", "--family", "5.3.6", "--n", "2000", "--seed", "5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc["histogram"]) <= {"0", "2"}
    assert doc["violations"] == []
    assert doc["passed"] is True


def test_verify_props_text_pass(run_cli):
    r = run_cli("verify-props", "--family", "5.3.4", "--n", "60",
                "--seed", "3")
    assert r.returncode == 0
    assert "all cases passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_verify_props_json_single_case(run_cli):
    r = run_cli("verify-props", "--family", "5.3.5", "--case", "8",
                "--n", "60", "--seed", "3", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["provenance"][0]["adopted"] == "corrected"


def test_vacuous_sample_counts_exit_2(run_cli):
    for args in (("verify-props", "--family", "5.3.4", "--n", "0"),
                 ("check-foliation", "--family", "5.3.2", "--pairs", "0",
                  "--members", "0"),
                 ("check-foliation", "--family", "5.3.2", "--pairs", "3",
                  "--members", "0"),
                 ("check-foliation", "--family", "5.3.2", "--radius", "0"),
                 ("scan-md", "--family", "5.3.4", "--n", "0"),
                 ("scan-md", "--family", "5.3.4", "--radius", "0"),
                 ("scan-md", "--family", "5.3.4", "--radius", "-1"),
                 ("verify-props", "--family", "5.3.8", "--params",
                  "lambda=1,phi=1.5707962267948966", "--case", "3",
                  "--n", "200", "--grad-tol", "inf"),
                 ("verify-props", "--family", "5.3.4", "--member-tol", "nan"),
                 ("verify-props", "--family", "5.3.4", "--tangency-tol", "0"),
                 ("check-foliation", "--family", "5.3.2", "--tol=-1e-8")):
        r = run_cli(*args, "--seed", "3")
        assert r.returncode == 2, args
        assert r.stderr.startswith("error: ") and r.stdout == ""
    for snap in ("inf", "-1e-8", "nan"):
        r = run_cli("classify", "--family", "5.3.1", "--covector",
                    "1,1,1e-13,1,1", f"--snap-tol={snap}")
        assert r.returncode == 2, snap
        assert r.stderr.startswith("error: ") and r.stdout == ""
    # a refusal prints its one line and nothing else, no numpy warning
    # either; a negative number given as its own token, in exponent
    # notation too, reaches the package's refusal, not argparse's
    # "expected one argument"
    for args, line in (
            (("scan-md", "--family", "5.3.4", "--rank-tol", "inf",
              "--seed", "3"),
             "rank tolerance must be finite and positive, got inf"),
            (("scan-md", "--family", "5.3.4", "--seed", "-1"),
             "seed must be at least 0, got -1"),
            (("classify", "--family", "5.3.1", "--covector", "1,1,1,1,1",
              "--snap-tol", "-1e-3"),
             "snap_tol must be finite and nonnegative, got -0.001"),
            (("classify", "--family", "5.3.1", "--covector", "1,1,1,1,1",
              "--snap-tol", "-inf"),
             "snap_tol must be finite and nonnegative, got -inf"),
            (("verify-props", "--family", "5.3.4", "--grad-tol", "-1e-4",
              "--seed", "3"),
             "grad_tol must be finite and positive, got -0.0001"),
            (("check-foliation", "--family", "5.3.2", "--tol", "-1e-8",
              "--seed", "3"),
             "partition tolerance must be finite and positive, got -1e-08"),
            (("scan-md", "--family", "5.3.4", "--rank-tol", "-1e-9",
              "--seed", "3"),
             "rank tolerance must be finite and positive, got -1e-09"),
            (("scan-md", "--family", "5.3.4", "--radius", "-.5",
              "--seed", "3"),
             "sampling radius must be finite and positive, got -0.5")):
        r = run_cli(*args)
        assert (r.returncode, r.stderr, r.stdout) == (2, f"error: {line}\n",
                                                      ""), args


def test_sample_orbit_csv(run_cli):
    r = run_cli("sample-orbit", "--family", "5.3.3", "--covector",
                "0,0,1,1,1", "--n", "4", "--seed", "9")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "x,y,z,t,s"
    assert len(lines) == 5
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_sample_orbit_zero_rows(run_cli):
    r = run_cli("sample-orbit", "--family", "5.3.3", "--covector",
                "0,0,1,1,1", "--n", "0", "--seed", "9")
    assert r.returncode == 0
    assert r.stdout == "x,y,z,t,s\n"


def test_check_foliation_json(run_cli):
    r = run_cli("check-foliation", "--family", "5.3.2", "--pairs", "10",
                "--members", "15", "--seed", "12")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert set(doc["local_triviality"]) == {str(c) for c in range(2, 9)}
    assert all(doc["local_triviality"].values())


def test_check_foliation_takes_the_largest_int64_seed(run_cli):
    # the probe seeds seed + 104729 + i pass the int64 range; a seed is an
    # unbounded integer, so this is a report, not exit 1 or 2
    args = ("check-foliation", "--family", "5.3.1", "--pairs", "10",
            "--seed", str(2**63 - 1))
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 2**63 - 1


def test_reruns_are_byte_identical_and_thread_env_neutral(run_cli):
    args = ("scan-md", "--family", "5.3.7", "--n", "5000", "--seed", "31")
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, threads="8")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_invalid_thread_env_exits_2(run_cli):
    r = run_cli("scan-md", "--family", "5.3.1", "--n", "100", "--seed", "1",
                threads="abc")
    assert r.returncode == 2
    r = run_cli("scan-md", "--family", "5.3.1", "--n", "100", "--seed", "1",
                threads="0")
    assert r.returncode == 2


def test_config_file_defaults_and_flag_priority(run_cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "n": 600, "family": "5.3.2"}))
    r = run_cli("scan-md", "--config", str(cfg))
    assert r.returncode == 0
    assert json.loads(r.stdout)["n"] == 600
    r = run_cli("scan-md", "--config", str(cfg), "--n", "400")
    assert json.loads(r.stdout)["n"] == 400


@pytest.mark.parametrize("content,reason", [
    (None, "No such file or directory"),
    ("a directory", "Is a directory"),
    ('{"seed": 1,', "Expecting property name"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    (b'{"family": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ('{"n": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
], ids=["missing", "directory", "malformed", "nested", "not-utf-8",
        "long-integer"])
def test_unreadable_config_file_exits_2_naming_it(run_cli, tmp_path, content,
                                                   reason):
    # one refusal line naming the file, not a traceback with the exit
    # status of a failed check
    path = tmp_path / "cfg.json"
    if content == "a directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli("scan-md", "--family", "5.3.1", "--seed", "1",
                             "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config file {path}: ")
    assert reason in err and err.count("\n") == 1 and err.endswith("\n")


def test_config_file_that_is_no_object_exits_2(run_cli, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert run_cli("scan-md", "--family", "5.3.1", "--seed", "1", "--config",
                   str(path)) == (
        2, "", "error: config file must hold a JSON object\n")


def test_config_unknown_key_warns(run_cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "n": 200, "family": "5.3.2",
                               "typo_key": 1}))
    r = run_cli("scan-md", "--config", str(cfg))
    assert r.returncode == 0
    assert "typo_key" in r.stderr


def test_out_file_writes_payload(run_cli, tmp_path):
    out = tmp_path / "scan.json"
    r = run_cli("scan-md", "--family", "5.3.1", "--n", "800", "--seed", "2",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "5.3.1"


def test_family_all_scan(run_cli):
    r = run_cli("scan-md", "--family", "all", "--n", "400", "--seed", "8")
    assert r.returncode == 0
    docs = json.loads(r.stdout)
    assert [d["family"] for d in docs] == ["5.3.1", "5.3.2", "5.3.3", "5.3.4",
                                           "5.3.5", "5.3.6", "5.3.7", "5.3.8"]


def test_degenerate_params_warning_goes_to_stderr(run_cli):
    r = run_cli("classify", "--family", "5.3.3", "--params", "0",
                "--covector", "0,0,0,1,0")
    assert r.returncode == 0
    assert "degenerate" in r.stderr
    assert "degenerate" not in r.stdout


# runpy is frozen from Python 3.11 on; with frozen modules off (and before
# 3.11) its frame comes from runpy.py instead
@pytest.mark.parametrize("flags", [(), ("-X", "frozen_modules=off")])
def test_module_run_warning_names_a_source_line(flags):
    # under python -m korbit the first frame outside the package is runpy's;
    # the warning names korbit/__main__.py's call line instead
    proc = run_module("verify-props", "--family", "5.3.3", "--params", "0",
                      "--case", "2", "--n", "5", "--seed", "1", flags=flags)
    stderr = proc.communicate()[1].decode()
    assert proc.returncode == 0
    lines = [ln for ln in stderr.splitlines() if "ParameterWarning:" in ln]
    assert len(lines) == 1 and "<frozen" not in lines[0], stderr
    where = lines[0].split(": ParameterWarning:")[0]
    path, line = where.rsplit(":", 1)
    assert os.path.samefile(
        path, os.path.join(os.path.dirname(cli.__file__), "__main__.py"))
    with open(path) as f:
        source = f.read().splitlines()[int(line) - 1]
    assert "entry()" in source
    assert "entry()" in stderr


def test_overflowing_motion_exits_2(run_cli):
    # seed 1 draws row 0 of the radius-400 cube first; its b = 360 overflows
    # exp(3b) = e^1081, so both commands stop at the same refusal, and
    # verify-props names the family, case and base it was moving
    line = ("exp(ad U) overflows at row 0, U = [9.457299760205387, "
            "360.3709570607482, -284.672309824293, 358.9195577097951, "
            "-150.53483839161163]\n")
    for args, prefix in (
            (("sample-orbit", "--family", "5.3.1", "--covector",
              "1,1,1,1,1", "--n", "3", "--radius", "400", "--seed", "1"), ""),
            (("verify-props", "--family", "5.3.1", "--case", "8",
              "--n", "50", "--radius", "400", "--seed", "1"),
             "family 5.3.1 case 8, base [1.0, 1.0, 1.0, 1.0, 1.0]: ")):
        r = run_cli(*args)
        assert (r.returncode, r.stderr, r.stdout) == (
            2, f"error: {prefix}{line}", ""), args


@pytest.mark.parametrize("args", [
    ("sample-orbit", "--family", "5.3.1", "--covector", "1,1,1,1,1",
     "--n", "3"),
    ("verify-props", "--family", "5.3.1", "--case", "8", "--n", "5"),
    ("scan-md", "--family", "5.3.1", "--n", "8"),
    ("check-foliation", "--family", "5.3.1", "--pairs", "3"),
], ids=lambda args: args[0])
def test_radius_with_an_overflowing_cube_exits_2(run_cli, args):
    # the cube [-1e308, 1e308] is wider than the float range
    r = run_cli(*args, "--radius", "1e308", "--seed", "1")
    assert (r.returncode, r.stderr, r.stdout) == (
        2, "error: sampling radius 1e+308 is too large: the cube width "
           "2*radius exceeds the float range\n", "")


def test_probe_overflow_exits_2_naming_the_pair(run_cli):
    r = run_cli("check-foliation", "--family", "5.3.1", "--pairs", "3",
                "--radius", "8e307", "--seed", "1")
    # the refusal is the last line (and the only one, as
    # test_foliation_refusals_print_no_numpy_warning shows)
    line = r.stderr.splitlines()[-1]
    assert r.returncode == 2 and r.stdout == ""
    assert line.startswith("error: family 5.3.1, pair 0, base [")
    assert "]: the coadjoint image overflows at row 1, U = [" in line


@pytest.mark.parametrize("fam, pairs, radius", [("5.3.3", "5", "1e300"),
                                                ("5.3.1", "3", "8e307")])
def test_foliation_refusals_print_no_numpy_warning(run_cli, fam, pairs,
                                                   radius):
    # the membership screens of covectors near the float range overflow
    # before the refusal (in the affine product on 5.3.3, in a compiled
    # display on 5.3.1); a residual that is not finite fails its row quietly
    r = run_cli("check-foliation", "--family", fam, "--pairs", pairs,
                "--radius", radius, "--seed", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(f"error: family {fam}")


def test_non_numeric_covector_exits_2(run_cli, tmp_path):
    # from the command line, and as a config-file list holding a null, a
    # true, which float() would take as 1, or an integer float() overflows on
    cfg = tmp_path / "korbit.json"
    cfg.write_text(json.dumps({"covector": [1, None, 1, 1, 1]}))
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps({"covector": [1, True, 1, 1, 1]}))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"covector": [10**400, 1, 1, 1, 1]}))
    for rest, shown in ((("--covector", "1,1,x,1,1"), "'1,1,x,1,1'"),
                        (("--config", str(cfg)), "[1, None, 1, 1, 1]"),
                        (("--config", str(flag)), "[1, True, 1, 1, 1]"),
                        (("--config", str(big)),
                         f"[{10**400}, 1, 1, 1, 1]")):
        r = run_cli("sample-orbit", "--family", "5.3.1", "--n", "3",
                    "--seed", "1", *rest)
        assert (r.returncode, r.stderr, r.stdout) == (
            2, f"error: covector must be 5 numbers, got {shown}\n", ""), rest


@pytest.mark.parametrize("case", ["2.5", "x", ""])
def test_case_that_is_no_index_exits_2_naming_the_option(run_cli, case):
    code, out, err = run_cli("verify-props", "--family", "5.3.4", "--case",
                             case, "--n", "5", "--seed", "1")
    assert (code, out, err) == (
        2, "", "error: --case must be 'all' or a case of family 5.3.4 "
               f"(1, 2, 3, 4, 5, 6, 7, 8), got {case!r}\n")


@pytest.mark.parametrize("command,rest,key", [
    ("scan-md", ("--family", "5.3.1", "--seed", "1"), "n"),
    ("scan-md", ("--family", "5.3.1", "--seed", "1", "--n", "8"), "radius"),
    ("scan-md", ("--family", "5.3.1", "--seed", "1", "--n", "8"),
     "rank_tol"),
    ("scan-md", ("--family", "5.3.1", "--n", "8"), "seed"),
    ("verify-props", ("--family", "5.3.4", "--case", "8", "--seed", "1",
                      "--n", "5"), "rank_tol"),
    ("verify-props", ("--family", "5.3.4", "--case", "8", "--seed", "1",
                      "--n", "5"), "format"),
    ("check-foliation", ("--family", "5.3.2", "--pairs", "3", "--seed", "1"),
     "tol"),
    ("check-foliation", ("--family", "5.3.2", "--seed", "1"), "members"),
    ("classify", ("--family", "5.3.1", "--covector", "1,1,1,1,1"),
     "snap_tol"),
    ("classify", ("--family", "5.3.1", "--covector", "1,1,1,1,1"), "format"),
    ("sample-orbit", ("--family", "5.3.1", "--covector", "1,1,1,1,1",
                      "--seed", "1"), "n"),
    ("list-families", (), "format"),
])
@pytest.mark.parametrize("value", [None, [1], "abc"])
def test_config_value_of_the_wrong_type_exits_2(run_cli, tmp_path, command,
                                                rest, key, value):
    # a config value is converted like its flag; one that cannot be is a
    # usage error naming the entry, not a traceback with exit status 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(command, *rest, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config entry {key!r} must be ")
    assert err.endswith(f", got {value!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize("key,rest", [
    ("case", ("verify-props", "--family", "5.3.4", "--n", "5")),
    ("out", ("scan-md", "--family", "5.3.1", "--n", "8")),
])
@pytest.mark.parametrize("value", [None, [8], {"a": 1}, True])
def test_config_string_options_refuse_other_json_types(run_cli, tmp_path,
                                                       key, rest, value):
    # a string option takes a JSON string or number, read as its flag's text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(*rest, "--seed", "1", "--config", str(cfg))
    assert (code, out, err) == (
        2, "", f"error: config entry {key!r} must be a str value, "
               f"got {value!r}\n")


@pytest.mark.parametrize("key,value,rest", [
    ("n", 2.5, ("scan-md", "--family", "5.3.1", "--seed", "1")),
    ("seed", 1.9, ("scan-md", "--family", "5.3.1", "--n", "8")),
    ("pairs", 3.5, ("check-foliation", "--family", "5.3.2", "--seed", "1")),
    ("n", 2.7, ("sample-orbit", "--family", "5.3.1", "--covector",
                "1,1,1,1,1", "--seed", "1")),
])
def test_config_integer_options_refuse_non_integral_numbers(
        run_cli, tmp_path, key, value, rest):
    # int() would truncate the value and run n = 2 or seed 1 silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(*rest, "--config", str(cfg))
    assert (code, out, err) == (
        2, "", f"error: config entry {key!r} must be a int value, "
               f"got {value!r}\n")


def test_config_integral_float_is_its_integer(run_cli, tmp_path):
    # JSON reads 1e5 as the float 100000.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 1e5}')
    args = ("scan-md", "--family", "5.3.1", "--seed", "1")
    by_config = run_cli(*args, "--config", str(cfg))
    assert by_config == run_cli(*args, "--n", "100000")
    assert by_config[0] == 0 and json.loads(by_config[1])["n"] == 100000


@pytest.mark.parametrize("args", [
    ("list-families", "--format", "json"),
    ("classify", "--family", "5.3.8", "--params", "lambda=2,phi=0.5",
     "--covector", "1,1,0,0,3", "--snap-tol", "1e-12"),
    ("scan-md", "--family", "5.3.7", "--n", "300", "--seed", "4",
     "--radius", "3", "--rank-tol", "1e-8"),
    ("verify-props", "--family", "5.3.5", "--case", "8", "--n", "20",
     "--seed", "3", "--radius", "1.5", "--member-tol", "1e-7",
     "--tangency-tol", "1e-7", "--rank-tol", "1e-8", "--grad-tol", "1e-3"),
    ("sample-orbit", "--family", "5.3.3", "--covector", "0,0,1,1,1",
     "--n", "4", "--seed", "9", "--radius", "1.5", "--format", "json"),
    ("check-foliation", "--family", "5.3.2", "--pairs", "6", "--members",
     "7", "--seed", "12", "--radius", "1.5", "--tol", "1e-7"),
], ids=lambda args: args[0])
def test_config_entries_act_as_their_flags(run_cli, tmp_path, args):
    command, rest = args[0], args[1:]
    cfg = {flag[2:].replace("-", "_"): value
           for flag, value in zip(rest[::2], rest[1::2])}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    by_flag = run_cli(*args)
    by_config = run_cli(command, "--config", str(path))
    assert by_flag == by_config and by_flag[0] == 0 and by_flag[1]


def test_unset_options_take_the_library_defaults(run_cli):
    # the command line passes only the options it was given, so the
    # reports carry the defaults of the library signatures
    def defaults(fn, *names):
        sig = inspect.signature(fn).parameters
        return {name: sig[name].default for name in names}

    code, out, _ = run_cli("scan-md", "--family", "5.3.1", "--n", "8",
                           "--seed", "1")
    doc = json.loads(out)
    assert code == 0
    assert {k: doc[k] for k in ("radius", "rank_tol")} == defaults(
        kirillov.md_scan, "radius", "rank_tol")
    code, out, _ = run_cli("verify-props", "--family", "5.3.4", "--case",
                           "8", "--n", "5", "--seed", "1", "--format", "json")
    doc = json.loads(out)
    names = ("radius", "member_tol", "tangency_tol", "rank_tol")
    assert code == 0
    assert {k: doc[k] for k in names} == defaults(
        orbits.verify_proposition, *names)
    code, out, _ = run_cli("check-foliation", "--family", "5.3.2",
                           "--seed", "1")
    doc = json.loads(out)
    names = ("pairs", "radius", "tol")
    assert code == 0
    assert {k: doc[k] for k in names} == defaults(
        foliation.partition_check, *names)


def test_repeated_param_name_exits_2(run_cli):
    # the last value must not silently win
    r = run_cli("classify", "--family", "5.3.2", "--params",
                "lambda=2,lambda=3", "--covector", "1,1,1,1,1")
    assert (r.returncode, r.stderr, r.stdout) == (
        2, "error: parameter lambda is given more than once in "
           "'lambda=2,lambda=3'\n", "")


def test_non_finite_params_are_refused_by_name(run_cli):
    for given, line in (("lambda=inf", "parameter lambda must be finite, got inf"),
                        ("lambda=nan", "parameter lambda must be finite, got nan"),
                        ("lambda=-inf", "parameter lambda must be finite, got -inf")):
        r = run_cli("classify", "--family", "5.3.2", "--params", given,
                    "--covector", "1,1,1,1,1")
        assert (r.returncode, r.stderr, r.stdout) == (2, f"error: {line}\n",
                                                      ""), given
    # a negative non-finite value given as its own token, in any of
    # float()'s spellings, reaches the same refusal, not argparse's
    for family, given, line in (
            ("5.3.2", "-inf", "parameter lambda must be finite, got -inf"),
            ("5.3.2", "-Infinity", "parameter lambda must be finite, got -inf"),
            ("5.3.2", "-NAN", "parameter lambda must be finite, got nan"),
            ("5.3.1", "-inf,2", "parameter lambda1 must be finite, got -inf")):
        r = run_cli("classify", "--family", family, "--params", given,
                    "--covector", "1,1,1,1,1")
        assert (r.returncode, r.stderr, r.stdout) == (2, f"error: {line}\n",
                                                      ""), given


# one short run of each command
COMMAND_RUNS = {
    "list-families": (),
    "classify": ("--family", "5.3.1", "--covector", "1,1,1,1,1"),
    "scan-md": ("--family", "5.3.1", "--n", "50", "--seed", "1"),
    "verify-props": ("--family", "5.3.4", "--case", "2", "--n", "5",
                     "--seed", "1"),
    "sample-orbit": ("--family", "5.3.1", "--covector", "1,1,1,1,1",
                     "--n", "3", "--seed", "1"),
    "check-foliation": ("--family", "5.3.4", "--pairs", "3", "--members",
                        "5", "--seed", "1"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_each_command_reads_every_option_it_accepts(run_cli, monkeypatch,
                                                    command):
    # an accepted option the command never reads is silently ignored, as
    # check-foliation once did with --n; --config is read before the command
    assert sorted(COMMAND_RUNS) == sorted(cli._COMMANDS)
    seen = []
    warn_unused = cli._Options.warn_unused

    def record(opt):
        seen.append(set(opt._seen))
        warn_unused(opt)

    monkeypatch.setattr(cli._Options, "warn_unused", record)
    code, _, err = run_cli(command, *COMMAND_RUNS[command])
    assert (code, err) == (0, "")
    accepted = set(vars(cli.build_parser().parse_args([command])))
    assert seen == [accepted - {"command", "config"}]


def test_check_foliation_refuses_n(run_cli):
    # it samples --members points per chart probe; --n was once ignored
    r = run_cli("check-foliation", "--family", "5.3.1", "--pairs", "3",
                "--n", "5", "--seed", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert "unrecognized arguments: --n 5" in r.stderr


# every command once, a refusal of the package's and one of argparse's
DRIFT_RUNS = [(command, *COMMAND_RUNS[command])
              for command in sorted(COMMAND_RUNS)] + [
    ("scan-md", "--family", "5.3.4", "--rank-tol", "inf", "--seed", "3"),
    ("check-foliation", "--family", "5.3.1", "--pairs", "3", "--n", "5",
     "--seed", "1"),
]


def test_in_process_runs_match_module_runs(run_cli):
    # the in-process runner stands for `python -m korbit`: the same exit
    # status, stdout bytes and stderr. None of these runs warns: a warning
    # names another caller in-process, which the module-run test covers
    procs = [run_module(*args) for args in DRIFT_RUNS]  # run concurrently
    codes = []
    for args, proc in zip(DRIFT_RUNS, procs):
        out, err = proc.communicate()
        r = run_cli(*args)
        assert (proc.returncode, out, err.decode()) == (
            r.returncode, r.stdout.encode(), r.stderr), args
        codes.append(r.returncode)
    assert codes == [0] * len(COMMAND_RUNS) + [2, 2]


def test_parameter_past_the_float_range_in_a_config_exits_2(run_cli,
                                                            tmp_path):
    # float() raises OverflowError on a 401-digit integer; it is a domain
    # error, not a traceback with the exit status of a failed check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"lambda": 10**400}}))
    r = run_cli("classify", "--family", "5.3.2", "--covector", "1,1,1,1,1",
                "--config", str(cfg))
    assert (r.returncode, r.stderr, r.stdout) == (
        2, f"error: parameter lambda must be a real number, got {10**400}\n",
        "")
