import inspect
import json
import os
import subprocess
import sys

import pytest

from korbit import cli, foliation, kirillov, orbits


def run_cli(*args, env_extra=None, flags=()):
    env = os.environ.copy()
    env.pop("KORBIT_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *flags, "-m", "korbit", *args],
                          capture_output=True, text=True, env=env)


def test_list_families_text():
    r = run_cli("list-families")
    assert r.returncode == 0
    for tag in ("5.3.1", "5.3.4", "5.3.8"):
        assert tag in r.stdout


def test_list_families_json():
    r = run_cli("list-families", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["families"]) == 8


def test_classify_text_and_json():
    r = run_cli("classify", "--family", "5.3.1", "--params", "2,3",
                "--covector", "0,0,1,1,1")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "case 8, cylinder, dim 2"
    r = run_cli("classify", "--family", "5.3.1", "--params", "2,3",
                "--covector", "0,0,1,1,1", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["case"] == 8 and doc["dim"] == 2


def test_classify_named_params():
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
def test_negative_values_in_either_spelling(command, rest):
    # '--params -2,0.5' starts like an option; it must read as '--params=...'
    spaced = [command, "--family", "5.3.1", "--params", "-2,0.5", *rest]
    joined = (" ".join(spaced).replace("--params ", "--params=")
              .replace("--covector ", "--covector=").split())
    a = run_cli(*spaced)
    b = run_cli(*joined)
    assert a.stderr == b.stderr == ""
    assert a.returncode == b.returncode and a.returncode in (0, 1)
    assert a.stdout == b.stdout and a.stdout


def test_usage_errors_exit_2():
    assert run_cli("classify", "--family", "5.3.9",
                   "--covector", "0,0,1,1,1").returncode == 2
    assert run_cli("classify", "--family", "5.3.1",
                   "--covector", "1,2,3").returncode == 2
    assert run_cli("classify", "--family", "5.3.1", "--params", "1.0,3.0",
                   "--covector", "0,0,1,1,1").returncode == 2
    assert run_cli("no-such-command").returncode == 2


def test_stochastic_commands_require_seed():
    for cmd in (("scan-md", "--family", "5.3.1"),
                ("verify-props", "--family", "5.3.1"),
                ("sample-orbit", "--family", "5.3.1",
                 "--covector", "0,0,1,1,1"),
                ("check-foliation", "--family", "5.3.1")):
        r = run_cli(*cmd)
        assert r.returncode == 2
        assert "seed" in r.stderr


def test_scan_md_json_and_exit():
    r = run_cli("scan-md", "--family", "5.3.6", "--n", "2000", "--seed", "5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc["histogram"]) <= {"0", "2"}
    assert doc["violations"] == []
    assert doc["passed"] is True


def test_verify_props_text_pass():
    r = run_cli("verify-props", "--family", "5.3.4", "--n", "60",
                "--seed", "3")
    assert r.returncode == 0
    assert "all cases passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_verify_props_json_single_case():
    r = run_cli("verify-props", "--family", "5.3.5", "--case", "8",
                "--n", "60", "--seed", "3", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["provenance"][0]["adopted"] == "corrected"


def test_vacuous_sample_counts_exit_2():
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


def test_sample_orbit_csv():
    r = run_cli("sample-orbit", "--family", "5.3.3", "--covector",
                "0,0,1,1,1", "--n", "4", "--seed", "9")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "x,y,z,t,s"
    assert len(lines) == 5
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_sample_orbit_zero_rows():
    r = run_cli("sample-orbit", "--family", "5.3.3", "--covector",
                "0,0,1,1,1", "--n", "0", "--seed", "9")
    assert r.returncode == 0
    assert r.stdout == "x,y,z,t,s\n"


def test_check_foliation_json():
    r = run_cli("check-foliation", "--family", "5.3.2", "--pairs", "10",
                "--members", "15", "--seed", "12")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert set(doc["local_triviality"]) == {str(c) for c in range(2, 9)}
    assert all(doc["local_triviality"].values())


def test_reruns_are_byte_identical_and_thread_env_neutral():
    args = ("scan-md", "--family", "5.3.7", "--n", "5000", "--seed", "31")
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, env_extra={"KORBIT_THREADS": "8"})
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_invalid_thread_env_exits_2():
    r = run_cli("scan-md", "--family", "5.3.1", "--n", "100", "--seed", "1",
                env_extra={"KORBIT_THREADS": "abc"})
    assert r.returncode == 2
    r = run_cli("scan-md", "--family", "5.3.1", "--n", "100", "--seed", "1",
                env_extra={"KORBIT_THREADS": "0"})
    assert r.returncode == 2


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "n": 600, "family": "5.3.2"}))
    r = run_cli("scan-md", "--config", str(cfg))
    assert r.returncode == 0
    assert json.loads(r.stdout)["n"] == 600
    r = run_cli("scan-md", "--config", str(cfg), "--n", "400")
    assert json.loads(r.stdout)["n"] == 400


def test_config_unknown_key_warns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "n": 200, "family": "5.3.2",
                               "typo_key": 1}))
    r = run_cli("scan-md", "--config", str(cfg))
    assert r.returncode == 0
    assert "typo_key" in r.stderr


def test_out_file_writes_payload(tmp_path):
    out = tmp_path / "scan.json"
    r = run_cli("scan-md", "--family", "5.3.1", "--n", "800", "--seed", "2",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "5.3.1"


def test_family_all_scan():
    r = run_cli("scan-md", "--family", "all", "--n", "400", "--seed", "8")
    assert r.returncode == 0
    docs = json.loads(r.stdout)
    assert [d["family"] for d in docs] == ["5.3.1", "5.3.2", "5.3.3", "5.3.4",
                                           "5.3.5", "5.3.6", "5.3.7", "5.3.8"]


def test_degenerate_params_warning_goes_to_stderr():
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
    r = run_cli("verify-props", "--family", "5.3.3", "--params", "0",
                "--case", "2", "--n", "5", "--seed", "1", flags=flags)
    assert r.returncode == 0
    lines = [ln for ln in r.stderr.splitlines() if "ParameterWarning:" in ln]
    assert len(lines) == 1 and "<frozen" not in lines[0], r.stderr
    where = lines[0].split(": ParameterWarning:")[0]
    path, line = where.rsplit(":", 1)
    assert os.path.samefile(
        path, os.path.join(os.path.dirname(cli.__file__), "__main__.py"))
    with open(path) as f:
        source = f.read().splitlines()[int(line) - 1]
    assert "entry()" in source
    assert "entry()" in r.stderr


def test_overflowing_motion_exits_2():
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
def test_radius_with_an_overflowing_cube_exits_2(args):
    # the cube [-1e308, 1e308] is wider than the float range
    r = run_cli(*args, "--radius", "1e308", "--seed", "1")
    assert (r.returncode, r.stderr, r.stdout) == (
        2, "error: sampling radius 1e+308 is too large: the cube width "
           "2*radius exceeds the float range\n", "")


def test_probe_overflow_exits_2_naming_the_pair():
    r = run_cli("check-foliation", "--family", "5.3.1", "--pairs", "3",
                "--radius", "8e307", "--seed", "1")
    # numpy's overflow warnings come first; the refusal is the last line
    line = r.stderr.splitlines()[-1]
    assert r.returncode == 2 and r.stdout == ""
    assert line.startswith("error: family 5.3.1, pair 0, base [")
    assert "]: the coadjoint image overflows at row 1, U = [" in line


def test_non_numeric_covector_exits_2(tmp_path):
    # from the command line, and as a config-file list holding a null
    cfg = tmp_path / "korbit.json"
    cfg.write_text(json.dumps({"covector": [1, None, 1, 1, 1]}))
    for rest, shown in ((("--covector", "1,1,x,1,1"), "'1,1,x,1,1'"),
                        (("--config", str(cfg)), "[1, None, 1, 1, 1]")):
        r = run_cli("sample-orbit", "--family", "5.3.1", "--n", "3",
                    "--seed", "1", *rest)
        assert (r.returncode, r.stderr, r.stdout) == (
            2, f"error: covector must be 5 numbers, got {shown}\n", ""), rest


def run_in_process(capsys, *args):
    code = cli.entry(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", ["2.5", "x", ""])
def test_case_that_is_no_index_exits_2_naming_the_option(capsys, case):
    code, out, err = run_in_process(capsys, "verify-props", "--family",
                                    "5.3.4", "--case", case, "--n", "5",
                                    "--seed", "1")
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
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command,
                                                rest, key, value):
    # a config value is converted like its flag; one that cannot be is a
    # usage error naming the entry, not a traceback with exit status 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_in_process(capsys, command, *rest,
                                    "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config entry {key!r} must be ")
    assert err.endswith(f", got {value!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize("key,rest", [
    ("case", ("verify-props", "--family", "5.3.4", "--n", "5")),
    ("out", ("scan-md", "--family", "5.3.1", "--n", "8")),
])
@pytest.mark.parametrize("value", [None, [8], {"a": 1}, True])
def test_config_string_options_refuse_other_json_types(tmp_path, capsys,
                                                       key, rest, value):
    # a string option takes a JSON string or number, read as its flag's text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_in_process(capsys, *rest, "--seed", "1",
                                    "--config", str(cfg))
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
        tmp_path, capsys, key, value, rest):
    # int() would truncate the value and run n = 2 or seed 1 silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_in_process(capsys, *rest, "--config", str(cfg))
    assert (code, out, err) == (
        2, "", f"error: config entry {key!r} must be a int value, "
               f"got {value!r}\n")


def test_config_integral_float_is_its_integer(tmp_path, capsys):
    # JSON reads 1e5 as the float 100000.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 1e5}')
    args = ("scan-md", "--family", "5.3.1", "--seed", "1")
    by_config = run_in_process(capsys, *args, "--config", str(cfg))
    assert by_config == run_in_process(capsys, *args, "--n", "100000")
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
def test_config_entries_act_as_their_flags(tmp_path, capsys, args):
    command, rest = args[0], args[1:]
    cfg = {flag[2:].replace("-", "_"): value
           for flag, value in zip(rest[::2], rest[1::2])}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    by_flag = run_in_process(capsys, *args)
    by_config = run_in_process(capsys, command, "--config", str(path))
    assert by_flag == by_config and by_flag[0] == 0 and by_flag[1]


def test_unset_options_take_the_library_defaults(capsys):
    # the command line passes only the options it was given, so the
    # reports carry the defaults of the library signatures
    def defaults(fn, *names):
        sig = inspect.signature(fn).parameters
        return {name: sig[name].default for name in names}

    code, out, _ = run_in_process(capsys, "scan-md", "--family", "5.3.1",
                                  "--n", "8", "--seed", "1")
    doc = json.loads(out)
    assert code == 0
    assert {k: doc[k] for k in ("radius", "rank_tol")} == defaults(
        kirillov.md_scan, "radius", "rank_tol")
    code, out, _ = run_in_process(capsys, "verify-props", "--family",
                                  "5.3.4", "--case", "8", "--n", "5",
                                  "--seed", "1", "--format", "json")
    doc = json.loads(out)
    names = ("radius", "member_tol", "tangency_tol", "rank_tol")
    assert code == 0
    assert {k: doc[k] for k in names} == defaults(
        orbits.verify_proposition, *names)
    code, out, _ = run_in_process(capsys, "check-foliation", "--family",
                                  "5.3.2", "--seed", "1")
    doc = json.loads(out)
    names = ("pairs", "radius", "tol")
    assert code == 0
    assert {k: doc[k] for k in names} == defaults(
        foliation.partition_check, *names)


def test_non_finite_params_are_refused_by_name():
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
