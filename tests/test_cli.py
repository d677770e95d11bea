import json
import os
import subprocess
import sys

import pytest


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("KORBIT_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "korbit", *args],
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
    # a negative number given as its own token, in exponent notation too,
    # reaches the package's refusal, not argparse's "expected one argument"
    for args, line in (
            (("classify", "--family", "5.3.1", "--covector", "1,1,1,1,1",
              "--snap-tol", "-1e-3"),
             "snap_tol must be finite and nonnegative, got -0.001"),
            (("verify-props", "--family", "5.3.4", "--grad-tol", "-1e-4",
              "--seed", "3"),
             "grad_tol must be finite and positive, got -0.0001"),
            (("check-foliation", "--family", "5.3.2", "--tol", "-1e-8",
              "--seed", "3"),
             "partition tolerance must be finite and positive, got -1e-08"),
            (("scan-md", "--family", "5.3.4", "--rank-tol", "-1e-9",
              "--seed", "3"),
             "rank tolerance must be positive"),
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
