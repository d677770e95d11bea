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
                 ("scan-md", "--family", "5.3.4", "--radius", "-1")):
        r = run_cli(*args, "--seed", "3")
        assert r.returncode == 2, args
        assert r.stderr.startswith("error: ") and r.stdout == ""


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
