"""Command-line driver: reports, exit codes, determinism."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

import pytest

from superint import cli

CLI = [sys.executable, "-m", "superint"]

LS_INPUT = json.dumps(
    {
        "m": 1,
        "n": 0,
        "beta": {"re": "0.5", "im": "0"},
        "bosonic": [{"re": "1", "im": "0"}],
        "fermionic": [],
    }
)

BK_INPUT = json.dumps(
    {
        "beta": {"re": "0.5", "im": "0"},
        "lambda": {"bosonic": [{"re": "0.3", "im": "0"}], "fermionic": [{"re": "0.7", "im": "0"}]},
        "mu": {"bosonic": [{"re": "0.4", "im": "0"}], "fermionic": [{"re": "0.9", "im": "0"}]},
    }
)


def run_cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600, env=env)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_ls_eval_report():
    out = run_cli("ls-eval", "--input-json", LS_INPUT)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["schema"] == "superint-report/1"
    assert doc["result"]["branch"] == "generic"
    assert doc["result"]["value"]["re"].startswith("1.2660658777520083")


def test_bk_eval_report():
    out = run_cli("bk-eval", "--input-json", BK_INPUT)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["branch"] == "generic"


def test_corrupted_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = run_cli("ls-eval", "--input", str(bad))
    assert out.returncode == 2
    out = run_cli("ls-eval", "--input", str(tmp_path / "missing.json"))
    assert out.returncode == 2
    out = run_cli("ls-eval", "--input-json", '{"m": 1}')
    assert out.returncode == 2


def assert_input_error(out):
    assert out.returncode == 2
    assert out.stderr.startswith("input error:")
    assert out.stderr.strip().count("\n") == 0


@pytest.mark.parametrize("where", ["bosonic", "beta"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_scalar_exits_2(where, bad):
    doc = json.loads(LS_INPUT)
    if where == "beta":
        doc["beta"]["re"] = bad
    else:
        doc["bosonic"][0]["re"] = bad
    assert_input_error(run_cli("ls-eval", "--input-json", json.dumps(doc)))


@pytest.mark.parametrize("bits", [8, -5])
def test_low_precision_scalar_exits_2(bits):
    doc = json.loads(LS_INPUT)
    doc["bosonic"][0]["bits"] = bits
    assert_input_error(run_cli("ls-eval", "--input-json", json.dumps(doc)))


def test_truncation_cap_exits_3():
    big = json.dumps(
        {
            "m": 1,
            "n": 0,
            "beta": {"re": "1", "im": "0"},
            "bosonic": [{"re": "90000", "im": "0"}],
            "fermionic": [],
        }
    )
    out = run_cli("ls-eval", "--input-json", big, "--trunc-cap", "16")
    assert out.returncode == 3


def test_huge_argument_exits_3():
    # w = beta^2 lambda = 2.5e99999: every term of the kernel grows through the cap
    doc = json.loads(LS_INPUT)
    doc["bosonic"] = [{"re": "1e100000", "im": "0"}]
    out = run_cli("ls-eval", "--input-json", json.dumps(doc))
    assert out.returncode == 3
    assert "did not converge within 512 terms" in out.stderr


def test_conjecture_verify_pass_and_exit_codes():
    out = run_cli("conjecture-verify", "--N", "2", "--m", "1", "--samples", "3")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["status"] == "pass"
    assert sha256(out.stdout) == "9e59c2e7091be305bf338668e1eeb8de6a1ae8b2da3ab3aa07b503551e285065"
    out = run_cli("conjecture-verify", "--N", "3", "--samples", "2", "--trunc-cap", "8")
    assert out.returncode == 3


def test_conjecture_verify_jobs_do_not_change_report(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("conjecture-verify", "--N", "3", "--samples", "2", "--jobs", "1", "--json-out", str(a))
    run_cli("conjecture-verify", "--N", "3", "--samples", "2", "--jobs", "2", "--json-out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_lr_check():
    out = run_cli("lr-check", "--max-boxes", "4", "--m", "1", "--n", "1")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["status"] == "pass"
    assert all(r["residual"] == "0" for r in doc["results"])
    assert sha256(out.stdout) == "f8912366d0f0977b809d7a21dd040ebbcefa5a34f8c0f43741ed64b250d985a5"


def test_strninxi_check():
    out = run_cli("strninxi-check", "--m", "1", "--n", "1", "--max-boxes", "4")
    assert out.returncode == 0
    assert json.loads(out.stdout)["status"] == "pass"
    assert sha256(out.stdout) == "be52208bf405bd592a1376d91705ecde60d00dfbe30ec879cc713141911d577e"


def test_theorems_check():
    out = run_cli("theorems-check", "--N", "4")
    assert out.returncode == 0
    assert json.loads(out.stdout)["status"] == "pass"
    assert sha256(out.stdout) == "92de4d0631635d589f87c89b6c5608bc3907a0f37e345ecc8efcd834df698d25"


def test_appendix_e_verify():
    out = run_cli("appendix-e-verify")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"]["block_1_1"]["pass"]
    assert doc["results"]["block_2_1"]["pass"]
    assert sha256(out.stdout) == "a55b09b870ab70b3dac8e8bf31857928aa7d7e09477d0bcfd062cbe82c71366d"


@pytest.mark.parametrize(
    "argv",
    [
        ["theorems-check", "--N", "0"],
        ["lr-check", "--m", "-1"],
        ["lr-check", "--max-boxes", "-1"],
        ["strninxi-check", "--max-boxes", "-3"],
        ["conjecture-verify", "--N", "2", "--samples", "0"],
        ["conjecture-verify", "--N", "2", "--samples", "-1"],
        ["conjecture-verify", "--N", "0"],
        ["conjecture-verify", "--N", "2", "--radius", "-1"],
    ],
)
def test_out_of_domain_check_arguments_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration:")
    assert captured.err.strip().count("\n") == 0


@pytest.mark.parametrize(
    "argv,workers",
    [
        (["--N", "2", "--jobs", "500"], [2]),  # two block sizes: two workers, not 500
        (["--N", "2", "--m", "1", "--jobs", "4"], []),  # one task runs in this process
    ],
)
def test_jobs_capped_at_task_count(argv, workers, monkeypatch, capsys):
    started = []

    class RecordingExecutor:
        """Records the worker count it is asked for and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # replace every binding of the executor, so no worker process can start
    package = [mod for name, mod in sys.modules.items() if name.startswith("superint")]
    for mod in [concurrent.futures, *package]:
        if hasattr(mod, "ProcessPoolExecutor"):
            monkeypatch.setattr(mod, "ProcessPoolExecutor", RecordingExecutor)
    assert cli.main(["conjecture-verify", "--samples", "1", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert started == workers


def test_env_var_precision_override():
    out = subprocess.run(
        CLI + ["ls-eval", "--input-json", LS_INPUT],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "SUPERGROUP_PREC_BITS": "128"},
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["config"]["precision_bits"] == 128


def test_malformed_env_var_precision_exits_2():
    env = {**os.environ, "SUPERGROUP_PREC_BITS": "abc"}
    out = run_cli("ls-eval", "--input-json", LS_INPUT, env=env)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.strip().count("\n") == 0
    assert "SUPERGROUP_PREC_BITS" in out.stderr
    # an explicit flag wins over the malformed default
    out = run_cli("ls-eval", "--input-json", LS_INPUT, "--prec-bits", "128", env=env)
    assert out.returncode == 0
    assert json.loads(out.stdout)["config"]["precision_bits"] == 128


def test_usage_error_exits_2():
    out = run_cli("no-such-command")
    assert out.returncode == 2
    out = run_cli("conjecture-verify")  # missing required --N
    assert out.returncode == 2
