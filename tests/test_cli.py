"""Command-line driver: reports, exit codes, determinism."""

import concurrent.futures
import hashlib
import json
import os
import pkgutil
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

import superint
from superint import BigComplex, Precision, cli
from superint.precision import MAX_BITS, read_decimal

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


def test_ls_eval_zero_beta_negative_power():
    # (2|0) has beta^-1 in front of a determinant that vanishes at beta = 0: it
    # exited 1 with a ZeroDivisionError traceback, and the value is the mass, 1
    doc = {"beta": {"re": "0"}, "bosonic": [{"re": "1"}, {"re": "2"}], "fermionic": []}
    out = run_cli("ls-eval", "--input-json", json.dumps(doc))
    assert out.returncode == 0 and "Traceback" not in out.stderr
    assert json.loads(out.stdout)["result"]["value"] == {"bits": 256, "im": "0.0", "re": "1.0"}


def test_bk_eval_clustered_values():
    # four fermionic values 1e-20 apart in each set: the plain division printed
    # 1.336e+36 here with exit 0; the Newton columns give the 4000-bit value
    from fractions import Fraction

    from mpmath import mp, mpf

    from oracles import bk_division_reference

    lam = ["0.5", "0.50000000000000000001", "0.50000000000000000002", "0.50000000000000000003"]
    mu = ["0.3", "0.30000000000000000001", "0.30000000000000000002", "0.30000000000000000003"]
    doc = {
        "beta": {"re": "0.5"},
        "lambda": {"bosonic": [], "fermionic": [{"re": v} for v in lam]},
        "mu": {"bosonic": [], "fermionic": [{"re": v} for v in mu]},
    }
    out = run_cli("bk-eval", "--input-json", json.dumps(doc))
    assert out.returncode == 0
    result = json.loads(out.stdout)["result"]
    assert result["branch"] == "generic" and result["warnings"] == []
    assert result["value"]["re"].startswith("1.0382")
    with mp.workprec(256):
        lam_f, mu_f = [mpf(v) for v in lam], [mpf(v) for v in mu]
    with mp.workprec(4000):
        want = bk_division_reference(([], lam_f), ([], mu_f), Fraction(1, 2))
        got = mpf(result["value"]["re"])
        assert abs(got - want) <= abs(want) * mpf(2) ** -(256 - 8)



@pytest.mark.parametrize(
    "command,document",
    [
        ("ls-eval", {"beta": {"re": "0.5"}, "bosonic": [], "fermionic": []}),
        ("bk-eval", {"beta": {"re": "0.5"}, "lambda": {"bosonic": [], "fermionic": []}, "mu": {}}),
    ],
)
def test_empty_eigenvalue_sets_print_one(command, document, capsys):
    # the U(0|0) integral is 1: ls-eval exited 2 ("need at least one eigenvalue")
    assert cli.main([command, "--input-json", json.dumps(document)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["branch"] == "generic"
    assert result["value"] == {"bits": 256, "im": "0.0", "re": "1.0"}

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


@pytest.mark.parametrize(
    "command, change",
    [
        ("ls-eval", {"beta": 0.5}),
        ("ls-eval", {"bosonic": {"re": "1"}}),
        ("bk-eval", {"lambda": {"bosonic": [5]}}),
        ("ls-eval", {"beta": {"re": "0.5", "bits": float("inf")}}),
        ("ls-eval", {"m": 1.9}),
        ("ls-eval", {"beta": {"re": "0.5", "bits": 300.7}}),
        ("bk-eval", {"mu": {"n": 1.5, "bosonic": [{"re": "0.4"}], "fermionic": [{"re": "0.9"}]}}),
        ("ls-eval", {"m": True}),
    ],
)
def test_malformed_eigenvalue_document_exits_2(command, change):
    # a scalar that is not an object, a sector that is not a list, and bits,
    # m or n that are no integer (int() would truncate 1.9 and 300.7, and
    # int(True) == True would read true as 1)
    doc = json.loads(LS_INPUT if command == "ls-eval" else BK_INPUT)
    assert_input_error(run_cli(command, "--input-json", json.dumps({**doc, **change})))


def test_bk_eval_sets_of_different_shapes_are_an_input_error(capsys):
    # the shapes were first compared by bk_closed_form, whose ValueError read as a bad flag
    doc = {"beta": {"re": "0.5"}, "lambda": {"bosonic": [{"re": "0.3"}]}, "mu": {"bosonic": [{"re": "0.4"}, {"re": "0.5"}]}}
    assert cli.main(["bk-eval", "--input-json", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: bad eigenvalue document: the two eigenvalue sets must share (m, n)\n"


@pytest.mark.parametrize("where", ["beta", "bosonic"])
def test_bits_above_the_bound_are_an_input_error_at_once(where, capsys):
    # refused before the digits are parsed; a 1e8-bit beta kept ls-eval busy for minutes
    doc = json.loads(LS_INPUT)
    (doc["beta"] if where == "beta" else doc["bosonic"][0])["bits"] = MAX_BITS + 1
    start = time.perf_counter()
    assert cli.main(["ls-eval", "--input-json", json.dumps(doc)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == f"input error: bad eigenvalue document: precision must be at most {MAX_BITS} bits\n"


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


def test_default_cap_grows_with_the_bits(capsys):
    # I0(1) at 16384 bits takes 881 terms; a fixed default cap of 512 exited 3
    assert cli.main(["ls-eval", "--prec-bits", "16384", "--input-json", LS_INPUT]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["truncation_cap"] == (16384 + 32) // 8
    assert report["result"]["terms_used"] == 881
    got = read_decimal(report["result"]["value"]["re"], 16384)  # mpf(str) reads at most 4300 digits
    with mp.workprec(16384 + 64):
        assert abs(got - mp.besseli(0, 1)) <= mpf(2) ** -(16384 - 8)
    # an explicit cap still wins
    assert cli.main(["ls-eval", "--prec-bits", "16384", "--trunc-cap", "512", "--input-json", LS_INPUT]) == 3


def test_a_record_of_the_most_bits_reads_back(capsys):
    # its 19732 digits passed the 4300 that int() reads from a string; the echo
    # prints the record as read, at its own bits
    with mp.workprec(MAX_BITS):
        value = BigComplex(mp.sqrt(2) - 1, -mp.pi, bits=MAX_BITS).to_json()
    doc = {"beta": {"re": "0.5"}, "bosonic": [value], "fermionic": []}
    assert cli.main(["ls-eval", "--prec-bits", "64", "--input-json", json.dumps(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["input"]["bosonic"] == [value]


def test_an_over_long_number_string_exits_2_at_once(capsys):
    doc = {"beta": {"re": "0.5"}, "bosonic": [{"re": "1." + "3" * 10**6}], "fermionic": []}
    start = time.perf_counter()
    assert cli.main(["ls-eval", "--input-json", json.dumps(doc)]) == 2
    assert time.perf_counter() - start < 1
    assert "at most 40000 characters" in capsys.readouterr().err


def test_conjecture_verify_pass_and_exit_codes():
    out = run_cli("conjecture-verify", "--N", "2", "--m", "1", "--samples", "3")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["status"] == "pass"
    assert sha256(out.stdout) == "9e59c2e7091be305bf338668e1eeb8de6a1ae8b2da3ab3aa07b503551e285065"
    out = run_cli("conjecture-verify", "--N", "3", "--samples", "2", "--trunc-cap", "8")
    assert out.returncode == 3


def test_conjecture_verify_every_m_report():
    # without --m the report holds every block size m of one N, which share the draws and series tables
    out = run_cli("conjecture-verify", "--N", "4", "--samples", "3")
    assert out.returncode == 0
    assert json.loads(out.stdout)["status"] == "pass"
    assert sha256(out.stdout) == "a3baccb5584a3a3557d2d53d7257e5fa0c19319707f1b8edc6d978b7a3f57901"


def test_conjecture_verify_jobs_do_not_change_report(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("conjecture-verify", "--N", "3", "--samples", "2", "--jobs", "1", "--json-out", str(a))
    run_cli("conjecture-verify", "--N", "3", "--samples", "2", "--jobs", "2", "--json-out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_every_m_at_the_largest_N_draws_and_tabulates_each_sample_once(capsys):
    # one sample past 10 used to evict every draw and table of 100-entry caches
    # between block sizes: 1100, 1100 and 110 misses at 11 samples, not 110, 110 and 11
    from superint import conjecture

    conjecture.clear_series_memo()
    assert cli.main(["conjecture-verify", "--N", "10", "--samples", "11"]) == 0
    assert sha256(capsys.readouterr().out) == "faac5017e92f73045f53f205db9f9a61fefcf33c4376d319fb3794231292fa3c"
    caches = (conjecture._draw, conjecture._series_tables, conjecture._j0_value)
    assert [c.cache_info().misses for c in caches] == [110, 110, 11]


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    assert cli.main(["lr-check", "--max-boxes", "1", "--json-out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write report: ")
    assert captured.err.strip().count("\n") == 0
    assert not path.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_report_path_is_refused_before_any_check(where, tmp_path, monkeypatch, capsys):
    # the whole selftest would run first if the path were only tried at the end
    from superint import acceptance

    calls = []
    monkeypatch.setattr(acceptance, "_timed", lambda *args: calls.append(args))
    path = tmp_path / "missing" / "out.json" if where == "missing directory" else tmp_path
    assert cli.main(["selftest", "--jobs", "2", "--json-out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write report: ")
    assert captured.err.strip().count("\n") == 0
    assert calls == []


def test_existing_report_is_kept_when_the_run_fails(tmp_path, capsys):
    report = tmp_path / "out.json"
    report.write_text("earlier report\n")
    assert cli.main(["ls-eval", "--input-json", '{"m": 1}', "--json-out", str(report)]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert report.read_text() == "earlier report\n"


def test_report_write_failure_after_the_run_exits_2(tmp_path, monkeypatch, capsys):
    # the early look can pass and the write still fail; that too exits 2
    monkeypatch.setattr(cli, "_report_path_error", lambda path: None)
    path = tmp_path / "missing" / "out.json"
    assert cli.main(["lr-check", "--max-boxes", "1", "--json-out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write report: ")
    assert not path.exists()


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
        ["conjecture-verify", "--N", "2", "--radius", "1/0"],
        ["lr-check", "--trunc-cap", "1"],
        ["lr-check", "--prec-bits", "10"],
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
        (["--N", "2", "--samples", "2", "--jobs", "500"], [2]),  # two samples: two workers, not 500
        (["--N", "2", "--samples", "1", "--jobs", "4"], []),  # every m of one sample runs in this process
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
    assert cli.main(["conjecture-verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert started == workers


COMMON = ["--prec-bits", "128", "--trunc-cap", "64", "--seed", "7", "--jobs", "2"]
SETTINGS = {"prec": Precision(bits=128, truncation_cap=64), "seed": 7, "jobs": 2}

# each suite command: its own flags on the command line, the acceptance check
# it runs, that check's positional settings and the flags' values as reported
SUITES = [
    ("conjecture-verify", ["--N", "3", "--m", "1"], "conjecture_check", ("seed", "prec", "jobs"),
     {"N": 3, "m": 1, "samples": 10, "radius": "2"}),
    ("lr-check", ["--max-boxes", "4"], "lr_check", (), {"m": 2, "n": 2, "max_boxes": 4}),
    ("strninxi-check", ["--n", "1"], "supertrace_check", ("seed",), {"m": 2, "n": 1, "max_boxes": 6}),
    ("appendix-e-verify", [], "haar_check", ("seed", "prec"), {}),
    ("theorems-check", [], "theorems_check", ("seed",), {"N": 5}),
    ("selftest", [], "selftest", ("seed", "prec", "jobs"), {}),
]


@pytest.mark.parametrize("command,argv,check,positional,flags", SUITES)
def test_suite_config_holds_settings_own_flags_and_echo(command, argv, check, positional, flags, monkeypatch, capsys):
    from superint import acceptance

    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return True, {}, {"echo": check}

    monkeypatch.setattr(acceptance, check, stub)
    assert cli.main([command, *argv, *COMMON]) == 0
    assert calls == [(tuple(SETTINGS[name] for name in positional), flags)]
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"precision_bits": 128, "truncation_cap": 64, "seed": 7, **flags, "echo": check}


@pytest.mark.parametrize("command,document", [("ls-eval", LS_INPUT), ("bk-eval", BK_INPUT)])
def test_evaluator_config_holds_settings_and_input_echo(command, document, capsys):
    assert cli.main([command, "--input-json", document, *COMMON]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert set(config) == {"precision_bits", "truncation_cap", "seed", "input"}
    assert (config["precision_bits"], config["truncation_cap"], config["seed"]) == (128, 64, 7)


@pytest.mark.parametrize(
    "argv,env_bits",
    [
        (["--jobs", "0"], None),
        (["--prec-bits", "10"], None),
        (["--trunc-cap", "1"], None),
        ([], "abc"),
        (["--prec-bits", str(MAX_BITS + 1)], None),
        ([], str(MAX_BITS + 1)),
    ],
)
@pytest.mark.parametrize("command", ["ls-eval", "bk-eval"])
def test_bad_settings_exit_2_before_the_input_is_read(command, argv, env_bits, tmp_path, monkeypatch, capsys):
    if env_bits is None:
        monkeypatch.delenv(cli.PREC_BITS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.PREC_BITS_ENV, env_bits)
    assert cli.main([command, "--input", str(tmp_path / "missing.json"), *argv]) == 2
    assert capsys.readouterr().err.startswith("invalid configuration:")


# runs `python -m superint <argv>` and then prints every loaded module's name
IMPORT_PROBE = """
import runpy, sys
sys.argv[0] = "superint"
try:
    runpy.run_module("superint", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv", [["ls-eval", "--input-json", LS_INPUT], ["bk-eval", "--input-json", BK_INPUT]])
def test_evaluator_process_imports_no_verification_code(argv, tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv, "--json-out", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads((tmp_path / "report.json").read_text())["result"]["branch"] == "generic"
    loaded = set(out.stdout.split())
    # none of acceptance, conjecture, grassmann, bruteforce, schur, partitions
    package = {name for name in loaded if name.startswith("superint")}
    assert package == {"superint", "superint.cli", "superint.errors", "superint.integrals", "superint.precision"}
    # nor multiprocessing, nor dataclasses with the inspect, ast and dis it imports
    assert not {"multiprocessing", "dataclasses", "inspect"} & loaded


def test_no_module_of_the_package_imports_dataclasses():
    # every value class is a Slotted class: importing all of superint, the
    # verification modules included, loads neither dataclasses nor the inspect
    # it imports; the submodules are listed here, as pkgutil imports inspect
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    modules = sorted(m.name for m in pkgutil.iter_modules(superint.__path__) if m.name != "__main__")
    assert {"acceptance", "bruteforce", "conjecture", "grassmann", "partitions", "schur"} <= set(modules)
    probe = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module("superint." + name)
print(" ".join(sys.modules))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe, *modules],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert {f"superint.{name}" for name in modules} <= loaded
    assert not {"dataclasses", "inspect"} & loaded


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
