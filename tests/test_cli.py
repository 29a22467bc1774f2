import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import parse_rlt_lp, parse_sdpa, solve_rlt

DW = {
    "n": 1,
    "variables": "continuous",
    "f": [0.5],
    "terms": [{"kind": "quartic", "alpha": 1, "beta": -2, "factor": [[1]]}],
}
QIP = {"qip": {"Q": [[0, 1], [1, 0]], "f": [3, 0]}}
QIP0 = {"qip": {"Q": [[0, 1], [1, 0]], "f": [0, 0]}}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "canondual", *args],
        capture_output=True, text=True, timeout=600,
    )


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_double_well_exit_zero(tmp_path):
    res = run_cli("solve", write(tmp_path, "dw.json", DW))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)["payload"]
    report = payload["report"]
    assert report["triality_class"] == "global_min"
    # perfbench/gate.py requires exactly this float of the README well
    assert report["x_bar"] == [2.1149075414767558]


def test_solve_qip_certified(tmp_path):
    res = run_cli("solve", write(tmp_path, "q.json", QIP))
    assert res.returncode == 0
    report = json.loads(res.stdout)["payload"]["report"]
    assert report["certificate"] == "dual_certified"
    assert report["x_star"] == [1.0, -1.0]


def test_solve_symmetric_qip_heuristic_exit(tmp_path):
    res = run_cli("solve", write(tmp_path, "q0.json", QIP0), "--perturb", "--seed", "3")
    assert res.returncode == 2
    report = json.loads(res.stdout)["payload"]["report"]
    assert report["certificate"] == "perturbation_only"
    assert tuple(report["x_star"]) in {(1.0, -1.0), (-1.0, 1.0)}


def test_sign_solve_ignores_the_perturbation_flags(tmp_path):
    # a sign problem runs no perturbation round, so the flags that steer the
    # rounds leave its payload as it is (the echoed config records them)
    path = write(tmp_path, "q0.json", QIP0)
    plain = run_cli("solve", path)
    assert plain.returncode == 2
    for flags in (("--seed", "3"), ("--perturb", "--delta0", "0.5", "--seed", "7")):
        res = run_cli("solve", path, *flags)
        assert res.returncode == 2
        assert json.loads(res.stdout)["payload"] == json.loads(plain.stdout)["payload"]


def test_solve_symmetric_well_ends_on_the_boundary_or_in_the_rounds(tmp_path):
    # f = 0: the plain solve ends on the boundary; --perturb runs the rounds
    # to one of the two minima, x = +-2, with the same bytes on every run
    path = write(tmp_path, "dw0.json", dict(DW, f=[0.0]))
    plain = run_cli("solve", path)
    assert plain.returncode == 2
    assert json.loads(plain.stdout)["payload"]["report"]["status"] == "boundary"
    runs = [run_cli("solve", path, "--perturb") for _ in range(2)]
    assert [res.returncode for res in runs] == [2, 2]
    assert runs[0].stdout == runs[1].stdout
    report = json.loads(runs[0].stdout)["payload"]["report"]
    assert report["status"] == "perturbation" and report["perturb_rounds"] > 0
    assert abs(report["x_bar"][0]) == pytest.approx(2.0, abs=1e-9)


def test_solve_perturb_with_zero_rounds_reports_the_plain_solve(tmp_path):
    # no round runs, so the plain solve's boundary answer is reported
    path = write(tmp_path, "dw0.json", dict(DW, f=[0.0]))
    config = write(tmp_path, "config.json", {"max_perturb_rounds": 0})
    res = run_cli("solve", path, "--perturb", "--config", config)
    assert res.returncode == 2, res.stderr
    report = json.loads(res.stdout)["payload"]["report"]
    assert report == json.loads(run_cli("solve", path).stdout)["payload"]["report"]
    assert report["status"] == "boundary" and report["perturb_rounds"] == 0


def _plain(alpha, f, *terms):
    """A continuous document of a plain term alpha |x|^2 / 2 and ``terms``."""
    plain = {"kind": "plain_quadratic", "alpha": alpha, "factor": np.eye(len(f)).tolist()}
    return {"n": len(f), "variables": "continuous", "f": f, "terms": [plain, *terms]}


# a plain term alone has no dual coordinate: G is the plain block, here -I
NO_COORDINATE = _plain(-1, [0.5, 0.1])


@pytest.mark.parametrize("doc, code", [
    # the rounds' ridge never makes G = -I definite: no solve succeeds
    (NO_COORDINATE, 3),
    # the first round's ridge, 0.1 I, makes G = 0.05 definite
    (_plain(-0.05, [0.5]), 2),
    # a quartic whose coordinate is confined to sigma <= -0.95 keeps G negative
    (_plain(-1, [0.5], {"kind": "quartic", "alpha": -1, "beta": -0.95, "factor": [[1]]}), 2),
], ids=["no-coordinate", "no-coordinate-ridged", "confined-quartic"])
def test_solve_without_a_certified_region_runs_the_perturbation_rounds(tmp_path, doc, code):
    # the plain solve finds no certified point, so solve runs the rounds
    # without --perturb: a heuristic answer, or exit 3 if no round solves
    res = run_cli("solve", write(tmp_path, "doc.json", doc))
    assert res.returncode == code, res.stderr
    payload = json.loads(res.stdout)["payload"]
    if code == 3:
        assert payload["kind"] == "continuous" and "error" in payload
    else:
        assert payload["report"]["status"] == "perturbation"
        assert payload["report"]["perturb_rounds"] > 0


def test_sweep_without_a_dual_coordinate(tmp_path):
    res = run_cli("sweep", write(tmp_path, "doc.json", NO_COORDINATE),
                  "--direction", "1,0", "--grid", "0.5,2.0")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)["payload"]["sweep"]["rows"]
    assert [row["outcome"] for row in rows] == ["empty_interior"] * 2
    # a zero-dimensional dual has no stationary point to count
    assert [(row["clusters"], row["n_clusters"]) for row in rows] == [([], 0)] * 2


def test_solve_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nope": 1}')
    res = run_cli("solve", str(path))
    assert res.returncode == 1
    assert "error" in res.stderr


BIG = "1" + "0" * 400  # an integer past the double range


# each is refused where it enters, with a message and no traceback
@pytest.mark.parametrize("doc, config", [
    ("0", None), ("null", None), ("true", None), ("1.5", None), (b"\xff", None),
    ("[" * 100_000 + "]" * 100_000, None),
    (json.dumps(DW).replace("[0.5]", f"[{BIG}]"), None),
    (json.dumps(QIP).replace("[[0, 1]", f"[[{BIG}, 1]"), None),
    (json.dumps(DW), f'{{"grad_tol": {BIG}}}'),
    ('{"qip": {"Q": [[1e308, 1e308], [1e308, 1e308]], "f": [1, 0]}}', None),
], ids=["zero", "null", "true", "float", "not-utf8", "deep", "big-f", "big-Q", "big-grad_tol",
        "qip-1e308"])
def test_malformed_input_exits_one_with_a_message(tmp_path, doc, config):
    path = tmp_path / "doc.json"
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    args = ["solve", str(path)]
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        args += ["--config", str(tmp_path / "config.json")]
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stdout == "" and res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    if config is not None:  # the refused value is echoed cut short
        assert len(res.stderr) < 200, res.stderr


def test_usage_error_exits_one(tmp_path):
    # 2 is reserved for heuristic answers, so argparse's usage exit must not leak
    res = run_cli("solve", write(tmp_path, "q.json", QIP), "--bogus")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "usage:" in res.stderr and "--bogus" in res.stderr
    assert run_cli("solve").returncode == 1  # missing problem file
    help_res = run_cli("solve", "--help")
    assert help_res.returncode == 0
    assert "usage:" in help_res.stdout


@pytest.mark.parametrize("flags", [
    ("--tol", "-1"), ("--max-iter", "-3"), ("--delta0", "-0.5", "--perturb"),
    ("--tol", "nan"), ("--delta0", "inf", "--perturb"), ("--seed", "-1"), ("--max-iter", "2.5"),
    # a dict is written to a --config file
    {"grad_tol": -1.0}, {"grad_tol": float("nan")}, {"grad_tol": "1e-9"},
    {"max_outer": 2.5}, {"max_outer": True}, {"max_inner": 1e9}, {"seed": -1},
    {"barrier_weight": float("nan")}, {"perturb_delta0": float("inf")},
])
def test_solver_flags_are_validated_like_the_config_file(tmp_path, flags):
    if isinstance(flags, dict):
        flags = ("--config", write(tmp_path, "config.json", flags))
    res = run_cli("solve", write(tmp_path, "dw.json", DW), *flags)
    assert res.returncode == 1
    assert res.stdout == "" and "error:" in res.stderr


def test_report_bytes_deterministic(tmp_path):
    path = write(tmp_path, "q.json", QIP)
    a = run_cli("solve", path, "--seed", "7")
    b = run_cli("solve", path, "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    sweep_args = ("sweep", write(tmp_path, "dw.json", DW),
                  "--direction", "1", "--grid", "0.5,2.0", "--seed", "7")
    assert run_cli(*sweep_args).stdout == run_cli(*sweep_args).stdout


# the two problem files of the README, as written there
README_WELL = {
    "n": 1,
    "variables": "continuous",
    "f": [0.5],
    "terms": [{"kind": "quartic", "alpha": 1.0, "beta": -2.0, "factor": [[1.0]]}],
}
README_QIP = {"qip": {"Q": [[0, 1], [1, 0]], "f": [3, 0]}}
# the two rank-one terms assemble to the off-diagonal coupling matrix of QIP
SIGN_DOC = {
    "n": 2,
    "variables": "sign_integer",
    "f": [3.0, 0.0],
    "terms": [{"kind": "plain_quadratic", "alpha": 1.0,
               "factor": [[0.70710678118654746, 0.70710678118654746]]},
              {"kind": "plain_quadratic", "alpha": -1.0,
               "factor": [[0.70710678118654746, -0.70710678118654746]]}],
}


@pytest.mark.parametrize("doc, args, digest", [
    (README_WELL, ("solve",),
     "e5939d72e11b25fd7cda34618168ee4ab99502ee770a1d225cc77343e148db77"),
    (README_QIP, ("solve",),
     "8670f48880c70ecb304a6ba49887fb39669e17e62e77b45d176728f1112dd410"),
    (README_WELL, ("classify", "--x", "2.1149", "--sigma", "0.2364", "--tol", "1e-3"),
     "9fca366801ce2e111dcc1fe45c565d0a89c5b69bbe79ac4e0c3759f5bfc7fb6d"),
    # the oracle and sweep reports, and the sign-integer route of solve, which
    # prints the bytes of the README qip
    (README_QIP, ("oracle",),
     "cd39c5abd3de6bf23d9d7cae1c2df6138bff328f4cf318312f127cd3a3b3743c"),
    (README_WELL, ("sweep", "--direction", "1", "--grid", "0.5,2.0"),
     "8a7723678f0e2fdc7c918345fc7581258ba3fadce774a28dec31e11cb9c559d6"),
    (SIGN_DOC, ("solve",),
     "8670f48880c70ecb304a6ba49887fb39669e17e62e77b45d176728f1112dd410"),
], ids=["solve-well", "solve-qip", "classify-well", "oracle-qip", "sweep-well", "solve-sign"])
def test_readme_command_bytes_are_pinned(tmp_path, doc, args, digest):
    # a report must stay byte-identical across changes, not only between runs
    res = run_cli(args[0], write(tmp_path, "doc.json", doc), *args[1:])
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest, res.stdout


def test_solve_loads_neither_the_oracles_the_relaxations_nor_a_thread_pool(tmp_path):
    # they load on first use; the fourth field shows that first use loads
    # oracle, the last that neither module pulls in scipy, a test-only package
    paths = [write(tmp_path, "well.json", README_WELL), write(tmp_path, "qip.json", README_QIP)]
    code = (
        "import sys\n"
        "from canondual import cli\n"
        f"codes = [cli.main(['solve', path]) for path in {paths!r}]\n"
        "import canondual\n"
        "names = ('canondual.oracle', 'canondual.relaxations', 'concurrent.futures')\n"
        "loaded = [name for name in names if name in sys.modules]\n"
        "canondual.enumerate_signs\n"
        "import canondual.relaxations, canondual.oracle\n"
        "print(codes, loaded, 'canondual.oracle' in sys.modules, 'scipy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0] [] True False"


# each subcommand takes only the flags it reads; any other one is a usage error
@pytest.mark.parametrize("command, flags, accepted", [
    ("export", ("--seed", "1"), False),
    ("plotdata", ("--pretty",), False),
    ("solve", ("--json",), False),
    ("classify", ("--max-iter", "5"), False),
    ("sweep", ("--threads", "2"), False),
    ("oracle", ("--seed", "3"), True),
    ("classify", ("--tol", "1e-3", "--pretty"), True),
    ("export", ("--pretty",), True),
], ids=["export-seed", "plotdata-pretty", "solve-json", "classify-max-iter",
        "sweep-threads", "oracle-seed", "classify-tol-pretty", "export-pretty"])
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, command, flags, accepted):
    required = {
        "classify": ("--x", "2.1149", "--sigma", "0.2364"),
        "export": ("--format", "lp", "--out", str(tmp_path / "q.lp")),
        "plotdata": ("--range", "-3:3:11"),
        "sweep": ("--direction", "1", "--grid", "0.5,2.0"),
    }.get(command, ())
    doc = QIP if command in ("export", "oracle") else DW
    res = run_cli(command, write(tmp_path, "doc.json", doc), *required, *flags)
    if accepted:
        assert res.returncode == 0, res.stderr
    else:
        assert res.returncode == 1
        assert res.stdout == "" and "usage:" in res.stderr


@pytest.mark.parametrize("config", ["null", "5", '[["seed", 1]]'],
                         ids=["null", "number", "pairs"])
def test_config_file_that_is_not_an_object_exits_one(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(config)
    res = run_cli("solve", write(tmp_path, "dw.json", DW), "--config", str(path))
    assert res.returncode == 1
    assert res.stdout == "" and res.stderr.startswith("error:")


def test_classify_pipeline_consistency(tmp_path):
    dw = write(tmp_path, "dw.json", DW)
    solved = json.loads(run_cli("solve", dw).stdout)["payload"]["report"]
    res = run_cli(
        "classify", dw,
        "--x", ",".join(str(v) for v in solved["x_bar"]),
        "--sigma", ",".join(str(v) for v in solved["sigma_bar"]),
    )
    assert res.returncode == 0
    label = json.loads(res.stdout)["payload"]["classification"]["label"]
    assert label == "global_min"


def test_classify_tol_sets_the_criticality_tolerance(tmp_path):
    # the README's command: the rounded pair passes at 1e-3, not at the 1e-6 default
    dw = write(tmp_path, "dw.json", DW)
    pair = ("--x", "2.1149", "--sigma", "0.2364")
    res = run_cli("classify", dw, *pair, "--tol", "1e-3")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["payload"]["classification"]["label"] == "global_min"
    res = run_cli("classify", dw, *pair)
    assert res.returncode == 1
    assert "exceed tolerance" in res.stderr


def test_classify_symmetric_local_max(tmp_path):
    doc = dict(DW, f=[0.0])
    res = run_cli("classify", write(tmp_path, "dw0.json", doc), "--x", "0", "--sigma", "-2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["payload"]["classification"]["label"] == "local_max"


def test_classify_noncritical_pair_fails(tmp_path):
    dw = write(tmp_path, "dw.json", DW)
    res = run_cli("classify", dw, "--x", "1", "--sigma", "1")
    assert res.returncode == 1
    # the well's dual root paired with a NaN point
    res = run_cli("classify", dw, "--x", "nan", "--sigma", "0.23641695449762776")
    assert res.returncode == 1
    assert res.stdout == "" and "error:" in res.stderr


# Each pair is stationary on both sides but does not pair, G(sigma) x != f,
# or has the wrong length: the well's local minimum x with the global
# minimum's sigma and the local maximum's sigma with the global x, and the
# qip's non-optimal sign vector (objective -2) against the optimum's sigma.
@pytest.mark.parametrize("doc, x, sigma", [
    ("dw", "-1.8608058531117035", "0.23641695449762776"),
    ("dw", "2.114907541476756", "-1.9677161659850149"),
    ("qip", "1,1", "2,0.5"),
    ("qip", "1", "2,0.5"),
    ("qip", "-1,-1,1", "2,0.5"),
])
def test_classify_refuses_a_pair_that_does_not_pair(tmp_path, doc, x, sigma):
    path = write(tmp_path, f"{doc}.json", DW if doc == "dw" else QIP)
    res = run_cli("classify", path, "--x", x, "--sigma", sigma)
    assert res.returncode == 1
    assert res.stdout == "" and "error:" in res.stderr


@pytest.mark.parametrize("sigma", ["nan", "inf", "0.2,0.3", "1e308"])
def test_classify_refuses_a_bad_dual_point(tmp_path, sigma):
    res = run_cli("classify", write(tmp_path, "dw.json", DW), "--x", "2", "--sigma", sigma)
    assert res.returncode == 1
    assert res.stdout == "" and res.stderr.startswith("error:")
    # an overflowing residual is not critical, and warns of nothing
    assert "Warning" not in res.stderr


def test_oracle_enumeration(tmp_path):
    res = run_cli("oracle", write(tmp_path, "q.json", QIP))
    assert res.returncode == 0
    payload = json.loads(res.stdout)["payload"]["oracle"]
    assert payload["best_value"] == -4.0
    assert payload["best_x"] == [1.0, -1.0]


@pytest.mark.parametrize("flags", [("--box", "-3:5"), ("--points", "2"), ("--no-refine",)],
                         ids=["box", "points", "no-refine"])
def test_oracle_refuses_grid_flags_on_a_sign_document(tmp_path, flags):
    res = run_cli("oracle", write(tmp_path, "q.json", QIP), *flags)
    assert res.returncode == 1
    assert flags[0] in res.stderr and res.stdout == ""


def test_oracle_grid_flags_reach_the_grid_search(tmp_path):
    path = write(tmp_path, "dw.json", DW)
    res = run_cli("oracle", path, "--box", "-3:5", "--points", "2", "--no-refine")
    assert res.returncode == 0, res.stderr
    oracle = json.loads(res.stdout)["payload"]["oracle"]
    assert oracle["samples"] == 2
    assert res.stdout != run_cli("oracle", path).stdout


def test_oracle_grid_needs_a_point(tmp_path):
    res = run_cli("oracle", write(tmp_path, "dw.json", DW), "--points", "0")
    assert res.returncode == 1
    assert res.stdout == "" and res.stderr.startswith("error:")


def test_oracle_grid_default_fits_the_budget(tmp_path):
    well5 = {"n": 5, "variables": "continuous", "f": [0.5] * 5,
             "terms": [{"kind": "quartic", "alpha": 1, "beta": -2,
                        "factor": np.eye(5).tolist()}]}
    path = write(tmp_path, "well5.json", well5)
    res = run_cli("oracle", path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["payload"]["oracle"]["samples"] == 16 ** 5
    res = run_cli("oracle", path, "--points", "21")
    assert res.returncode == 1
    assert res.stdout == "" and "budget" in res.stderr


def test_oracle_refuses_points_above_the_grid_cap(tmp_path):
    # seven variables are searched by random starts, which have no grid
    well7 = {"n": 7, "variables": "continuous", "f": [0.5] * 7,
             "terms": [{"kind": "quartic", "alpha": 1, "beta": -2,
                        "factor": np.eye(7).tolist()}]}
    path = write(tmp_path, "well7.json", well7)
    assert run_cli("oracle", path, "--no-refine").returncode == 0
    res = run_cli("oracle", path, "--points", "3", "--no-refine")
    assert res.returncode == 1
    assert res.stdout == "" and "grid_points" in res.stderr


def test_plotdata_shape_and_primal_column(tmp_path):
    res = run_cli("plotdata", write(tmp_path, "dw.json", DW), "--range", "-3:3:601")
    assert res.returncode == 0
    lines = res.stdout.rstrip("\n").split("\n")
    assert lines[0] == "x\tpi\tsigma\tpi_dual"
    assert len(lines) == 602
    from canondual import model

    p = model.load_problem(DW)
    for row in (lines[1], lines[301], lines[-1]):
        x, pi, _, _ = (float(tok) for tok in row.split("\t"))
        assert pi == pytest.approx(model.eval_primal(p, [x]), rel=1e-12)


def test_export_sdpa_roundtrip(tmp_path):
    out = tmp_path / "q.dat-s"
    res = run_cli("export", write(tmp_path, "q.json", QIP), "--format", "sdpa",
                  "--out", str(out))
    assert res.returncode == 0
    from canondual import integer, relaxations as rx

    inst = integer.QipInstance(Q=np.array(QIP["qip"]["Q"], dtype=float),
                               f=np.array(QIP["qip"]["f"], dtype=float))
    assert parse_sdpa(out) == rx.sdpa_data(inst.to_problem())


def test_export_lp_roundtrip(tmp_path):
    out = tmp_path / "q.lp"
    res = run_cli("export", write(tmp_path, "q.json", QIP), "--format", "lp",
                  "--out", str(out))
    assert res.returncode == 0
    parsed = parse_rlt_lp(out)
    assert parsed.n == 2
    # the relaxation value bounds the boxed objective minimum (-4) from below
    _, _, value = solve_rlt(parsed)
    assert value <= -4.0 + 1e-6


def test_export_box_reaches_the_lp_of_a_continuous_problem(tmp_path):
    doc = {"n": 2, "variables": "continuous", "f": [1.0, 0.0],
           "terms": [{"kind": "plain_quadratic", "alpha": 1.0, "factor": [[1, 0], [0, 1]]}]}
    path = write(tmp_path, "c.json", doc)
    files = {}
    for box in (None, "-1:1", "-3:5"):
        out = tmp_path / f"c{box}.lp"
        res = run_cli("export", path, "--format", "lp", "--out", str(out),
                      *(() if box is None else ("--box", box)))
        assert res.returncode == 0, res.stderr
        files[box] = out.read_bytes()
    assert files[None] == files["-1:1"]  # the default box
    assert files["-3:5"] != files["-1:1"]
    from canondual import relaxations as rx

    assert parse_rlt_lp(tmp_path / "c-3:5.lp").equals(rx.build_rlt(
        np.eye(2), np.array([1.0, 0.0]), np.full(2, -3.0), np.full(2, 5.0)))


@pytest.mark.parametrize("doc, fmt", [(QIP, "lp"), (QIP, "sdpa"), (DW, "sdpa")])
def test_export_rejects_a_box_that_does_not_apply(tmp_path, doc, fmt):
    out = tmp_path / "x.out"
    res = run_cli("export", write(tmp_path, "p.json", doc), "--format", fmt,
                  "--out", str(out), "--box", "-3:5")
    assert res.returncode == 1
    assert "--box" in res.stderr and res.stdout == ""
    assert not out.exists()


def test_sweep_reports_threshold(tmp_path):
    res = run_cli("sweep", write(tmp_path, "dw0.json", dict(DW, f=[0.0])),
                  "--direction", "1", "--grid", "1.0,1.4,1.6,2.0")
    assert res.returncode == 0
    sweep = json.loads(res.stdout)["payload"]["sweep"]
    assert sweep["threshold"] == pytest.approx(1.6)
    uniq = [row["unique"] for row in sweep["rows"]]
    assert uniq == [False, False, True, True]


def test_config_file_overridden_by_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grad_tol": 1e-7, "seed": 3}))
    res = run_cli("solve", write(tmp_path, "dw.json", DW),
                  "--config", str(cfg_path), "--seed", "8")
    assert res.returncode == 0
    config = json.loads(res.stdout)["config"]
    assert config["grad_tol"] == 1e-7
    assert config["seed"] == 8  # flag wins over the file


def test_sign_integer_document_routes_to_sign_pipeline(tmp_path):
    res = run_cli("solve", write(tmp_path, "s.json", SIGN_DOC))
    assert res.returncode == 0
    report = json.loads(res.stdout)["payload"]["report"]
    assert report["certificate"] == "dual_certified"
    assert report["x_star"] == [1.0, -1.0]


def test_plotdata_guard_for_multidimensional(tmp_path):
    doc = {
        "n": 2,
        "variables": "continuous",
        "f": [0.5, 0.0],
        "terms": [{"kind": "quartic", "alpha": 1, "beta": -2,
                   "factor": [[1, 0], [0, 1]]}],
    }
    res = run_cli("plotdata", write(tmp_path, "dw2.json", doc), "--range", "-3:3:11")
    assert res.returncode == 1
