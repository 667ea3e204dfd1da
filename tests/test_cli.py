"""End-to-end command-line behaviour, run in process via main()."""

import json
from pathlib import Path

import numpy as np
import pytest

from modop.algebra import AlgebraShape
from modop.cli import RunConfig, SUITE_NAMES, main, run_suite
from modop.linmap import AdjointableMap
from modop.randgen import random_endomorphism, random_low_rank, random_map, random_submodule
from modop.serialize import dumps_canonical, operator_to_jsonable, save_json, submodule_to_jsonable

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def identity_file(tmp_path):
    f = AdjointableMap.identity(AlgebraShape((2,)), 1)
    path = tmp_path / "ident.json"
    save_json(str(path), operator_to_jsonable(f))
    return str(path)


def write_operator(tmp_path, name, f):
    path = tmp_path / name
    save_json(str(path), operator_to_jsonable(f))
    return str(path)


def test_analyze_identity_matches_golden(identity_file, capsys):
    assert main(["analyze", identity_file, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "analyze_identity.json").read_text()
    bundle = json.loads(out)
    assert bundle["fredholm"]["index"] == [0]
    assert bundle["drazin"]["p"] == 0
    assert bundle["power_stabilization"]["rank_chain"] == [4]


def test_analyze_non_endomorphism_notes_skip(tmp_path, rng, capsys):
    path = write_operator(tmp_path, "rect.json", random_map(AlgebraShape((2,)), 2, 1, rng))
    assert main(["analyze", path, "--format", "json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["drazin"] is None
    assert "endomorphism" in bundle["note"]
    assert bundle["fredholm"]["index"] == [2]


def test_drazin_subcommand_reports_structure(tmp_path, capsys):
    mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    path = write_operator(tmp_path, "core.json", AdjointableMap.from_matrix(mat))
    assert main(["drazin", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 2 and payload["ascent"] == 2
    assert payload["block_structure"] == {"range_k0": [1], "null_k0": [2]}


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_one_operator_commands_on_extreme_scales(tmp_path, rng, capsys, scale):
    f = random_endomorphism(AlgebraShape((2, 3)), 2, rng, nilpotent=(2, 1))
    path = write_operator(tmp_path, "scaled.json", scale * f)
    assert main(["drazin", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == payload["ascent"] == 2
    assert main(["analyze", path, "--format", "json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["drazin"]["p"] == bundle["power_stabilization"]["stabilization_exponent"] == 2


def _count_step_svds(monkeypatch) -> dict[str, int]:
    """Full SVDs run inside each staircase step, by step kind (the map's
    values-only record, read by ``norm``, is not a step's)."""
    calls = {"image_step": 0, "preimage_step": 0}
    inside: list[str] = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if inside and kwargs.get("compute_uv", True):
            calls[inside[-1]] += 1
        return svd(a, *args, **kwargs)

    def tracked(name):
        step = getattr(AdjointableMap, name)

        def run(self, sub, tol):
            inside.append(name)
            try:
                return step(self, sub, tol)
            finally:
                inside.pop()

        return run

    monkeypatch.setattr(np.linalg, "svd", counting)
    for name in calls:
        monkeypatch.setattr(AdjointableMap, name, tracked(name))
    return calls


def test_commands_build_each_staircase_once(tmp_path, rng, monkeypatch, capsys):
    f = random_endomorphism(AlgebraShape((2, 3)), 2, rng, nilpotent=(2, 1))
    path = write_operator(tmp_path, "endo.json", f)
    calls = _count_step_svds(monkeypatch)
    for cmd in ("drazin", "analyze"):
        calls.update(image_step=0, preimage_step=0)
        assert main([cmd, path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload if cmd == "drazin" else payload["drazin"])["p"] == 2
        # one SVD per block for each of the steps 1 .. p + 1 of each staircase
        assert calls == {"image_step": 2 * 3, "preimage_step": 2 * 3}


def test_geometry_subcommand_on_operator_pair(tmp_path, rng, capsys):
    shape = AlgebraShape((2,))
    f = random_map(shape, 2, 2, rng, rank_deficit=1)
    left = write_operator(tmp_path, "left.json", f)
    right = write_operator(tmp_path, "right.json", f)
    assert main(["geometry", left, right, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # image and kernel of the same rank-deficient map: rank 3, nullity 1
    assert payload["left"]["k0"] == [3] and payload["right"]["k0"] == [1]
    assert payload["verdict"] in (True, False)
    assert payload["sample_count"] > 0


def test_geometry_accepts_submodule_files(tmp_path, rng, capsys):
    shape = AlgebraShape((2,))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_json(str(a), submodule_to_jsonable(random_submodule(shape, 2, rng, ranks=(1,))))
    save_json(str(b), submodule_to_jsonable(random_submodule(shape, 2, rng, ranks=(2,))))
    assert main(["geometry", str(a), str(b), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["left"]["dim"] == 2 and payload["right"]["dim"] == 4


def test_geometry_operands_from_different_modules_are_usage_error(tmp_path, rng, capsys):
    shape = AlgebraShape((2, 3))
    left = write_operator(tmp_path, "left.json", random_map(shape, 2, 3, rng))  # image in A^3
    right = write_operator(tmp_path, "right.json", random_endomorphism(shape, 2, rng))
    assert main(["geometry", left, right, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: operands live in different modules")
    assert len(captured.err.splitlines()) == 1


def test_banach_subcommand_with_perturbation(tmp_path, rng, capsys):
    shape = AlgebraShape((2,))
    t = random_map(shape, 2, 2, rng, rank_deficit=1)
    f = 0.3 * random_low_rank(shape, 2, 2, rng, rank=1)
    t_path = write_operator(tmp_path, "t.json", t)
    f_path = write_operator(tmp_path, "f.json", f)
    assert main(["banach", t_path, f_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generalized_weyl"] is True  # square with equal defects
    assert payload["witness"] == {"z1": 0, "z2": 0}
    assert payload["perturbation"]["lhs"] == payload["perturbation"]["rhs"]
    assert payload["regular"]["rank"] == 6  # 8 - 2 planted drops


def test_probe_csv_matches_golden(capsys):
    assert main(["probe", "multiplier", "--sizes", "2,4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "probe_multiplier_2_4.csv").read_text()


def test_probe_text_format(capsys):
    assert main(["probe", "nonclosed-square", "--sizes", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "gamma_f2" in out and "monotonicity" in out


def test_verify_suite_passes_and_is_deterministic(capsys):
    argv = ["verify", "drazin-axioms", "--n", "2", "--seed", "5", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["passes"] == 2 and payload["failures"] == []


def test_verify_zero_instances_warns(capsys):
    assert main(["verify", "dual", "--n", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "vacuous" in payload["warning"]
    assert payload["passes"] == 0


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_run_suite_api_matches_cli(capsys):
    cfg = RunConfig(seed=5, n=2, shape="2,3")
    payload = run_suite("drazin-axioms", cfg)
    assert main(["verify", "drazin-axioms", "--n", "2", "--seed", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(dumps_canonical(payload))
    assert set(SUITE_NAMES) >= {"drazin-axioms", "exact-sequence", "closed-sum"}


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "line 1" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["drazin", str(tmp_path / "absent.json")]) == 2


def test_csv_only_for_probe(identity_file, capsys):
    assert main(["analyze", identity_file, "--format", "csv"]) == 2
    assert "csv" in capsys.readouterr().err


def test_out_writes_file(tmp_path, identity_file, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", identity_file, "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["fredholm"]["index"] == [0]


def test_tolerance_overrides_are_echoed(capsys):
    argv = ["verify", "dual", "--n", "1", "--tol-rank", "1e-9", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["rank_tol"] == 1e-9


def _no_svd(*args, **kwargs):
    raise AssertionError("an SVD ran on data that should have been rejected")


@pytest.mark.parametrize(
    "token, part", [("1e999", "re"), ("NaN", "re"), ("1e999", "im"), ("NaN", "im")]
)
def test_nonfinite_operator_entry_is_usage_error(tmp_path, monkeypatch, capsys, token, part):
    payload = operator_to_jsonable(AdjointableMap.identity(AlgebraShape((2,)), 1))
    payload["entries"][0][0][0][1][1] = [12345.0, 0.0] if part == "re" else [0.0, 12345.0]
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(payload).replace("1.2345000000000000e+04", token))
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "finite" in err and len(err.splitlines()) == 1


def test_nonfinite_submodule_entry_is_usage_error(tmp_path, rng, monkeypatch, capsys):
    shape = AlgebraShape((2,))
    payload = submodule_to_jsonable(random_submodule(shape, 2, rng, ranks=(1,)))
    payload["vectors"][0]["entries"][1][0][0][0] = [float("nan"), 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    good = write_operator(tmp_path, "good.json", AdjointableMap.identity(shape, 2))
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    assert main(["geometry", str(bad), good]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_invalid_tolerance_is_usage_error(value, capsys):
    assert main(["verify", "dual", "--n", "3", "--tol-rank", value, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance rank_tol must be finite and positive")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "exact-sequence", "--shape", "2,x"],
        ["verify", "exact-sequence", "--shape", "0"],
        ["verify", "exact-sequence", "--shape", ""],
        ["verify", "exact-sequence", "--shape", "1^0"],
        ["verify", "exact-sequence", "--n", "-1"],
        ["probe", "multiplier", "--sizes", "0"],
        ["probe", "multiplier", "--sizes", "4,x"],
        ["probe", "nonclosed-square", "--sizes", "1"],
    ],
    ids=" ".join,
)
def test_malformed_arguments_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
