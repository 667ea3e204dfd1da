"""End-to-end command-line behaviour, run in process via main()."""

import contextlib
import io
import itertools
import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from flat_oracle import from_matrix
from test_drazin import graded_nilpotent_family

from modop import banach, cli, drazin, fredholm, geometry, linmap, randgen
from modop.algebra import AlgebraShape
from modop.cli import RunConfig, SUITE_NAMES, _analyze_bundle, _build_parser, main, run_suite
from modop.errors import StructureError
from modop.linmap import AdjointableMap
from modop.modules import K0Class, Submodule
from modop.randgen import random_endomorphism, random_low_rank, random_map, random_submodule
from modop.serialize import dumps_canonical, operator_to_jsonable, save_json, submodule_to_jsonable
from modop.tolerances import ToleranceConfig

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
    path = write_operator(tmp_path, "core.json", from_matrix(mat))
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


def test_commands_build_each_staircase_once(tmp_path, rng, monkeypatch, svd_calls, capsys):
    f = random_endomorphism(AlgebraShape((2, 3)), 2, rng, nilpotent=(2, 1))
    path = write_operator(tmp_path, "endo.json", f)
    calls = {"image_step": 0, "preimage_step": 0}

    def tracked(name):
        """The step, adding the full SVDs run inside it (a values-only norm
        is not a step's) to calls[name]."""
        step = getattr(AdjointableMap, name)

        def run(self, sub, tol):
            start = len(svd_calls)
            out = step(self, sub, tol)
            calls[name] += sum(call.compute_uv for call in svd_calls[start:])
            return out

        return run

    for name in calls:
        monkeypatch.setattr(AdjointableMap, name, tracked(name))
    for cmd in ("drazin", "analyze"):
        calls.update(image_step=0, preimage_step=0)
        assert main([cmd, path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload if cmd == "drazin" else payload["drazin"])["p"] == 2
        # one SVD per block for each of the steps 2 .. p + 1 of the deciding
        # kernel staircase and 2 .. p of the image staircase it checks;
        # step 1 of both reads the map's own SVD record
        assert calls == {"image_step": 2 * (2 - 1), "preimage_step": 2 * 2}


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


@pytest.mark.parametrize("command", ["banach", "drazin"])
def test_operator_of_the_wrong_kind_is_usage_error(tmp_path, rng, capsys, command):
    shape = AlgebraShape((2, 3))
    rect = write_operator(tmp_path, "rect.json", random_map(shape, 2, 3, rng))  # A^2 -> A^3
    endo = write_operator(tmp_path, "endo.json", random_endomorphism(shape, 2, rng))
    argv = {"banach": ["banach", endo, rect], "drazin": ["drazin", rect]}[command]
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and rect in captured.err
    assert len(captured.err.splitlines()) == 1


def test_ill_conditioned_split_exits_3(tmp_path, capsys):
    # a graded nilpotent map whose split Im F^p +' ker F^p has cond S ~ 1e11
    path = write_operator(tmp_path, "graded.json", graded_nilpotent_family(-6, count=2)[1])
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IllConditionedError: block 1: splitting bases are ")
    assert len(captured.err.splitlines()) == 1


def test_near_overflow_submodule_entry_exits_3(tmp_path, rng, capsys):
    # finite entries whose SVD overflows to NaN singular values: no cutoff
    # can rank them, so the load must not decide the zero submodule
    payload = submodule_to_jsonable(random_submodule(AlgebraShape((2, 3)), 1, rng, ranks=(1, 2)))
    payload["vectors"][0]["entries"][0][0][0][0] = [1.7e308, 1.7e308]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    assert main(["geometry", str(path), str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IllConditionedError: singular values are not finite")
    assert len(captured.err.splitlines()) == 1


def test_lapack_failure_exits_cleanly(tmp_path, rng, capsys, monkeypatch):
    shape = AlgebraShape((2,))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_json(str(a), submodule_to_jsonable(random_submodule(shape, 3, rng, ranks=(1,))))
    save_json(str(b), submodule_to_jsonable(random_submodule(shape, 3, rng, ranks=(1,))))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(geometry, "stacked", failing)
    assert main(["geometry", str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: LAPACK failed: Singular matrix\n"


def test_lapack_failure_in_one_suite_instance_keeps_the_others(capsys, monkeypatch):
    true_factors, calls = geometry._oblique_factors, [0]

    def failing_once(wm, wn):
        calls[0] += 1
        if calls[0] == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return true_factors(wm, wn)

    monkeypatch.setattr(geometry, "_oblique_factors", failing_once)
    assert main(["verify", "closed-sum", "--n", "4", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] == 3
    assert [f["error"] for f in payload["failures"]] == ["LinAlgError: Singular matrix"]
    assert payload["worst"]["bound_utilization"] > 0


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


@pytest.mark.parametrize("shape", ["2,3", "1^6,2^3,3"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_payload_does_not_depend_on_the_batch_size(monkeypatch, suite, shape):
    cfg = RunConfig(seed=0, n=20, shape=shape)
    batched = dumps_canonical(run_suite(suite, cfg))
    monkeypatch.setattr(cli, "BATCH", 1)
    assert dumps_canonical(run_suite(suite, cfg)) == batched
    if suite == "exact-sequence":  # chunks that do not divide n
        monkeypatch.setattr(cli, "BATCH", 3)
        assert dumps_canonical(run_suite(suite, cfg)) == batched


def test_a_failed_draw_is_recorded_against_its_instance(monkeypatch):
    real, calls = randgen.draw_endomorphism, itertools.count()

    def failing_second(*args, **kwargs):
        if next(calls) == 1:
            raise StructureError("planted draw failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(randgen, "draw_endomorphism", failing_second)
    payload = run_suite("dual", RunConfig(seed=0, n=4))
    assert payload["passes"] == 3
    assert payload["failures"] == [{"instance": 1, "error": "StructureError: planted draw failure"}]


def test_lapack_failure_in_a_batch_build_exits_3(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(randgen, "_unitaries", failing)
    assert main(["verify", "exact-sequence", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: LAPACK failed: Singular matrix\n"


@pytest.mark.parametrize(
    "argv", [["verify", "dual", "--n", "2"], ["geometry", "f.json", "f.json"]], ids=["verify", "geometry"]
)
def test_negative_seed_is_a_usage_error(capsys, argv):
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


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


@pytest.mark.parametrize(
    "suite, owner, name, budget",
    [
        ("exact-sequence", AdjointableMap, "_merged", 30),
        ("perturbation-chain", AdjointableMap, "_merged", 45),
        ("product-chain", AdjointableMap, "_merged", 45),
        ("exact-sequence", np.linalg, "svd", 140),
        ("perturbation-chain", np.linalg, "svd", 94),
        ("product-chain", np.linalg, "svd", 30),
        ("drazin-axioms", np.linalg, "svd", 76),
        ("commuting-drazin", np.linalg, "svd", 116),
        ("dual", np.linalg, "svd", 100),
        ("browder", np.linalg, "svd", 105),
        ("bouldin", np.linalg, "svd", 62),
    ],
)
def test_certificates_read_each_decision_once(monkeypatch, suite, owner, name, budget):
    # the first five instances at seed 0 on 2,3: no certificate decides a
    # class twice, a decided map reads its norm off its one full SVD, an
    # adjoint takes its map's record over, the dual check forms none of the
    # Drazin report's residual maps and no orthocomplement, a subspace
    # distance is measured in one direction, a commuting pair's factors keep
    # one record each, and Bouldin splits the meet off inside each space;
    # test_certificates_decide_each_map_once pins the decisions per map
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    payload = run_suite(suite, RunConfig(seed=0, n=5, shape="2,3"))
    monkeypatch.undo()
    assert payload["passes"] == 5
    assert calls[0] <= budget


@pytest.mark.parametrize(
    "suite, budget", [("exact-sequence", 15), ("perturbation-chain", 20), ("product-chain", 15)]
)
def test_certificates_decide_each_map_once(monkeypatch, suite, budget):
    # one decision per map and scale (f, g and gf; T, F, T+F and the step
    # T(ker F); D, F and DF), read by kernel, cokernel, the pads and the
    # margin alike
    test_certificates_read_each_decision_once(monkeypatch, suite, AdjointableMap, "_merged", budget)


def test_analyze_prints_one_margin_per_decision():
    # F's rank decision sets the Fredholm margin and step 1 of both
    # staircases, whose margins the Drazin and stabilization reports take
    f = random_endomorphism(AlgebraShape((4,)), 3, np.random.default_rng([3, 4]), nilpotent=(2, 1))
    bundle = _analyze_bundle(f, ToleranceConfig())
    margins = {bundle[key]["margin"] for key in ("fredholm", "drazin", "power_stabilization")}
    assert len(margins) == 1


def _pad_kernel_witness(real):
    def planted(f, tol):
        w = real(f, tol)
        return replace(w, pad_kernel=w.pad_kernel + K0Class.free(f.shape, 1))

    return planted


def _every_pair_equal(real):
    # a plateau read that accepts any two meets stops the chains at p
    return lambda sub, other, tol: True


def _index_bumped_on_second_chain(real):
    # the dual check certifies F's chain, then F*'s, then compares their
    # indices: F*'s reads one more once its core is certified (cached)
    chains = []

    def index(chain):
        if chain not in chains:
            chains.append(chain)
        return real.fget(chain) + (chain is not chains[0] and "core" in vars(chain))

    return property(index)


def _zero_blocks_on_split(real):
    # S^-1 G S planted as zero: no off-diagonal part, and no invertible core
    return lambda s, a, s_inv: 0.0 * real(s, a, s_inv)


def _tilted_angle(real):
    return lambda m, n, tol: real(m, n, tol) + 0.1


def _padded_banach_witness(real):
    def planted(reg):
        w = real(reg)
        return replace(w, z1=w.z1 + 1)

    return planted


def _repeated_kernel_column(real):
    # the product's kernel planted one column larger, in every block
    def planted(t, scale, tol):
        reg = real(t, scale, tol)
        kernel = reg.kernel
        bases = tuple(np.hstack([w, w[:, :1]]) for w in kernel.column_bases)
        dec = replace(reg.ker_decomposition, kernel=Submodule(kernel.shape, kernel.m, bases))
        return replace(reg, ker_decomposition=dec)

    return planted


def _unit_node_residuals(real):
    def planted(f, g, tol):
        rep = real(f, g, tol)
        return replace(rep, node_residuals=(1.0,) * len(rep.node_residuals))

    return planted


def _axiom_residuals_raised(real):
    def planted(f, tol):
        rep = real(f, tol)
        return replace(rep, residuals=dict.fromkeys(rep.residuals, 1e-6))

    return planted


def _off_diagonal_raised(real):
    def planted(f, d, tol):
        rep = real(f, d, tol)
        return replace(rep, witness_f=replace(rep.witness_f, off_diagonal_residual=1e-6))

    return planted


def _inverse_doubled_on_second_call(real):
    calls = itertools.count()

    def planted(chain, cores):
        x = real(chain, cores)
        return 2.0 * x if next(calls) % 2 else x

    return planted


def _unit_defect(real):
    return lambda sub, other: 1.0


def _unit_cross(real):
    return lambda q, x: np.ones((len(q), 1, 1))


def _never_contained(real):
    return lambda sub, other, tol: (False, 1.0)


def _never_equal(real):
    return lambda sub, other, tol: False


def _column_added_to_last_part(real):
    # M', the last of the four parts built, planted one column larger: the
    # common core ker(T+F) ∩ ker F then reads one smaller than ker T ∩ ker F
    calls = itertools.count(1)

    def planted(sub, q, tol):
        part = real(sub, q, tol)
        if next(calls) % 4:
            return part
        bases = tuple(np.hstack([w, b[:, :1]]) for w, b in zip(part.column_bases, q.column_bases))
        return Submodule(part.shape, part.m, bases)

    return planted


def _rank_bumped(real):
    def planted(t, scale, tol):
        reg = real(t, scale, tol)
        return replace(reg, rank=reg.rank + 1)

    return planted


def _tilted_projector(real):
    return lambda qm, qn: real(qm, qn) + 0.1


# One planted defect per suite whose certificate raises before it returns:
# the suite reports the library's own message.
PLANTED_DEFECTS = [
    ("exact-sequence", fredholm, "exact_sequence", _unit_node_residuals,
     "node residual 1.000e+00 above 1e-8"),
    ("perturbation-chain", fredholm, "weyl_defect_witness", _pad_kernel_witness,
     "perturbation chain identity failed"),
    ("perturbation-chain", Submodule, "contains", _never_contained,
     "T(ker F) escaped Im T / Im(T+F) (residuals 1.00e+00, 1.00e+00)"),
    ("perturbation-chain", Submodule, "equals", _never_equal,
     "ker(T+F) ∩ ker F differs from ker T ∩ ker F"),
    ("product-chain", fredholm, "weyl_defect_witness", _pad_kernel_witness,
     "product chain identity failed"),
    ("commuting-drazin", Submodule, "equals", _every_pair_equal,
     "intersection chains stabilize at k = 2, k' = 2, not at max(p, ind F) = 3"),
    ("drazin-axioms", drazin, "drazin_inverse", _axiom_residuals_raised,
     "axiom residual 1.000e-06 above 1e-9"),
    ("dual", linmap.PowerChain, "index", _index_bumped_on_second_chain,
     "Drazin index differs under adjoint"),
    ("dual", drazin, "_on_split", _inverse_doubled_on_second_call,
     "(F^D)* differs from (F*)^D by relative"),
    ("dual", drazin, "_cross", _unit_cross,
     "ker (F*)^1 is not the orthocomplement of Im F^1 (defect 1.000e+00)"),
    ("browder", linmap, "_similar", _zero_blocks_on_split,
     "map is not invertible on the stable range (rank 0 of 7)"),
    ("browder", drazin, "commuting_browder_check", _off_diagonal_raised,
     "off-diagonal block norm 1.000e-06 above 1e-8"),
    ("browder", Submodule, "equality_defect", _unit_defect,
     "kernel identity ker F^p D^p = ker F^(p+1) D^(p+1) fails (defect 1.000e+00)"),
    ("closed-sum", geometry, "dixmier_angle", _tilted_angle,
     "c0^2 + delta^2 = 1 violated"),
    ("closed-sum", geometry, "_projector", _tilted_projector,
     "angle cross-check failed"),
    ("banach-perturbation", banach, "defect_witness", _padded_banach_witness,
     "perturbation dimension identity failed"),
    ("banach-perturbation", banach, "_outside_of", _column_added_to_last_part,
     "ker(T+F) ∩ ker F and ker T ∩ ker F have different dimensions"),
    ("banach-perturbation", banach, "_regular_orthogonal", _rank_bumped,
     "Im(T+F) should split as T(ker F) (+) N'"),
    ("banach-product", banach, "defect_witness", _padded_banach_witness,
     "composition witness identity failed"),
    ("banach-product", banach, "_regular_orthogonal", _repeated_kernel_column,
     "alternating dimension sum is -1, not 0"),
]


def _planted_ids(rows):
    """suite:name, with the plant's name appended where that pair repeats."""
    ids = []
    for suite, _, name, plant, _ in rows:
        key = f"{suite}:{name}"
        ids.append(f"{key}:{plant.__name__.strip('_')}" if key in ids else key)
    return ids


@pytest.mark.parametrize(
    "suite, module, name, plant, message", PLANTED_DEFECTS, ids=_planted_ids(PLANTED_DEFECTS)
)
def test_suite_reports_a_planted_certificate_defect(monkeypatch, suite, module, name, plant, message):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    payload = run_suite(suite, RunConfig(seed=0, n=1, shape="2,3"))
    assert payload["passes"] == 0
    (failure,) = payload["failures"]
    assert failure["error"].startswith(f"IdentityViolation: {message}")


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "line 1" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["drazin", str(tmp_path / "absent.json")]) == 2


def test_csv_only_for_probe(identity_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", identity_file, "--format", "csv"])
    assert exc.value.code == 2
    assert "csv" in capsys.readouterr().err


def test_each_command_takes_only_the_options_it_reads(capsys):
    # --seed only where random draws are made, --format csv only for the probe table
    argvs = {
        "analyze": ["analyze", "f.json"],
        "verify": ["verify", "dual"],
        "probe": ["probe", "multiplier"],
        "drazin": ["drazin", "f.json"],
        "geometry": ["geometry", "m.json", "n.json"],
        "banach": ["banach", "f.json"],
    }
    parser = _build_parser()
    for command, argv in argvs.items():
        for option, value, takes in (
            ("--seed", "1", command in ("verify", "geometry")),
            ("--format", "csv", command == "probe"),
        ):
            if takes:
                args = parser.parse_args([*argv, option, value])
                assert str(getattr(args, option[2:])) == value
                continue
            with pytest.raises(SystemExit) as exc:
                main([*argv, option, value])
            assert exc.value.code == 2, (command, option)
            assert value in capsys.readouterr().err


def test_out_writes_file(tmp_path, identity_file, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", identity_file, "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["fredholm"]["index"] == [0]


def test_out_to_an_unwritable_path_is_usage_error(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "table.txt"):
        assert main(["probe", "multiplier", "--sizes", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {out}: ") and len(captured.err.splitlines()) == 1


def test_tolerance_overrides_are_echoed(capsys):
    argv = ["verify", "dual", "--n", "1", "--tol-rank", "1e-9", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["rank_tol"] == 1e-9


def test_every_tolerance_is_settable_from_the_command_line(capsys):
    # a ToleranceConfig field is a per-run knob: --tol-<name> sets it
    for fld in fields(ToleranceConfig):
        value = fld.default / 2
        flag = "--tol-" + fld.name.removesuffix("_tol")
        assert main(["verify", "dual", "--n", "0", flag, repr(value), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"][fld.name] == value


def test_parser_is_built_once_and_options_do_not_carry_over(tmp_path, capsys):
    # one parser per process; each call parses into a fresh namespace
    assert _build_parser() is _build_parser()
    argv = ["verify", "dual", "--n", "1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    target = tmp_path / "run.json"
    assert main([*argv, "--tol-rank", "1e-9", "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["config"]["rank_tol"] == 1e-9
    assert main(argv) == 0
    again = capsys.readouterr().out  # text, on stdout, at the default tolerance
    assert again == plain and f"rank_tol: {ToleranceConfig().rank_tol:.16e}" in again


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


@pytest.mark.parametrize("kind", ["operator", "submodule"])
def test_integer_too_large_for_a_float_is_usage_error(tmp_path, rng, monkeypatch, capsys, kind):
    shape = AlgebraShape((2,))
    good = write_operator(tmp_path, "good.json", AdjointableMap.identity(shape, 2))
    if kind == "operator":
        payload = operator_to_jsonable(AdjointableMap.identity(shape, 2))
        payload["entries"][1][0][0][1][0] = [10**400, 0.0]
        argv, where = ["analyze"], "entries[1][0].block[0]"
    else:
        payload = submodule_to_jsonable(random_submodule(shape, 2, rng, ranks=(1,)))
        payload["vectors"][0]["entries"][1][0][1][0] = [10**400, 0.0]
        argv, where = ["geometry"], "entries[1].block[0]"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))  # the integer literal as written, all 401 digits
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    assert main([*argv, str(bad), *([good] if kind == "submodule" else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and len(captured.err.splitlines()) == 1
    assert where in captured.err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_invalid_tolerance_is_usage_error(value, capsys):
    assert main(["verify", "dual", "--n", "3", "--tol-rank", value, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance rank_tol must be finite and positive")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("value", ["1e-6", "0.5"])
def test_angle_tolerance_above_coincide_tolerance_is_usage_error(value, capsys):
    assert main(["verify", "closed-sum", "--n", "1", "--tol-angle", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance angle_tol")
    assert "coincide_tol" in captured.err
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


_ONE_BY_ONE = operator_to_jsonable(AdjointableMap.identity(AlgebraShape((1,)), 1))
_BOOL_VECTOR = submodule_to_jsonable(Submodule.full(AlgebraShape((1,)), 1))
_BOOL_VECTOR["vectors"][0]["m"] = True


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"shape": [2], "m": m, "vectors": []}, id=f"submodule m={m!r}")
        for m in ("x", 1.5, None, -1, 0, True)
    ]
    + [
        pytest.param({**_ONE_BY_ONE, key: value}, id=f"operator {key}={value!r}")
        for key, value in (("domain", True), ("codomain", True), ("shape", [True]))
    ]
    + [pytest.param(_BOOL_VECTOR, id="vector m=True")],
)
def test_rank_that_is_not_a_positive_integer_is_usage_error(tmp_path, capsys, payload):
    # JSON true loads as a bool, which Python counts as the integer 1
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["geometry", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "integer" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, payload",
    [("analyze", {**_ONE_BY_ONE, "shape": []}), ("geometry", {"shape": [], "m": 1, "vectors": []})],
    ids=["operator", "submodule"],
)
def test_empty_shape_is_usage_error(tmp_path, capsys, command, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    operands = [str(path)] * (2 if command == "geometry" else 1)
    assert main([command, *operands]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "'shape'" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_geometry_names_the_bad_file(tmp_path, capsys):
    good = write_operator(tmp_path, "good.json", AdjointableMap.identity(AlgebraShape((1,)), 1))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"shape": [1], "m": -1, "vectors": []}))
    for argv in ([good, str(bad)], [str(bad), good]):
        assert main(["geometry", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: submodule: 'm'") and good not in err


@pytest.mark.parametrize(
    "edit, index",
    [
        (lambda vectors: vectors[1]["entries"].pop(), 1),
        (lambda vectors: vectors.append({"entries": vectors[0]["entries"] * 2}), 2),
        (lambda vectors: vectors.insert(1, 5), 1),
    ],
    ids=["missing entry", "extra vector of the wrong shape", "bare number"],
)
def test_bad_vector_in_a_submodule_file_is_named(tmp_path, capsys, edit, index):
    shape = AlgebraShape((1,))
    payload = submodule_to_jsonable(Submodule.full(shape, 2))  # two vectors
    edit(payload["vectors"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    good = write_operator(tmp_path, "good.json", AdjointableMap.identity(shape, 2))
    assert main(["geometry", str(bad), good]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {bad}: vectors[{index}]: ")


# -- exit-code fuzzing: mutated operator and submodule files ----------------

_BAD_RANKS = st.one_of(
    st.integers(max_value=0), st.floats(), st.text(max_size=3), st.none(), st.booleans()
)
_RANKS = st.one_of(st.integers(1, 2), _BAD_RANKS)
_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=12,
)
_FUZZ_SHAPE = AlgebraShape((1, 2))


@st.composite
def _operator_files(draw):
    """A valid A^2 -> A^2 operator payload with mutated ranks and entries."""
    payload = operator_to_jsonable(random_map(_FUZZ_SHAPE, 2, 2, np.random.default_rng(3)))
    payload["domain"], payload["codomain"] = draw(_RANKS), draw(_RANKS)
    how = draw(st.sampled_from(["keep", "replace", "entry"]))
    if how == "replace":
        payload["entries"] = draw(_JUNK)
    elif how == "entry":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        payload["entries"][i][j] = draw(_JUNK)
    return payload


@st.composite
def _submodule_files(draw):
    """A valid rank-1 submodule payload with mutated rank and vectors."""
    sub = random_submodule(_FUZZ_SHAPE, 1, np.random.default_rng(4), ranks=(1, 1))
    payload = submodule_to_jsonable(sub)
    payload["m"] = draw(_RANKS)
    how = draw(st.sampled_from(["keep", "empty", "replace", "vector", "vector entries"]))
    if how == "empty":
        payload["vectors"] = []
    elif how == "replace":
        payload["vectors"] = draw(_JUNK)
    elif how == "vector":
        payload["vectors"][draw(st.integers(0, 2))] = draw(_JUNK)
    elif how == "vector entries":
        payload["vectors"][draw(st.integers(0, 2))]["entries"] = draw(_JUNK)
    return payload


def _positive_int(x) -> bool:
    return type(x) is int and x >= 1


def _run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(_operator_files(), _submodule_files())
def test_mutated_files_exit_cleanly(op_payload, sub_payload):
    # every outcome is an exit code, never a traceback; a usage error is one
    # line; a rank that is not a positive integer is always a usage error
    with tempfile.TemporaryDirectory() as tmp:
        op, sub = Path(tmp) / "op.json", Path(tmp) / "sub.json"
        op.write_text(json.dumps(op_payload))
        sub.write_text(json.dumps(sub_payload))
        bad_op = not (_positive_int(op_payload["domain"]) and _positive_int(op_payload["codomain"]))
        runs = [
            (["geometry", str(sub), str(sub)], not _positive_int(sub_payload["m"])),
            (["geometry", str(op), str(op)], bad_op),
            (["analyze", str(op)], bad_op),
            (["banach", str(op)], bad_op),
        ]
        for argv, must_reject in runs:
            code, out, err = _run_main(argv + ["--format", "json"])
            assert code in (0, 1, 2, 3), argv
            if code == 2:
                assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
            if must_reject:
                assert code == 2, (argv, err)
