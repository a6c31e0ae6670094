"""Exit codes, file handling, and determinism of the command-line surface."""
import copy
import hashlib
import json
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from helpers import largest_family_member, snapshot_tool

from cylcert import cli
from cylcert.certificate import (
    E_UPPER,
    POWER_BITS_CAP,
    certificate_from_obj,
    certificate_to_obj,
)
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import (
    DEGREE_CAP,
    SIMPLEX,
    CylinderProblem,
    Variant,
    problem_from_obj,
    problem_to_obj,
)
from cylcert.putinar_base import base_cache_from_obj
from cylcert.serialize import canonical_dumps

SAMPLES = Path(__file__).resolve().parent.parent / "sample_problems"


def write_problem(path, f_builder, *, m=2, variant=Variant.R1_ANY_M, r1=1):
    sh = BlockShape(1, r1, 0)
    x = BlockedPoly.variable(sh, 0)
    ys = [BlockedPoly.variable(sh, i) for i in sh.block_indices("y1")]
    one = BlockedPoly.constant(sh, 1)
    g = ((x - one.scale(F(1, 4))) * (one.scale(F(1, 2)) - x),)
    p = CylinderProblem(
        shape=sh, variant=variant, m=m, f=f_builder(x, ys, one), g=g, frame=SIMPLEX
    )
    path.write_text(json.dumps(problem_to_obj(p)))
    return p


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "p.json"
    write_problem(
        path, lambda x, ys, one: one.scale(8) + x.scale(8) + (ys[0] * ys[0]).scale(8)
    )
    return path


def test_certify_verify_round_trip(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--input", str(problem_file), "--output", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "cert.json.basecache.json").exists()
    assert cli.main(
        ["verify", "--problem", str(problem_file), "--certificate", str(out)]
    ) == 0


# sha256 of the certificates `certify --seed 7` writes for every input
# of `tools/snapshot.py`: one per assembly path (general, the d = 0
# sum-of-squares shortcut, box-frame compose), plus c5 and polya2-K56,
# whose facet witnesses run a 4,000-step Gram search rung, c6, whose
# coefficient forms sit at exact fixed points of the projections, c2 and
# c3, whose floor scans read the sphere covers, and the bench family
PINNED_CERTIFICATES = {
    "c1_interval_line_quadratic":
        "723a40dd3989c66f44b527725d3c638ab4827b65bc1ccf52a813ad0cb70e9dfb",
    "c2_interval_line_quartic":
        "c6789a27c8a8c0aa3057a298e495bbcfdfba22b594d175ba7ba277f1c2c02396",
    "c3_interval_plane_quartic":
        "2408a8233acf9f072ee8c5f9c0496e65c89aff3e894f380dfed1a5cb2c82ef06",
    "c4_pure_square_quartic":
        "8704a4c15b8fa18d6d0722e83bb55d6dda5e46953f648f32782d3c2473ad22c9",
    "c5_square_plane_quadratic":
        "e735b3cc473a015c0f5a1db74fdaf14f054e8a77597e5f6780b624f2235ba2ac",
    "c6_interval_split_blocks":
        "bcb3bace2c39860c40d74053aeb70111b9748421a93f0850e0314e9b31d7098b",
    "c7_box_frame_line_quadratic":
        "20fcb11787fe834084edbdbace319488f8b1f4377811f07a0fac2822c77781a7",
    "lambda-K16":
        "999a62e19dec8ccf548c71474bce69970c29e711f5f4ab46eb84e8f0ee7d7a68",
    "lambda-K64":
        "6e38ea29602d087a296e7240b565fc90231021d4f10501eac57f0b686b6e5fc4",
    "polya1-s1":
        "33cd3097db6d58fa16a13506d6416be8f0001e1969b8a0081c774bae725cb7b8",
    "polya1-s1_2":
        "b0ef7c7d4b4967c00cd0341bdf97b0d2bbc50b809c44cc391fdd2320c2fbd715",
    "polya1-s2":
        "7fdf1e131459173bb0804c5001f5e69167ce5290e720ef614e674502604e00d9",
    "polya2-K56":
        "1bad841dfe0a6d7e6bb01b2f410ae7ac64684d515d9ef4aa6691e7902fc79dbe",
}

# sha256 of the `.basecache.json` sidecars the same runs write, for the two
# inputs whose sidecars are largest
PINNED_SIDECARS = {
    "c5_square_plane_quadratic":
        "6acc6065a7ea0ae0dcac0ddc150e455fe8d15c0bdfffbec9a6464ce8e35d2d8c",
    "polya2-K56":
        "2badbd9d022a5c9fe4cec8a0a9850756eb1d1c3f7bc19ae820dad2e2e20dc64a",
}

# sha256 over every float point the Gram searches of the snapshot return
PINNED_PSD = "cb5415d7524504073465deb961f5d87511effd2123ace3bff8b29513841a58f4"


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """One `tools/snapshot.py` run: every sample and bench family member."""
    outdir = tmp_path_factory.mktemp("snapshot")
    assert snapshot_tool().main([str(outdir)]) == 0
    return outdir


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("stem", sorted(PINNED_CERTIFICATES))
def test_certificate_bytes_are_pinned(snapshot, stem):
    assert _sha256(snapshot / f"{stem}.cert.json") == PINNED_CERTIFICATES[stem]
    if stem in PINNED_SIDECARS:
        sidecar = snapshot / f"{stem}.cert.json.basecache.json"
        assert _sha256(sidecar) == PINNED_SIDECARS[stem]


def test_largest_family_member_certificate_bytes_are_pinned(snapshot):
    """The snapshot's polya2-K56 is the n = 2 Polya member of the bench
    family: a 4,000-step facet Gram rung and plane covers."""
    written = json.loads((snapshot / "inputs" / "polya2-K56.json").read_text())
    assert written == largest_family_member()
    assert _sha256(snapshot / "polya2-K56.cert.json") == PINNED_CERTIFICATES["polya2-K56"]
    sidecar = snapshot / "polya2-K56.cert.json.basecache.json"
    assert _sha256(sidecar) == PINNED_SIDECARS["polya2-K56"]


def test_snapshot_covers_every_input_and_pins_the_float_search(snapshot):
    written = sorted(p.name.removesuffix(".cert.json") for p in snapshot.glob("*.cert.json"))
    assert written == sorted(PINNED_CERTIFICATES)
    assert (snapshot / "psd.sha256").read_text() == PINNED_PSD + "\n"


def test_repeat_runs_are_byte_identical(problem_file, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    cli.main(["certify", "--input", str(problem_file), "--output", str(first)])
    # The second run picks up no cache (different sidecar path) and must
    # still produce the same bytes.
    cli.main(["certify", "--input", str(problem_file), "--output", str(second)])
    assert first.read_bytes() == second.read_bytes()
    # A third run reuses the first sidecar; still identical.
    cli.main(["certify", "--input", str(problem_file), "--output", str(first)])
    assert first.read_bytes() == second.read_bytes()


def _copy_witness_00_to_11(witnesses):
    witnesses["11"] = witnesses["00"]


def _point_a_multiplier_at_generator_7(witnesses):
    # c1 has one constraint: pad sigma_2 .. sigma_6 empty and copy sigma_1 to sigma_7
    sigmas = witnesses["11"]["sigmas"]
    sigmas += [{"weights": [], "squares": []}] * 5 + [sigmas[1]]


@pytest.mark.parametrize(
    "tamper", [_copy_witness_00_to_11, _point_a_multiplier_at_generator_7]
)
def test_a_tampered_sidecar_leaves_the_run_unchanged(tmp_path, tamper):
    path = SAMPLES / "c1_interval_line_quadratic.json"
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    cold_sidecar, warm_sidecar = (Path(f"{out}.basecache.json") for out in (cold, warm))

    def certify(out):
        return cli.main(["certify", "--input", str(path), "--output", str(out), "--seed", "7"])

    assert certify(cold) == 0
    sidecar = json.loads(cold_sidecar.read_text())
    tamper(sidecar["witnesses"])
    warm_sidecar.write_text(json.dumps(sidecar))
    assert certify(warm) == 0
    assert warm.read_bytes() == cold.read_bytes()
    assert warm_sidecar.read_bytes() == cold_sidecar.read_bytes()


def test_an_older_sidecar_is_read_as_empty_and_recomputed(tmp_path):
    # the layout before sidecars stored sigmas as a certificate does:
    # sigma_0, then [generator index, sigma] for each nonzero multiplier
    path = SAMPLES / "c5_square_plane_quadratic.json"
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    cold_sidecar, warm_sidecar = (Path(f"{out}.basecache.json") for out in (cold, warm))

    def certify(out):
        return cli.main(["certify", "--input", str(path), "--output", str(out), "--seed", "7"])

    assert certify(cold) == 0
    sidecar = json.loads(cold_sidecar.read_text())
    for witness in sidecar["witnesses"].values():
        sigma0, *rest = witness.pop("sigmas")
        witness["sigma0"] = sigma0
        witness["multipliers"] = [[i, s] for i, s in enumerate(rest) if s["weights"]]
    warm_sidecar.write_text(json.dumps(sidecar))
    problem = problem_from_obj(json.loads(path.read_text()))
    assert base_cache_from_obj(sidecar, cli._constraints_key(problem), problem.shape) == {}
    assert certify(warm) == 0
    assert warm.read_bytes() == cold.read_bytes()
    assert warm_sidecar.read_bytes() == cold_sidecar.read_bytes()


def test_written_files_are_the_canonical_bytes(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--input", str(problem_file), "--output", str(out)]) == 0
    problem = problem_from_obj(json.loads(problem_file.read_text()))
    cert = certificate_from_obj(json.loads(out.read_text()), problem.shape)
    assert out.read_bytes() == canonical_dumps(certificate_to_obj(cert)).encode()
    assert out.read_bytes().endswith(b"}\n")
    sidecar = tmp_path / "cert.json.basecache.json"
    assert sidecar.read_bytes() == canonical_dumps(json.loads(sidecar.read_text())).encode()


def test_diagnostics_file(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    diag = tmp_path / "diag.json"
    code = cli.main(
        ["certify", "--input", str(problem_file), "--output", str(out),
         "--diagnostics", str(diag)]
    )
    assert code == 0
    stages = json.loads(diag.read_text())
    assert set(stages["verify"]) == {"sigma_degrees", "product_degrees"}
    assert stages["config"]["seed"] == 0


def test_tampered_certificate_fails_verification(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    cli.main(["certify", "--input", str(problem_file), "--output", str(out)])
    obj = json.loads(out.read_text())
    obj["sigmas"][0]["weights"][0] = "-" + obj["sigmas"][0]["weights"][0]
    out.write_text(json.dumps(obj))
    code = cli.main(
        ["verify", "--problem", str(problem_file), "--certificate", str(out)]
    )
    assert code == cli.EXIT_VERIFY


def test_numeric_tier_certificate_is_refused(tmp_path, capsys):
    # f = -8 - 8x - 8y^2 is negative everywhere; a certificate without a
    # single square that declares a residual bound must not verify
    obj = json.loads((SAMPLES / "c1_interval_line_quadratic.json").read_text())
    for term in obj["f"]:
        term["c"] = str(-F(term["c"]))
    problem_path = tmp_path / "negated.json"
    problem_path.write_text(json.dumps(obj))
    cert = {
        "problem_hash": problem_from_obj(obj).problem_hash(),
        "tier": "numeric",
        "sigmas": [{"weights": [], "squares": []}] * 2,
        "metadata": {
            "lambda": "0", "k": 0, "ell": 0, "N": 0, "c9": 0, "fstar_lb": "1",
            "rescale": {"applied": False}, "archimedean_attested": True,
            "scales": ["1"], "residual": "1000",
            "degrees": {"first_term": [], "second_term": [0, 0], "cap": 2},
        },
    }
    cert_path = tmp_path / "cert.json"

    def verify(*extra):
        cert_path.write_text(json.dumps(cert))
        argv = ["verify", "--problem", str(problem_path), "--certificate", str(cert_path)]
        return cli.main(argv + list(extra))

    def summary():
        return json.loads(capsys.readouterr().err.splitlines()[-1])

    assert verify() == cli.EXIT_IO
    assert summary()["error"] == "SCHEMA"
    cert["tier"] = "exact"
    assert verify() == cli.EXIT_VERIFY
    payload = summary()["payload"]
    assert payload["kind"] == "IDENTITY_FAIL" and payload["residual"] == "8"
    assert verify("--tier", "exact") == cli.EXIT_VALIDATION
    assert "--tier" in capsys.readouterr().err


def test_truncated_certificate_is_an_io_error(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    cli.main(["certify", "--input", str(problem_file), "--output", str(out)])
    out.write_text(out.read_text()[: 40])
    code = cli.main(
        ["verify", "--problem", str(problem_file), "--certificate", str(out)]
    )
    assert code == cli.EXIT_IO


def _verify_mutated(problem_file, tmp_path, mutate):
    out = tmp_path / "cert.json"
    cli.main(["certify", "--input", str(problem_file), "--output", str(out)])
    obj = json.loads(out.read_text())
    mutate(obj)
    out.write_text(json.dumps(obj))
    return cli.main(
        ["verify", "--problem", str(problem_file), "--certificate", str(out)]
    )


def test_non_integer_metadata_field_is_a_schema_error(problem_file, tmp_path, capsys):
    code = _verify_mutated(
        problem_file, tmp_path, lambda obj: obj["metadata"].update(k="abc")
    )
    assert code == cli.EXIT_IO
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "SCHEMA"


@pytest.fixture(scope="module")
def c3_certificate(tmp_path_factory):
    out = tmp_path_factory.mktemp("c3") / "cert.json"
    path = SAMPLES / "c3_interval_plane_quartic.json"
    assert cli.main(["certify", "--input", str(path), "--output", str(out)]) == 0
    return path, json.loads(out.read_text())


# Metadata edits that were once coerced (2.9 -> 2, "false" -> True) and verified.
LOOSE_METADATA = [
    (("k",), 2.9),
    (("k",), "2"),
    (("N",), 0.0),
    (("c9",), "4"),
    (("ell",), True),
    (("degrees", "cap"), 18.5),
    (("degrees", "second_term"), [16.0, 16]),
    (("archimedean_attested",), "false"),
    (("rescale", "applied"), 0),
    (("rescale",), {"applied": True, "n": 1.0, "scale": "1/2", "offset": "1/2"}),
]


@pytest.mark.parametrize(
    "field, value",
    LOOSE_METADATA,
    ids=[f"{'.'.join(field)}={value!r}" for field, value in LOOSE_METADATA],
)
def test_metadata_is_read_strictly(c3_certificate, tmp_path, capsys, field, value):
    problem_path, obj = c3_certificate
    obj = copy.deepcopy(obj)
    parent = obj["metadata"]
    for step in field[:-1]:
        parent = parent[step]
    parent[field[-1]] = value
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(obj))
    code = cli.main(["verify", "--problem", str(problem_path), "--certificate", str(out)])
    assert code == cli.EXIT_IO
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "SCHEMA"


def test_non_list_sos_weights_are_a_schema_error(problem_file, tmp_path, capsys):
    code = _verify_mutated(
        problem_file, tmp_path, lambda obj: obj["sigmas"][0].update(weights=5)
    )
    assert code == cli.EXIT_IO
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "SCHEMA"


def _scaled_c1(tmp_path, factor):
    obj = json.loads((SAMPLES / "c1_interval_line_quadratic.json").read_text())
    for term in obj["f"]:
        term["c"] = str(F(term["c"]) * factor)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(obj))
    return path


def test_coefficient_above_the_cap_is_a_validation_error(tmp_path, capsys):
    # 8 * 10^310 is past the float range the floor scan screens in.
    out = tmp_path / "cert.json"
    path = _scaled_c1(tmp_path, 10**310)
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert summary["error"] == "VALIDATION"
    assert summary["payload"]["polynomial"] == "f"
    assert not out.exists()


def test_large_coefficients_under_the_cap_still_certify(tmp_path):
    out = tmp_path / "cert.json"
    path = _scaled_c1(tmp_path, 10**200)
    assert cli.main(["certify", "--input", str(path), "--output", str(out)]) == 0
    assert cli.main(
        ["verify", "--problem", str(path), "--certificate", str(out)]
    ) == 0


def _c1_plus(tmp_path, where, term, *, m=2):
    """c1 with one more term in f or in its constraint, declaring degree m in y."""
    obj = json.loads((SAMPLES / "c1_interval_line_quadratic.json").read_text())
    (obj["f"] if where == "f" else obj["g"][0]).append(term)
    obj["m"] = m
    path = tmp_path / "c1-plus.json"
    path.write_text(json.dumps(obj))
    return path


def _assert_degree_refused(tmp_path, capsys, path, polynomial, block, degree):
    out = tmp_path / "cert.json"
    started = time.monotonic()
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    assert time.monotonic() - started < 2
    assert code == cli.EXIT_VALIDATION
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert summary["payload"] == {
        "polynomial": polynomial, "block": block, "degree": degree, "cap": DEGREE_CAP,
    }
    assert not out.exists()


def test_x_degree_above_the_cap_in_f_is_a_validation_error(tmp_path, capsys):
    # + x^1000/1000 ran past a minute in assembly
    path = _c1_plus(tmp_path, "f", {"c": "1/1000", "x": [1000], "y1": [0]})
    _assert_degree_refused(tmp_path, capsys, path, "f", "x", 1000)


def test_x_degree_above_the_cap_in_g_is_a_validation_error(tmp_path, capsys):
    # - x^100000/1000 ran past a minute in the Polya lift
    path = _c1_plus(tmp_path, "g", {"c": "-1/1000", "x": [100000], "y1": [0]})
    _assert_degree_refused(tmp_path, capsys, path, "g_1", "x", 100000)


def test_y_degree_above_the_cap_is_a_validation_error(tmp_path, capsys):
    # + y^1000 with m = 1000 ran out of memory in the floor scan
    path = _c1_plus(tmp_path, "f", {"c": "1", "x": [0], "y1": [1000]}, m=1000)
    _assert_degree_refused(tmp_path, capsys, path, "f", "y1", 1000)


def test_x_degree_at_the_cap_still_certifies(tmp_path):
    path = _c1_plus(tmp_path, "f", {"c": "1/1000", "x": [DEGREE_CAP], "y1": [0]})
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--input", str(path), "--output", str(out)]) == 0
    assert cli.main(["verify", "--problem", str(path), "--certificate", str(out)]) == 0


def test_bad_problem_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1}')
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--input", str(path), "--output", str(out)]) == cli.EXIT_IO
    assert not out.exists()


def test_nonpositive_problem_exits_12(tmp_path):
    path = tmp_path / "neg.json"
    write_problem(path, lambda x, ys, one: ys[0] * ys[0] - one.scale(9))
    out = tmp_path / "cert.json"
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    assert code == cli.EXIT_NONPOSITIVE
    assert not out.exists()


def test_indefinite_condition_exits_11(tmp_path):
    path = tmp_path / "indef.json"
    write_problem(
        path,
        lambda x, ys, one: one.scale(8) + (ys[0] * ys[1]) ** 2,
        m=4,
        variant=Variant.QUARTIC_R2,
        r1=2,
    )
    out = tmp_path / "cert.json"
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    assert code == cli.EXIT_INDEFINITE


def test_minimize_subcommand(problem_file):
    assert cli.main(["minimize", "--input", str(problem_file)]) == 0
    # minimize always bounds f; a --target flag is a usage error
    assert cli.main(
        ["minimize", "--input", str(problem_file), "--target", "f"]
    ) == cli.EXIT_VALIDATION


def test_minimize_nonpositive_exits_12(tmp_path):
    path = tmp_path / "neg.json"
    write_problem(path, lambda x, ys, one: ys[0] * ys[0] - one.scale(9))
    assert cli.main(["minimize", "--input", str(path)]) == cli.EXIT_NONPOSITIVE


def test_minimize_refuses_a_set_that_escapes_the_frame(tmp_path, capsys):
    # g = 4 - x^2 lets S reach past the box frame (-1, 1), so no bound
    # computed over the frame would cover S
    sample = SAMPLES / "c7_box_frame_line_quadratic.json"
    obj = json.loads(sample.read_text())
    obj["g"] = [[{"c": "4", "x": [0], "y1": [0]}, {"c": "-1", "x": [2], "y1": [0]}]]
    path = tmp_path / "escaping.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["minimize", "--input", str(path)]) == cli.EXIT_VALIDATION
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["payload"]["violations"]


def test_wide_box_problem_ends_in_validation_quickly(tmp_path, capsys):
    # n = 16: one validation grid level would have 3^16 points, so only
    # the random samples run; they find points of S outside the frame
    zero, x1_squared = [0] * 16, [2] + [0] * 15
    obj = {
        "n": 16, "variant": "r1_any_m", "m": 2, "r": 1, "frame": "box",
        "f": [{"c": "1", "x": zero, "y1": [0]}, {"c": "1", "x": zero, "y1": [2]}],
        "g": [[{"c": "1/4", "x": zero, "y1": [0]}, {"c": "-1", "x": x1_squared, "y1": [0]}]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    started = time.monotonic()
    code = cli.main(["certify", "--input", str(path), "--output", str(tmp_path / "c.json")])
    assert time.monotonic() - started < 2
    assert code == cli.EXIT_VALIDATION
    capsys.readouterr()


def test_bound_subcommand(capsys):
    assert cli.main(
        ["bound", "--theorem", "1.2", "--c", "1", "--d", "1", "--m", "2",
         "--r", "1", "--n", "1", "--fnorm", "1", "--fstar", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "degree bound" in out
    assert cli.main(
        ["bound", "--theorem", "1.1", "--c", "1", "--d", "1", "--n", "1",
         "--fnorm", "1", "--fstar", "0"]
    ) == cli.EXIT_VALIDATION


def test_bound_survives_astronomical_values(capsys):
    # Tower formulas blow past both the float range and CPython's default
    # int-to-str digit limit; the exact value must still print.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert cli.main(
        ["bound", "--theorem", "1.4", "--c", "1", "--d", "2", "--m", "2",
         "--r", "3", "--n", "2", "--fnorm", "1", "--fstar", "1/2"]
    ) == 0
    out = capsys.readouterr().out
    assert "degree bound (1.4):" in out
    assert "~ 10^" in out
    # every digit is printed, and the limit is back for the caller
    digits = out.split("degree bound (1.4): ")[1].split()[0].split("/")
    assert len(digits[0]) > 4300 and all(part.isdigit() for part in digits)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_bound_beyond_exact_reach_is_a_validation_error(capsys):
    # e^(argument^(1/2)) with argument near 2*10^322: the root stays exact
    # (no float conversion), and the power is refused rather than expanded.
    assert cli.main(
        ["bound", "--theorem", "1.1", "--c", "1/2", "--d", "40", "--n", "3",
         "--fnorm", "1e300", "--fstar", "1"]
    ) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "VALIDATION"


def _bound_line(argv, capsys):
    code = cli.main(["bound", "--theorem", "1.1", "--d", "1", "--n", "1", "--fstar", "1", *argv])
    return code, json.loads(capsys.readouterr().err.splitlines()[-1])


def test_bound_with_a_huge_integer_c_is_refused_before_the_power(capsys):
    # e^(2^(10^12)): forming 2^(10^12) alone would not fit in memory
    code, summary = _bound_line(["--c", "1000000000000", "--fnorm", "2"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert summary["error"] == "VALIDATION"
    assert summary["payload"]["exponent_bits_at_least"] > 2**17


def test_bound_with_a_huge_fractional_c_is_refused_before_the_root(capsys):
    code, summary = _bound_line(["--c", "2000000000001/2", "--fnorm", "2"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert summary["payload"]["exponent_bits_at_least"] > 2**17


def test_bound_with_an_argument_just_above_one_is_refused_quickly(capsys):
    # argument 1 + 10^-12 and c = 10^12: the exponent is near e, but the
    # exact power argument^c would have about 4 * 10^13 bits
    started = time.monotonic()
    code, summary = _bound_line(
        ["--c", "1000000000000", "--fnorm", "1000000000001/1000000000000"], capsys
    )
    assert time.monotonic() - started < 1
    assert code == cli.EXIT_VALIDATION
    assert summary["payload"]["power_bits_estimate"] > POWER_BITS_CAP


def test_bound_of_a_formula_without_the_degree_power_is_refused_quickly(capsys):
    # formula 2.3 never uses (3n)^d, which once was formed anyway: past
    # 60 s at d = 10^8; the argument 10^16 is then refused at exp_upper
    started = time.monotonic()
    code, summary = _bound_line(["--theorem", "2.3", "--d", "100000000", "--fnorm", "1"], capsys)
    assert time.monotonic() - started < 1
    assert code == cli.EXIT_VALIDATION
    assert summary["error"] == "VALIDATION"


def test_bound_with_a_huge_block_degree_is_refused_quickly(capsys):
    # 2^(m/2) with m = 10^7 has 5 * 10^6 bits; printing the 1.5-million-digit
    # bound it gave took 81 s
    started = time.monotonic()
    code, summary = _bound_line(
        ["--theorem", "1.2", "--m", "10000000", "--fnorm", "1", "--fstar", "100000000000"],
        capsys,
    )
    assert time.monotonic() - started < 1
    assert code == cli.EXIT_VALIDATION
    assert summary["payload"]["power_bits_estimate"] > POWER_BITS_CAP


def test_bound_with_a_fractional_c_of_large_denominator_ends_quickly(capsys):
    # c = 1/100000: the root operand of argument^c has 100000 times the
    # bits of the argument, and the root has degree 100000
    started = time.monotonic()
    code, _summary = _bound_line(
        ["--c", "1/100000", "--fnorm", "1000000000001/1000000000000"], capsys
    )
    assert time.monotonic() - started < 1
    assert code in (0, cli.EXIT_VALIDATION)


def test_bound_with_an_argument_below_one_needs_no_power(capsys):
    # argument 1/2: (1/2)^(10^12) lies in (0, 1], so e is raised to the power 1
    code, summary = _bound_line(["--c", "1000000000000", "--fnorm", "1/2"], capsys)
    assert code == 0
    assert F(summary["bound"]) == 10**12 * E_UPPER


def test_usage_errors_do_not_collide_with_numeric_success(capsys):
    assert cli.main(["certify", "--input", "p.json"]) == cli.EXIT_VALIDATION
    assert cli.main(["bound", "--theorem", "7.7", "--d", "1", "--n", "1",
                     "--fnorm", "1", "--fstar", "1"]) == cli.EXIT_VALIDATION
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("certify", "--grid-depth", "5"),
        ("certify", "--lambda-cap", "2^40"),
        ("certify", "--budget-cap", "8"),
        ("minimize", "--grid-depth", "5"),
    ],
)
def test_search_caps_are_not_options(problem_file, tmp_path, capsys, command, flag, value):
    out = tmp_path / "cert.json"
    argv = [command, "--input", str(problem_file), flag, value]
    if command == "certify":
        argv += ["--output", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert not out.exists()
    assert flag in capsys.readouterr().err


def _box_problem(n, f_terms):
    """A box-frame r1_any_m problem with one constraint 1/4 - x_i^2 per coordinate."""
    def term(c, x, y):
        return {"c": c, "x": x, "y1": [y]}

    g = [
        [term("1/4", [0] * n, 0), term("-1", [2 if j == i else 0 for j in range(n)], 0)]
        for i in range(n)
    ]
    return {
        "archimedean_attested": True, "frame": "box", "m": 2, "n": n, "r": 1,
        "variant": "r1_any_m", "f": [term(*t) for t in f_terms], "g": g,
    }


BOX_INPUTS = {
    # f = 1 + y^2 + x1 y^2 / 2 + x1^2 + x2^2 / 2
    "box2": _box_problem(2, [
        ("1", [0, 0], 0), ("1", [0, 0], 2), ("1/2", [1, 0], 2), ("1", [2, 0], 0),
        ("1/2", [0, 2], 0),
    ]),
    # the same with x2 x3 / 2 in place of x2^2 / 2
    "box3": _box_problem(3, [
        ("1", [0, 0, 0], 0), ("1", [0, 0, 0], 2), ("1/2", [1, 0, 0], 2), ("1", [2, 0, 0], 0),
        ("1/2", [0, 1, 1], 0),
    ]),
}


@pytest.mark.parametrize("name, payload", [
    # before the scan's arrays were blocked, both stopped earlier, at the
    # memory budget: box2 at resolutions 2048 x 2048, box3 at 256 x 128
    ("box2", {"budget": 250_000_000, "rows": 290_521, "sphere_points": 2049}),
    ("box3", {"budget": 16_777_216, "rows": 22_632_705}),
])
def test_box_inputs_stop_at_a_scan_budget(tmp_path, capsys, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(BOX_INPUTS[name]))
    code = cli.main(["certify", "--input", str(path), "--output", str(tmp_path / "c.json")])
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (code, summary["error"], summary["payload"]) == (
        cli.EXIT_EXHAUSTED, "BUDGET_EXHAUSTED", payload
    )
