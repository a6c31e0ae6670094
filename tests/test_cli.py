"""Exit codes, file handling, and determinism of the command-line surface."""
import copy
import hashlib
import json
import math
import os
import re
import shutil
import stat
import sys
import time
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from helpers import largest_family_member, snapshot_tool

from cylcert import cli, errors
from cylcert.certificate import (
    E_UPPER,
    POWER_BITS_CAP,
    certificate_from_obj,
    certificate_to_obj,
)
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import (
    BOX,
    DEGREE_CAP,
    SIMPLEX,
    CylinderProblem,
    Variant,
    problem_from_obj,
    problem_to_obj,
    rescale_to_simplex,
)
from cylcert.putinar_base import (
    base_cache_from_obj,
    base_cache_to_obj,
    constraints_key,
    facet_product,
)
from cylcert.serialize import canonical_dumps, load_json, poly_to_obj, sha256_of_obj

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


# sha256_of_obj of the certificates `certify` writes for every
# input of `tools/snapshot.py`, so the sha256 of their two-space-indented
# text, with metadata holding only the construction's parameters: one per assembly
# path (general, the d = 0 sum-of-squares shortcut, box-frame compose),
# plus c5 and polya2-K56, whose facet witnesses leave a stalled Gram
# search rung once its gap stops halving, c6, whose coefficient forms sit
# at exact fixed points of the projections, c2 and c3, whose floor scans read the sphere covers,
# and the bench family
PINNED_CERTIFICATES = {
    "c1_interval_line_quadratic":
        "f70c65a8c08a17c053e84536203f4c4c94681d115353d4d83a34a16206a41527",
    "c2_interval_line_quartic":
        "c584568fdb3d34b301de770efba8a034782a7ac82ef0d36862e63d4eeb155141",
    "c3_interval_plane_quartic":
        "48eab918190e2f27e0111da700571f338ef65273f01da2dede7145d5ccd72b8d",
    "c4_pure_square_quartic":
        "99804684871cfcd8ed04cdb80b94ef4d1ba540fd3613531f0db18b928e81f536",
    "c5_square_plane_quadratic":
        "699f2b03fdb49e13e40a79973a977cad375eb14e066181aecda51fe672830167",
    "c6_interval_split_blocks":
        "e09e3aa374df8dc77d3a8aab0ab40a81007f8f2487f9700dbfa6cf89c105012d",
    "c7_box_frame_line_quadratic":
        "2987c1092790ad6b85a33a258cd9f44fa22f07fff3859f941d8609591101b6eb",
    "lambda-K16":
        "fa392da6405872d016a25ba3671d4b6996e95124df7f57df37eb56489f19fd4e",
    "lambda-K64":
        "c36a88e552cfde63f68b56bf6a8fa31f70bdea033b6b8694befb2ece3178b0b5",
    "polya1-s1":
        "6f2efab9dbfcad99dee4c25963b0d0e52d847aff534a1b4782bb77a948cd851a",
    "polya1-s1_2":
        "b171a08a344e420f46104c5c7536e675b44497e3b0da2fa6232abc7eac0dd610",
    "polya1-s2":
        "c87f0ad6e0c6cce49ef7cf32da6c95549a18baabceaad043d44400a1f5d7a44f",
    "polya2-K56":
        "bca6bdff13bf6f729d25b28368af76b46b4ee05021e454c84b0c74b977474362",
}

# sha256_of_obj of each certificate's `sigmas` list alone: the content
# the checker expands, pinned apart from the metadata beside it
PINNED_SIGMAS = {
    "c1_interval_line_quadratic":
        "57b2018b790b28f122e09ca8b97991ce09c340331e8d117f3bbae48d9fb9915e",
    "c2_interval_line_quartic":
        "7b58e932bd4f16b962c5b2236820b0eda923e236b316eeacee38acc1400d41ec",
    "c3_interval_plane_quartic":
        "5dcf62a142ad6f0705191a975938803e2373151ae9c74064c8facbf02e979aed",
    "c4_pure_square_quartic":
        "0ca50ab58515e02d11f247b53e7ff216e3c8e2c206b0872c72a07dac4f6f5456",
    "c5_square_plane_quadratic":
        "0e339f13cb090c0da1284aeb51ac0957a5e0d377cddf8b79d1e806b1709c0093",
    "c6_interval_split_blocks":
        "f423a5938e42b9e72aa463d689a38b560e1ade73c44033ff7587f1bc880bcad2",
    "c7_box_frame_line_quadratic":
        "035ebad07aa1cb014eaded404c28a6f9c6da41127903a3a052a9de31b2578120",
    "lambda-K16":
        "40a8739e8beca7cbad87cf5b7fcce3c37029d797716c13f306f389fae2bcdc64",
    "lambda-K64":
        "31f6bd9744d09dba22960c7d9d2d098bb9a5d12a62b832758be309fa4c542055",
    "polya1-s1":
        "c52d4dbcd261a6d47b43680215334b82487f799089a8ce1f768f3d1332fb52b3",
    "polya1-s1_2":
        "9108ccfcc343c67d587372b8660527deae1fd9d3f79fdb597024329bcc746ebc",
    "polya1-s2":
        "984713ba8479555e07537d81f9ab1983a97929056fbd61c1ba9a232d60784c7d",
    "polya2-K56":
        "74af7d6995f6c884d04e0fbd74db659de0aa5225cb7aaa7c2b7f12ea1d48074f",
}

# sha256_of_obj of the `.basecache.json` sidecars the same runs write, for
# the two inputs whose sidecars are largest, with each witness stored over
# primitive integer squares as certificates store theirs
PINNED_SIDECARS = {
    "c5_square_plane_quadratic":
        "6f31644eb7e007dc2994ce3d8adc47f56b99b8573c430fdeb46314c4f22b61b9",
    "polya2-K56":
        "9095750f1caa2ea1c1f8281fd7fbbdaccd6ea1bdacd27f17def96359ec4d5e59",
}

# sha256 of the compact files themselves, certificates and the two sidecars
PINNED_FILES = {
    "c1_interval_line_quadratic.cert.json":
        "edfb4be264f8e62ea825f41ec070076e235fd3f3291ca164041e41380f00197e",
    "c2_interval_line_quartic.cert.json":
        "56b72761666eb0cef772ed5cb356bcc0e5b831e8813caa9c335f66da89aa5992",
    "c3_interval_plane_quartic.cert.json":
        "66ba2ce1233f3d2602ffaa5268a05c8bc50bd9c62a34addac06bb3cc1dc71ba1",
    "c4_pure_square_quartic.cert.json":
        "20b4580af88ce4abcff3b5c0943e0c48eb4bd7686d65191e9ec17d3c77273e2e",
    "c5_square_plane_quadratic.cert.json":
        "97f85f211cb1c625a7b6b5a397c983016550cec3f22399739bd076ba7aa8572c",
    "c6_interval_split_blocks.cert.json":
        "f2e10e75d1a87e0a1f67ae2eda3d0d5b7befff3ecde44366a5d4c416a8100e69",
    "c7_box_frame_line_quadratic.cert.json":
        "140546daa2f390d7a148f485e8b66c5822934cb6fff50b266e77eb36e0d5e8e4",
    "lambda-K16.cert.json":
        "663081049d86bc8b1d19c61f96d3b27fd4f629e0fdbc209a6694c93075859d83",
    "lambda-K64.cert.json":
        "1e5381629b4356d9d3fad29935b57d450d14ac24ac2e297799b661007d1126e6",
    "polya1-s1.cert.json":
        "f95239bee1121823f59e78ad25afeaea7210f261dcf102fceb68240f4fb620ed",
    "polya1-s1_2.cert.json":
        "dcd8f5f93282200adcaeb8122c0f78fbea2ad54f9e4e533b92086e2340f61eae",
    "polya1-s2.cert.json":
        "f8867c7b9ca430b0c3c12a1fb79df6e060e5b65dedd2b8337c42c2b4a18c3cd6",
    "polya2-K56.cert.json":
        "54f8f8f9da01e3051e4f9c6574373819ef0ecd6c2b55b6ba7f179edf366725a3",
    "c5_square_plane_quadratic.cert.json.basecache.json":
        "a9a2615edb48560b67317c82817a3037ae20d758897b334f50f110ae5636f68b",
    "polya2-K56.cert.json.basecache.json":
        "4bfedaf0b980db70ec2ad008d4ddb9450de18fb0a47a53e5d49e08eff701f947",
}

# sha256 over every float point the Gram searches of the snapshot return,
# the projections they make between them (13,710 before the stalled c5 and
# polya2-K56 rungs were left once their gaps stopped halving, 8,748 before
# rungs took Anderson steps in their linear tails), and the sha256 of
# `psd.steps`, the projections of each search in call order
PINNED_PSD = "9a3bd15a7090b2acd48912485d7d5412d2d9580fcd7fa09691f76fd1040b8a1c"
PINNED_PSD_STEPS = 4918
PINNED_PSD_STEPS_FILE = "a406202b0867f2474501f6d7500697e758d1c83bcf1a52bcbf531ff40b30cf27"

# sha256_of_obj of the list, in certification order, of the `fstar`,
# `conditions` and `perturbation` blocks of each `<id>.diag.json` of the
# snapshot: the floor scans' bounds, witnesses, resolutions and pair
# counts, which no certificate holds.  The scans are those pinned at
# commit c676c2a, where the scan still valued each exact pair with
# `BlockedPoly.eval_at`; c4's entry has lost its `fstar` block since its
# d = 0 sum of squares is tried before the floor scan.
PINNED_SCANS = "576054728bf2ab479eb3e8486d136295f89fd792884622d6e1bb110575d894d1"

# sha256_of_obj of the list of each sigma's expanded `sum w * q**2`, from
# `expanded.sha256`: the polynomials the certificates state, whatever
# squares and weights spell them.  Computed at commit c82bd54, before
# squares were made primitive and equal ones merged.
PINNED_EXPANDED = {
    "c1_interval_line_quadratic":
        "ea174d9490eb5a2ba91e8cbf2e2b263440eef4020316b45b5ba253dd3c023bbc",
    "c2_interval_line_quartic":
        "02fd8595d76302a1e25973dde8cb69de766d74d95b3b6e00ae2836b13a278e0e",
    "c3_interval_plane_quartic":
        "9429e7155d7000c52ca8892b3e6e7340086a504c28d054d66002a8863545d4be",
    "c4_pure_square_quartic":
        "78e37c68cf0a09c1e4c8955b83422b7116e0a9490a639e08bc575cc83682e8d8",
    "c5_square_plane_quadratic":
        "d003dcf34c67d45392319ef21437baeb64b69718df223b0d3ee9a98ca200e01b",
    "c6_interval_split_blocks":
        "fbb985785ffe7314acca1761d79f7054d84cf4ee24e0440e10247c4daf3a32ef",
    "c7_box_frame_line_quadratic":
        "9e6a78326df1363f0f7e97db494b783e44cafeb7b5d66b8fbb59c797f1cbd975",
    "lambda-K16":
        "2534c3dc5772c80cb2acf410466833205e5dec2e26ac8c695f394d7922766c01",
    "lambda-K64":
        "64dd7a9e431e484ecb41ae8416bcb76701e9391ea68031977e8d26f1e3c8abfd",
    "polya1-s1_2":
        "509be8b59d543a49c6bdab61e2eda4054eb3304af8402fafb890380ee5aeef5b",
    "polya1-s1":
        "801de468b0cf0527e3a11a6de2b14138f1efd61870946dc7881b0e5b59d170dd",
    "polya1-s2":
        "6102ae3f3791d21021666a6a4545608457c853c6664251b89a978be4bb9e085f",
    "polya2-K56":
        "6a1f5d6593dfbc1ab393a4893cbeead592bb7ba007cfab2ab53cbe8425297d49",
}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """One `tools/snapshot.py` run: every sample and bench family member."""
    outdir = tmp_path_factory.mktemp("snapshot")
    assert snapshot_tool().main([str(outdir)]) == 0
    return outdir


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pinned(snapshot, name, content_pin):
    """The file's content hashes to ``content_pin`` and its bytes to their pin."""
    path = snapshot / name
    assert sha256_of_obj(json.loads(path.read_text())) == content_pin
    assert _sha256(path) == PINNED_FILES[name]


@pytest.mark.parametrize("stem", sorted(PINNED_CERTIFICATES))
def test_certificate_bytes_are_pinned(snapshot, stem):
    sigmas = json.loads((snapshot / f"{stem}.cert.json").read_text())["sigmas"]
    assert sha256_of_obj(sigmas) == PINNED_SIGMAS[stem]
    _pinned(snapshot, f"{stem}.cert.json", PINNED_CERTIFICATES[stem])
    if stem in PINNED_SIDECARS:
        _pinned(snapshot, f"{stem}.cert.json.basecache.json", PINNED_SIDECARS[stem])


def test_largest_family_member_certificate_bytes_are_pinned(snapshot):
    """The snapshot's polya2-K56 is the n = 2 Polya member of the bench
    family: a stalled facet Gram rung and plane covers."""
    written = json.loads((snapshot / "inputs" / "polya2-K56.json").read_text())
    assert written == largest_family_member()
    _pinned(snapshot, "polya2-K56.cert.json", PINNED_CERTIFICATES["polya2-K56"])
    _pinned(snapshot, "polya2-K56.cert.json.basecache.json", PINNED_SIDECARS["polya2-K56"])


def test_snapshot_covers_every_input_and_pins_the_float_search(snapshot):
    written = sorted(p.name.removesuffix(".cert.json") for p in snapshot.glob("*.cert.json"))
    assert written == sorted(PINNED_CERTIFICATES)
    assert (snapshot / "psd.sha256").read_text() == PINNED_PSD + "\n"
    steps = (snapshot / "psd.steps").read_text().splitlines()
    assert sum(int(line.split(" ")[1]) for line in steps) == PINNED_PSD_STEPS
    assert _sha256(snapshot / "psd.steps") == PINNED_PSD_STEPS_FILE
    lines = (snapshot / "sigmas.sha256").read_text().splitlines()
    assert dict(line.split(" ") for line in lines) == PINNED_SIGMAS
    assert len(lines) == len(PINNED_SIGMAS)


def test_snapshot_pins_the_scan_evidence(snapshot):
    order = [line.split(" ")[0] for line in (snapshot / "sigmas.sha256").read_text().splitlines()]
    scans = []
    for stem in order:
        diag = json.loads((snapshot / f"{stem}.diag.json").read_text())
        scans.append({k: diag[k] for k in ("fstar", "conditions", "perturbation") if k in diag})
    assert len(scans) == len(PINNED_CERTIFICATES)
    assert sha256_of_obj(scans) == PINNED_SCANS


def test_gram_diagnostics_count_the_searches_of_their_run(snapshot):
    stem = "c5_square_plane_quadratic"
    steps = [
        int(count) for pid, count in
        (line.split(" ") for line in (snapshot / "psd.steps").read_text().splitlines())
        if pid == stem
    ]
    gram = json.loads((snapshot / f"{stem}.diag.json").read_text())["gram"]
    assert gram["searches"] == len(steps)
    assert gram["steps"] == sum(steps)
    # the three converging facet searches reach their linear tails, the
    # stalled one never does
    assert 0 < gram["accelerated"] < gram["steps"]


def test_snapshot_pins_the_expanded_sigmas(snapshot):
    lines = (snapshot / "expanded.sha256").read_text().splitlines()
    assert dict(line.split(" ") for line in lines) == PINNED_EXPANDED
    assert len(lines) == len(PINNED_EXPANDED)


def test_certificate_squares_are_primitive_and_distinct(snapshot):
    for stem in PINNED_CERTIFICATES:
        for sigma in json.loads((snapshot / f"{stem}.cert.json").read_text())["sigmas"]:
            texts = [canonical_dumps(q) for q in sigma["squares"]]  # terms in canonical order
            assert len(set(texts)) == len(texts), stem
            for q in sigma["squares"]:
                coeffs = [int(t["c"]) for t in q]  # no "/": an integer polynomial
                assert coeffs and coeffs[0] > 0 and math.gcd(*coeffs) == 1, stem


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
    sigmas = witnesses["11"]
    sigmas += [{"weights": [], "squares": []}] * 5 + [sigmas[1]]


def _cancel_a_doubled_square(witnesses):
    # sigma_0's first square at twice its weight, and again at minus that
    # weight: the identity holds, but a weight is negative
    sigma0 = witnesses["00"][0]
    weight = F(sigma0["weights"][0])
    sigma0["weights"][0] = str(2 * weight)
    sigma0["weights"].append(str(-weight))
    sigma0["squares"].append(sigma0["squares"][0])


def _add_x5_at_weight_0(witnesses):
    # a zero weight leaves the expansion unchanged; reused, x^5 would raise c9
    sigma0 = witnesses["00"][0]
    sigma0["weights"].append("0")
    sigma0["squares"].append([{"c": "1", "x": [5], "y1": [0]}])


@pytest.mark.parametrize(
    "tamper",
    [
        _copy_witness_00_to_11,
        _point_a_multiplier_at_generator_7,
        _cancel_a_doubled_square,
        _add_x5_at_weight_0,
    ],
)
def test_a_tampered_sidecar_leaves_the_run_unchanged(tmp_path, tamper):
    path = SAMPLES / "c1_interval_line_quadratic.json"
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    cold_sidecar, warm_sidecar = (Path(f"{out}.basecache.json") for out in (cold, warm))

    def certify(out):
        return cli.main(["certify", "--input", str(path), "--output", str(out)])

    assert certify(cold) == 0
    sidecar = json.loads(cold_sidecar.read_text())
    tamper(sidecar["witnesses"])
    warm_sidecar.write_text(json.dumps(sidecar))
    assert certify(warm) == 0
    assert warm.read_bytes() == cold.read_bytes()
    assert warm_sidecar.read_bytes() == cold_sidecar.read_bytes()


def test_a_sidecar_of_other_constraints_is_not_read(tmp_path):
    # c1's witnesses hold for c1's constraint; at c7's output path the
    # constraints hash keeps them out of c7's run
    c1, c7 = (SAMPLES / f"{stem}.json" for stem in ("c1_interval_line_quadratic",
                                                    "c7_box_frame_line_quadratic"))
    first, cold, warm = tmp_path / "c1.json", tmp_path / "cold.json", tmp_path / "warm.json"

    def certify(problem, out):
        return cli.main(["certify", "--input", str(problem), "--output", str(out)])

    assert certify(c1, first) == 0
    assert certify(c7, cold) == 0
    shutil.copyfile(f"{first}.basecache.json", f"{warm}.basecache.json")
    assert certify(c7, warm) == 0
    assert warm.read_bytes() == cold.read_bytes()
    assert Path(f"{warm}.basecache.json").read_bytes() == Path(f"{cold}.basecache.json").read_bytes()


def _entry_with_target_and_budget(key, sigmas, shape):
    parity = tuple(int(ch) for ch in key)
    return {"target": poly_to_obj(facet_product(shape, parity)), "budget": 4, "sigmas": sigmas}


def _entry_with_sigma0_and_multipliers(key, sigmas, shape):
    sigma0, *rest = sigmas
    return {"sigma0": sigma0, "multipliers": [[i, s] for i, s in enumerate(rest) if s["weights"]]}


def test_an_older_sidecar_is_read_as_empty_and_recomputed(tmp_path):
    # the layouts before entries became sigma lists: an object holding the
    # facet product as `target`, the degree `budget` and the `sigmas`, and
    # before that sigma_0, then [generator index, sigma] for each nonzero
    # multiplier
    path = SAMPLES / "c5_square_plane_quadratic.json"
    problem = problem_from_obj(json.loads(path.read_text()))
    key = constraints_key(problem)
    cold = tmp_path / "cold.json"
    cold_sidecar = Path(f"{cold}.basecache.json")

    def certify(out):
        return cli.main(["certify", "--input", str(path), "--output", str(out)])

    assert certify(cold) == 0
    for older in (_entry_with_target_and_budget, _entry_with_sigma0_and_multipliers):
        warm = tmp_path / f"{older.__name__}.json"
        warm_sidecar = Path(f"{warm}.basecache.json")
        sidecar = json.loads(cold_sidecar.read_text())
        sidecar["witnesses"] = {
            key: older(key, sigmas, problem.shape) for key, sigmas in sidecar["witnesses"].items()
        }
        warm_sidecar.write_text(json.dumps(sidecar))
        assert base_cache_from_obj(sidecar, key, problem.shape) == {}, older.__name__
        assert certify(warm) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert warm_sidecar.read_bytes() == cold_sidecar.read_bytes()


def _solving_frame_key(problem):
    """The key sidecars had before: the hash of the constraint list after
    the move to simplex coordinates, without the frame."""
    solving = rescale_to_simplex(problem)[0] if problem.frame == BOX else problem
    obj = problem_to_obj(solving)
    return sha256_of_obj({"g": obj["g"], "n": obj["n"], "variant": obj["variant"]})


@pytest.mark.parametrize("stem", ["c5_square_plane_quadratic", "c7_box_frame_line_quadratic"])
def test_a_sidecar_keyed_by_the_solving_frame_is_read_as_empty(tmp_path, stem):
    path = SAMPLES / f"{stem}.json"
    problem = problem_from_obj(json.loads(path.read_text()))
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    cold_sidecar, warm_sidecar = (Path(f"{out}.basecache.json") for out in (cold, warm))

    def reused(out):
        diag = tmp_path / "diag.json"
        argv = ["certify", "--input", str(path), "--output", str(out), "--diagnostics", str(diag)]
        assert cli.main(argv) == 0
        return json.loads(diag.read_text())["base"]["reused"]

    assert reused(cold) == []
    sidecar = json.loads(cold_sidecar.read_text())
    assert sidecar["constraints_hash"] == constraints_key(problem) != _solving_frame_key(problem)
    sidecar["constraints_hash"] = _solving_frame_key(problem)
    warm_sidecar.write_text(json.dumps(sidecar))
    assert base_cache_from_obj(sidecar, constraints_key(problem), problem.shape) == {}
    # read as empty once, then rewritten under the new key and reused
    assert reused(warm) == []
    assert warm.read_bytes() == cold.read_bytes()
    assert warm_sidecar.read_bytes() == cold_sidecar.read_bytes()
    assert reused(warm) == sorted(sidecar["witnesses"])


def test_written_files_are_the_canonical_bytes(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--input", str(problem_file), "--output", str(out)]) == 0
    problem = problem_from_obj(json.loads(problem_file.read_text()))
    cert = certificate_from_obj(json.loads(out.read_text()), problem.shape)
    assert out.read_bytes() == canonical_dumps(certificate_to_obj(cert)).encode()
    assert out.read_bytes().endswith(b"}\n")
    assert out.read_bytes().count(b"\n") == 1
    sidecar = tmp_path / "cert.json.basecache.json"
    assert sidecar.read_bytes() == canonical_dumps(json.loads(sidecar.read_text())).encode()


def _plain_json(obj, where="$"):
    """Assert ``obj`` holds only str, int, bool, None, lists and dicts with
    str keys: what the encoders build, and no float."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert type(key) is str, f"{where}: key {key!r}"
            _plain_json(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _plain_json(value, f"{where}[{i}]")
    else:
        assert obj is None or type(obj) in (str, int, bool), f"{where}: {obj!r}"


@pytest.mark.parametrize("stem", sorted(p.stem for p in SAMPLES.glob("*.json")))
def test_certify_writes_only_plain_json_values(tmp_path, monkeypatch, stem):
    # the certificate, sidecar and diagnostics objects, as handed to the encoder
    written = []
    monkeypatch.setattr(
        cli, "canonical_dumps", lambda obj: written.append(obj) or canonical_dumps(obj)
    )
    out = tmp_path / "cert.json"
    argv = ["certify", "--input", str(SAMPLES / f"{stem}.json"), "--output", str(out),
            "--diagnostics", str(tmp_path / "diag.json")]
    assert cli.main(argv) == 0
    # c4's plain SOS shortcut writes no sidecar
    assert len(written) == 2 + (tmp_path / "cert.json.basecache.json").exists()
    for obj in written:
        _plain_json(obj)


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def test_written_files_get_the_umask_mode_or_keep_their_own(problem_file, tmp_path):
    out, diag = tmp_path / "cert.json", tmp_path / "diag.json"
    sidecar = tmp_path / "cert.json.basecache.json"
    argv = ["certify", "--input", str(problem_file), "--output", str(out),
            "--diagnostics", str(diag)]
    umask = os.umask(0o022)
    try:
        assert cli.main(argv) == 0
        assert [_mode(p) for p in (out, sidecar, diag)] == [0o644] * 3
        # a file that exists keeps its mode; a new one follows the umask
        os.umask(0o077)
        out.chmod(0o640)
        diag.unlink()
        assert cli.main(argv) == 0
        assert [_mode(p) for p in (out, sidecar, diag)] == [0o640, 0o644, 0o600]
    finally:
        os.umask(umask)


def _write_indented(source, dest):
    """``source`` in the two-space-indented encoding files had before."""
    obj = json.loads(source.read_text())
    dest.write_text(json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n")


def test_indented_files_still_verify_and_fill_the_cache(snapshot, tmp_path, capsys):
    # a box-frame certificate and a sidecar as certify wrote them before
    # files became compact: the bytes hash to the content pins
    stem = "c7_box_frame_line_quadratic"
    problem = SAMPLES / f"{stem}.json"
    indented = tmp_path / f"{stem}.cert.json"
    _write_indented(snapshot / f"{stem}.cert.json", indented)
    assert _sha256(indented) == PINNED_CERTIFICATES[stem]
    reports = []
    for cert in (snapshot / f"{stem}.cert.json", indented):
        assert cli.main(["verify", "--problem", str(problem), "--certificate", str(cert)]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]

    stem = "c5_square_plane_quadratic"
    compact = snapshot / f"{stem}.cert.json.basecache.json"
    indented = tmp_path / f"{stem}.cert.json.basecache.json"
    _write_indented(compact, indented)
    assert _sha256(indented) == PINNED_SIDECARS[stem]
    problem = problem_from_obj(json.loads((SAMPLES / f"{stem}.json").read_text()))
    key = constraints_key(problem)
    cache = base_cache_from_obj(load_json(str(indented)), key, problem.shape)
    stored = json.loads(compact.read_text())
    assert len(cache) == len(stored["witnesses"])
    assert base_cache_to_obj(key, cache) == stored
    # certify reads it as warm and writes the same compact files again
    out = tmp_path / f"{stem}.cert.json"
    argv = ["certify", "--input", str(SAMPLES / f"{stem}.json"), "--output", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (snapshot / f"{stem}.cert.json").read_bytes()
    assert indented.read_bytes() == compact.read_bytes()


# Metadata that certificates carried beside their parameters before they
# held only those: for c4 (lambda = 0, the sum-of-squares shortcut) and
# c7 (box frame), as certify wrote it.  The reader ignores these keys.
OLDER_METADATA = {
    "c4_pure_square_quartic": {
        "archimedean_attested": True,
        "degrees": {"cap": 4, "first_term": [], "second_term": [4, 0]},
        "rescale": {"applied": False},
        "scales": ["3"],
    },
    "c7_box_frame_line_quadratic": {
        "archimedean_attested": True,
        "degrees": {"cap": 8, "first_term": [4], "second_term": [8, 8]},
        "rescale": {"applied": True, "n": 1, "offset": "1/2", "scale": "1/2"},
        "scales": ["12"],
    },
}

# sha256 of those compact files, and the report verify printed for them
OLDER_FILES = {
    "c4_pure_square_quartic": (
        "ee1faeaca82c5ba7de9942920b7d7e7fc0baf44df0bed352e723c8cd0698e569",
        '{"product_degrees": [4, 0], "sigma_degrees": [4, 0]}',
    ),
    "c7_box_frame_line_quadratic": (
        "cd95e62850fd16537e5116ef2d9b2f210be3e1dee247ddf0a554f6002ba30918",
        '{"product_degrees": [8, 8], "sigma_degrees": [8, 6]}',
    ),
}


@pytest.mark.parametrize("stem", sorted(OLDER_METADATA))
def test_certificates_in_the_older_layout_still_verify(snapshot, tmp_path, capsys, stem):
    obj = json.loads((snapshot / f"{stem}.cert.json").read_text())
    obj["metadata"].update(OLDER_METADATA[stem])
    compact = tmp_path / f"{stem}.cert.json"
    compact.write_text(canonical_dumps(obj))
    file_pin, report = OLDER_FILES[stem]
    assert _sha256(compact) == file_pin
    indented = tmp_path / f"{stem}.indented.json"
    _write_indented(compact, indented)
    for cert in (compact, indented):
        argv = ["verify", "--problem", str(SAMPLES / f"{stem}.json"), "--certificate", str(cert)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err.splitlines()[-1] == report


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


def test_tampered_certificate_fails_verification(problem_file, tmp_path):
    out = tmp_path / "cert.json"
    cli.main(["certify", "--input", str(problem_file), "--output", str(out)])
    obj = json.loads(out.read_text())
    obj["sigmas"][0]["weights"][0] = "-" + obj["sigmas"][0]["weights"][0]
    out.write_text(json.dumps(obj))
    code = cli.main(
        ["verify", "--problem", str(problem_file), "--certificate", str(out)]
    )
    assert code == errors.VerificationError.exit_code


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
            "residual": "1000",
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
    assert verify() == errors.VerificationError.exit_code
    payload = summary()["payload"]
    assert payload["kind"] == "IDENTITY_FAIL" and payload["residual"] == "8"
    assert verify("--tier", "exact") == errors.ValidationError.exit_code
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


# Edits that were once coerced (2.9 -> 2, 123 -> "123") and verified, or
# failed as another problem's certificate (exit 15); each path starts at
# the certificate object.
LOOSE_METADATA = [
    (("metadata", "k"), 2.9),
    (("metadata", "k"), "2"),
    (("metadata", "N"), 0.0),
    (("metadata", "c9"), "4"),
    (("metadata", "ell"), True),
    (("problem_hash",), 123),
    (("problem_hash",), ["x"]),
    (("problem_hash",), None),
]


@pytest.mark.parametrize(
    "field, value",
    LOOSE_METADATA,
    ids=[
        f"{'.'.join(field).removeprefix('metadata.')}={value!r}"
        for field, value in LOOSE_METADATA
    ],
)
def test_metadata_is_read_strictly(c3_certificate, tmp_path, capsys, field, value):
    problem_path, obj = c3_certificate
    obj = copy.deepcopy(obj)
    parent = obj
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
    assert code == errors.ValidationError.exit_code
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert summary["error"] == "VALIDATION"
    assert summary["payload"]["polynomial"] == "f"
    assert not out.exists()


def test_a_box_constraint_past_the_cap_in_simplex_coordinates_is_a_validation_error(
    tmp_path, capsys
):
    # c7 with g = 2^1000/4 - 2^1000 x^2: every input coefficient is within
    # the cap, but the move to simplex coordinates multiplies x^2 by 4;
    # keying the sidecar once ended this in a traceback
    obj = json.loads((SAMPLES / "c7_box_frame_line_quadratic.json").read_text())
    for term in obj["g"][0]:
        term["c"] = str(F(term["c"]) * 2**1000)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "cert.json"
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    printed, err = capsys.readouterr()
    assert code == errors.ValidationError.exit_code
    assert "Traceback" not in printed + err
    assert json.loads(err.splitlines()[-1])["error"] == "VALIDATION"
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
    assert code == errors.ValidationError.exit_code
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
    assert code == errors.NonpositiveWitnessError.exit_code
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
    assert code == errors.IndefiniteConditionError.exit_code


def test_minimize_subcommand(problem_file):
    assert cli.main(["minimize", "--input", str(problem_file)]) == 0
    # minimize always bounds f; a --target flag is a usage error
    assert cli.main(
        ["minimize", "--input", str(problem_file), "--target", "f"]
    ) == errors.ValidationError.exit_code


def test_minimize_nonpositive_exits_12(tmp_path):
    path = tmp_path / "neg.json"
    write_problem(path, lambda x, ys, one: ys[0] * ys[0] - one.scale(9))
    assert cli.main(["minimize", "--input", str(path)]) == errors.NonpositiveWitnessError.exit_code


def test_minimize_refuses_a_set_that_escapes_the_frame(tmp_path, capsys):
    # g = 4 - x^2 lets S reach past the box frame (-1, 1), so no bound
    # computed over the frame would cover S
    sample = SAMPLES / "c7_box_frame_line_quadratic.json"
    obj = json.loads(sample.read_text())
    obj["g"] = [[{"c": "4", "x": [0], "y1": [0]}, {"c": "-1", "x": [2], "y1": [0]}]]
    path = tmp_path / "escaping.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["minimize", "--input", str(path)]) == errors.ValidationError.exit_code
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
    assert code == errors.ValidationError.exit_code
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
    ) == errors.ValidationError.exit_code


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


def test_a_failure_payload_past_the_int_to_str_limit_still_prints(capsys):
    # c = (10^4200 - 1)/(10^4200 - 3) makes the power's bit estimate an
    # 8,401-digit integer, which the failure line prints in full
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code = cli.main(
        ["bound", "--theorem", "1.1", "--c", "9" * 4200 + "/" + "9" * 4199 + "7",
         "--d", "2", "--n", "1", "--fnorm", "3", "--fstar", "1/2"]
    )
    err = capsys.readouterr().err.splitlines()[-1]
    assert code == errors.ValidationError.exit_code
    assert '"error": "VALIDATION"' in err
    assert len(re.search(r'"power_bits_estimate": (\d+)', err)[1]) == 8401
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_bound_beyond_exact_reach_is_a_validation_error(capsys):
    # e^(argument^(1/2)) with argument near 2*10^322: the root stays exact
    # (no float conversion), and the power is refused rather than expanded.
    assert cli.main(
        ["bound", "--theorem", "1.1", "--c", "1/2", "--d", "40", "--n", "3",
         "--fnorm", "1e300", "--fstar", "1"]
    ) == errors.ValidationError.exit_code
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "VALIDATION"


def _bound_line(argv, capsys):
    code = cli.main(["bound", "--theorem", "1.1", "--d", "1", "--n", "1", "--fstar", "1", *argv])
    return code, json.loads(capsys.readouterr().err.splitlines()[-1])


def test_bound_with_a_huge_integer_c_is_refused_before_the_power(capsys):
    # e^(2^(10^12)): forming 2^(10^12) alone would not fit in memory
    code, summary = _bound_line(["--c", "1000000000000", "--fnorm", "2"], capsys)
    assert code == errors.ValidationError.exit_code
    assert summary["error"] == "VALIDATION"
    assert summary["payload"]["exponent_bits_at_least"] > 2**17


def test_bound_with_a_huge_fractional_c_is_refused_before_the_root(capsys):
    code, summary = _bound_line(["--c", "2000000000001/2", "--fnorm", "2"], capsys)
    assert code == errors.ValidationError.exit_code
    assert summary["payload"]["exponent_bits_at_least"] > 2**17


def test_bound_with_an_argument_just_above_one_is_refused_quickly(capsys):
    # argument 1 + 10^-12 and c = 10^12: the exponent is near e, but the
    # exact power argument^c would have about 4 * 10^13 bits
    started = time.monotonic()
    code, summary = _bound_line(
        ["--c", "1000000000000", "--fnorm", "1000000000001/1000000000000"], capsys
    )
    assert time.monotonic() - started < 1
    assert code == errors.ValidationError.exit_code
    assert summary["payload"]["power_bits_estimate"] > POWER_BITS_CAP


def test_bound_of_a_formula_without_the_degree_power_is_refused_quickly(capsys):
    # formula 2.3 never uses (3n)^d, which once was formed anyway: past
    # 60 s at d = 10^8; the argument 10^16 is then refused at exp_upper
    started = time.monotonic()
    code, summary = _bound_line(["--theorem", "2.3", "--d", "100000000", "--fnorm", "1"], capsys)
    assert time.monotonic() - started < 1
    assert code == errors.ValidationError.exit_code
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
    assert code == errors.ValidationError.exit_code
    assert summary["payload"]["power_bits_estimate"] > POWER_BITS_CAP


def test_bound_with_a_fractional_c_of_large_denominator_ends_quickly(capsys):
    # c = 1/100000: the root operand of argument^c has 100000 times the
    # bits of the argument, and the root has degree 100000
    started = time.monotonic()
    code, _summary = _bound_line(
        ["--c", "1/100000", "--fnorm", "1000000000001/1000000000000"], capsys
    )
    assert time.monotonic() - started < 1
    assert code in (0, errors.ValidationError.exit_code)


def test_bound_with_an_argument_below_one_needs_no_power(capsys):
    # argument 1/2: (1/2)^(10^12) lies in (0, 1], so e is raised to the power 1
    code, summary = _bound_line(["--c", "1000000000000", "--fnorm", "1/2"], capsys)
    assert code == 0
    assert F(summary["bound"]) == 10**12 * E_UPPER


def test_usage_errors_do_not_collide_with_numeric_success(capsys):
    assert cli.main(["certify", "--input", "p.json"]) == errors.ValidationError.exit_code
    assert cli.main(["bound", "--theorem", "7.7", "--d", "1", "--n", "1",
                     "--fnorm", "1", "--fstar", "1"]) == errors.ValidationError.exit_code
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--input", "x"],
        ["bound", "--theorem", "1.1", "--d", "1", "--n", "1", "--fnorm", "1", "--fstar", "abc"],
        ["frobnicate"],
    ],
)
def test_a_usage_error_ends_in_the_json_summary_line(argv, capsys):
    assert cli.main(argv) == errors.ValidationError.exit_code
    last = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert sorted(last) == ["error", "message", "payload"]
    assert last["error"] == "VALIDATION"
    assert last["message"].startswith("cylcert")


@pytest.mark.parametrize("argv", [["-h"], ["certify", "--help"], ["bound", "-h"]])
def test_help_still_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    assert "usage: cylcert" in capsys.readouterr().out


def test_running_out_of_memory_ends_as_an_exhausted_budget(
    problem_file, tmp_path, capsys, monkeypatch
):
    from cylcert import pipeline

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pipeline, "certify_problem", exhausted)
    out = tmp_path / "cert.json"
    code = cli.main(["certify", "--input", str(problem_file), "--output", str(out)])
    assert code == errors.BudgetExhaustedError.exit_code == 13
    last = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert last["error"] == "BUDGET_EXHAUSTED"
    assert last["payload"] == {"command": "certify"}
    assert not out.exists()


def test_out_of_memory_is_reported_after_the_failed_command_is_freed(
    problem_file, tmp_path, monkeypatch
):
    from cylcert import pipeline

    class Held:
        pass

    finalizers = []

    def exhausted(*args, **kwargs):
        held = Held()
        finalizers.append(weakref.finalize(held, lambda: None))
        raise MemoryError

    alive_at_emit = []
    emit = cli._emit

    def recording(obj):
        alive_at_emit.append(finalizers[0].alive)
        emit(obj)

    monkeypatch.setattr(pipeline, "certify_problem", exhausted)
    monkeypatch.setattr(cli, "_emit", recording)
    argv = ["certify", "--input", str(problem_file), "--output", str(tmp_path / "cert.json")]
    assert cli.main(argv) == errors.BudgetExhaustedError.exit_code
    assert alive_at_emit == [False]


# the row of the README exit-code table each error class exits with,
# by the start of its meaning
README_ROW = {
    errors.CylcertError: "invalid input problem",
    errors.ValidationError: "invalid input problem",
    errors.NoFeasibleSampleError: "invalid input problem",
    errors.IndefiniteConditionError: "leading form condition fails",
    errors.NonpositiveWitnessError: "target is not positive",
    errors.BelowThresholdError: "search exhausted",
    errors.ResolutionExhaustedError: "search exhausted",
    errors.SearchExhaustedError: "search exhausted",
    errors.BudgetExhaustedError: "search exhausted",
    errors.SosStalledError: "search exhausted",
    errors.CapExceededError: "cap exceeded",
    errors.VerificationError: "certificate fails verification",
    errors.SchemaError: "I/O or schema error",
    errors.ShapeMismatchError: "I/O or schema error",
}

ERROR_CLASSES = [
    klass for klass in vars(errors).values()
    if isinstance(klass, type) and issubclass(klass, errors.CylcertError)
]


@pytest.mark.parametrize("klass", ERROR_CLASSES, ids=lambda klass: klass.__name__)
def test_every_error_exits_with_its_readme_code(klass, capsys):
    section = (SAMPLES.parent / "README.md").read_text().split("### Exit codes")[1]
    table = dict(re.findall(r"^\| (\d+) +\| (.+?) \|$", section.split("\n## ")[0], re.M))
    [code] = [int(c) for c, meaning in table.items() if meaning.startswith(README_ROW[klass])]
    assert klass.exit_code == code
    assert cli._fail(klass("probe")) == code
    assert json.loads(capsys.readouterr().err)["error"] == klass.code


# removed options are usage errors: the search caps, now constants, and
# the validation seed, which changed no certificate
@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("certify", "--grid-depth", "5"),
        ("certify", "--lambda-cap", "2^40"),
        ("certify", "--budget-cap", "8"),
        ("minimize", "--grid-depth", "5"),
        ("certify", "--seed", "7"),
        ("minimize", "--seed", "7"),
    ],
)
def test_search_caps_are_not_options(problem_file, tmp_path, capsys, command, flag, value):
    out = tmp_path / "cert.json"
    argv = [command, "--input", str(problem_file), flag, value]
    if command == "certify":
        argv += ["--output", str(out)]
    assert cli.main(argv) == errors.ValidationError.exit_code
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


def _qrr_problem(r):
    """f = (1 + x)(1 + sum y_j^2) on g = -1/8 + 3x/4 - x^2, simplex frame, quadratic_rr."""
    zero = [0] * r

    def term(c, x, y):
        return {"c": c, "x": [x], "y1": y}

    squares = [[2 if i == j else 0 for i in range(r)] for j in range(r)]
    f = [term("1", x, y) for x in (0, 1) for y in (zero, *squares)]
    g = [[term("-1/8", 0, zero), term("3/4", 1, zero), term("-1", 2, zero)]]
    return {
        "archimedean_attested": True, "frame": "simplex", "m": 2, "n": 1, "r": r,
        "variant": "quadratic_rr", "f": f, "g": g,
    }


def test_wide_quadratic_rr_problems_certify_without_a_wide_cover(tmp_path, capsys, monkeypatch):
    # The Polya stage tests its exponents at coordinate points and builds
    # no cover, and the floor scan's covers keep no coordinate, so r = 5
    # and r = 8 certify without any cover above 2^16 entries
    from cylcert import covers

    build = covers._projected_entries

    def guarded(dim, resolution, kept):
        if (resolution + 1) ** len(kept) > 1 << 16:
            pytest.fail(f"built a cover of dim {dim} at resolution {resolution}")
        return build(dim, resolution, kept)

    monkeypatch.setattr(covers, "_projected_entries", guarded)
    for r in (5, 8):
        path, cert = tmp_path / f"qrr{r}.json", tmp_path / f"qrr{r}.cert.json"
        path.write_text(json.dumps(_qrr_problem(r)))
        assert cli.main(["certify", "--input", str(path), "--output", str(cert)]) == 0
        assert cli.main(["verify", "--problem", str(path), "--certificate", str(cert)]) == 0
    capsys.readouterr()


# sha256 of the narrow quadratic_rr certificates; they certify at N = 0,
# so no change to the Polya stage's exponent test may alter them
PINNED_QRR = {
    2: "f241c99b56f301a713d85724d61c17704bcbe51197eeb1dd2a2d838d6a9cf411",
    3: "7a5b174480ce706d7d737044c49230492be554f2e9ddda37c037b1f49e1903aa",
    4: "3c8463f7b06130b5af24f62729bb5f432ea7a7900c27a58c0cece846af092395",
}


@pytest.mark.parametrize("r", sorted(PINNED_QRR))
def test_narrow_quadratic_rr_certificates_are_pinned(tmp_path, capsys, r):
    path, cert = tmp_path / f"qrr{r}.json", tmp_path / f"qrr{r}.cert.json"
    path.write_text(json.dumps(_qrr_problem(r)))
    assert cli.main(["certify", "--input", str(path), "--output", str(cert)]) == 0
    capsys.readouterr()
    assert _sha256(cert) == PINNED_QRR[r]


def test_an_exact_phase_over_its_size_cap_ends_in_time(tmp_path, capsys):
    # c5 with -2 x1 x2^3 added to g1 and g2's constant 10^-29: its facet
    # system's normal matrix has 45 rows, 42 of them coupled, of numbers
    # up to 198 bits, whose elimination and LDL^T ran for minutes before
    # the size cap
    obj = json.loads((SAMPLES / "c5_square_plane_quadratic.json").read_text())
    obj["g"][0].append({"c": "-2", "x": [1, 3], "y1": [0, 0]})
    obj["g"][1][0]["c"] = f"1/{10**29}"
    path = tmp_path / "c5-mutant.json"
    path.write_text(json.dumps(obj))
    started = time.monotonic()
    code = cli.main(["certify", "--input", str(path), "--output", str(tmp_path / "c.json")])
    assert time.monotonic() - started < 30
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (code, summary["error"]) == (errors.CapExceededError.exit_code, "CAP_EXCEEDED")
    assert summary["payload"] == {
        "stage": "elimination", "coupled_rows": 42, "bits": 198, "size": 42 * 198, "cap": 4096,
    }


@pytest.mark.parametrize("name, payload", [
    # box2 stops at the pair budget; box3's 22.6 M-row grid at resolution
    # 512 is refused by the memory estimate before the grid is built
    ("box2", {"budget": 250_000_000, "rows": 290_521, "sphere_points": 2049}),
    ("box3", {"budget": 268_435_456, "estimated_bytes": 1_632_716_936, "resolutions": [512, 256]}),
])
def test_box_inputs_stop_at_a_scan_budget(tmp_path, capsys, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(BOX_INPUTS[name]))
    code = cli.main(["certify", "--input", str(path), "--output", str(tmp_path / "c.json")])
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (code, summary["error"], summary["payload"]) == (
        errors.BudgetExhaustedError.exit_code, "BUDGET_EXHAUSTED", payload
    )
