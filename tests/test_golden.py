"""Golden SHA-256 digests of every CSV the five subcommands write at the
default config, and of the criteria their manifests record.

Any change to a CSV byte, or to a criterion's name, verdict, detail or
place in manifest.json's "criteria" list, at the default grid (1D N=2048,
M=64, max_level=6, the built-in corpus with seed 1234) fails here, at
--jobs 1 and at --jobs 2 alike.  A change that alters them on purpose
states the drift and updates the digests in the same change.  The pins
after them cover jn on boxes of other sides, every subcommand on a 2D grid,
the operator stack at a spacing that is not a dyadic rational, and the
operator stack on the two grids of the benchmark's spectral workload.
"""

import hashlib
import json

import pytest

from lpsquare.cli import main

DIGESTS = {
    "kernel-check": {
        "kernel_check.csv":
            "533f6712fc34008b4d0076c19366a585a862b25a4f6314e7cf1131b6009304a0",
    },
    "weights": {
        "weights.csv":
            "b2d63f38c3460b218560af2226d7416b4872eb46d81e97978ab6e93f0bf62bd1",
    },
    "operators": {
        "operators.csv":
            "6307a389d4d47baeeda1ec230461a5df416013ea80d573b1d24ac9054e725e03",
    },
    "theorem-suite": {
        "theorem_suite.csv":
            "551d205efab48459e694c9044e9d37cf5e765c56441b49a71721f57985c64b8e",
    },
    "jn": {
        "equivalence.csv":
            "9fb7a0dc4e1a8be9a58067e0b093b3c2a749b48aa5d1f8409bfeee584591c8b4",
        "jn_summary.csv":
            "d5f48d8ac75bde32722476eac102cd65ec90ddef97b1eba9dfa4b2165ff36e4e",
        "jn_tail_blo_logspike-const.csv":
            "270a5e55fa1e9ceb3712dca2241e139aa4724082494a5c28aed3197de78946f0",
        "jn_tail_blo_logspike-piecewise.csv":
            "bace26b0b8468c7b3ad7418fa13360fd012136b658035323424cec17d68ac289",
        "jn_tail_blo_logspike-powreg.csv":
            "f12c2647d21e248a4f35565b85c34b5cffe58d752eaacba8a704df9adc0f51d0",
        "jn_tail_blo_martingale-const.csv":
            "fb093a65890454e01acef2f9361b3f7214f83a74d8498d8d2c85c734fc258740",
        "jn_tail_blo_martingale-piecewise.csv":
            "c8944d1619a58de14ade1f19c03011d4d0f3a3cc3652b33051212e56da997c93",
        "jn_tail_blo_martingale-powreg.csv":
            "90a990f8cf237ab42deb22ecbbdcc575abda64d2c5a2839b8915ab0d69521d4e",
        "jn_tail_blo_sawtooth-const.csv":
            "29bb4e65ac13f7b79016a5aeed7e930cc5419b0b6842bd08ef9528ef22a8f1e0",
        "jn_tail_blo_sawtooth-piecewise.csv":
            "65c222c099c4c58456add58b427822a114a366489dc602f4d903376359915365",
        "jn_tail_blo_sine-const.csv":
            "130b3755a6ec3c2994e2bfad0a85d7c40f3fb089601ce24a996a80c728725872",
        "jn_tail_blo_sine-powreg.csv":
            "bc555e2178690e6adb081bc25483d1bae19c0384247a08e7843d42c4fb44f00e",
        "jn_tail_blo_step-const.csv":
            "a7bbe6ad67feb6af11aac0c16e2ba30ee7194e074020c24157616fea6e624237",
        "jn_tail_blo_step-powreg.csv":
            "037d769401fde936e4a1147d6d8bd83fdf01fd80cf796b32bcfd63137d38fa7b",
        "jn_tail_bmo_logspike-const.csv":
            "946954a6379d45816537a76c46d8fd0365601f48e5b3e813d8cad9bbe6be0cc8",
        "jn_tail_bmo_logspike-piecewise.csv":
            "f856f54414b8c902f910d2b46c044bccc571002e0a128977308a1e498a76f1d5",
        "jn_tail_bmo_logspike-powreg.csv":
            "9616a1492c37700e03a09aaf1618c4fa16ea5bcdeb7d5afe7868e69297bdeef0",
        "jn_tail_bmo_martingale-const.csv":
            "af058bb969579bc65dc7dad79737a151c92461a0796d6abf34bf8dbd6858284f",
        "jn_tail_bmo_martingale-piecewise.csv":
            "360312cd7a13afbe68322464c27147266b7d73df74aec9c69c6d8f966d280698",
        "jn_tail_bmo_martingale-powreg.csv":
            "cac07b9a64a7287bb92e504e36a58ebff8f0a16e571095b92faaf941c0b1b3e5",
        "jn_tail_bmo_sawtooth-const.csv":
            "af784c2c851519bdab1244bcb88af76f895bfd4c62bb11e2bd479a98cdf09863",
        "jn_tail_bmo_sawtooth-piecewise.csv":
            "09403a006094513771dd6adb0cc5840166a82595e77b69a54a858c8fce3242ab",
        "jn_tail_bmo_sine-const.csv":
            "ddfea3d260ee6bf99dcda21c9fe9f7225aea423e5ffea4d5748f33c222c9955f",
        "jn_tail_bmo_sine-powreg.csv":
            "d5c9a53602c5c6712fd4dbbf48f1eb7293d3acb60082818c3afb094b82a8c71d",
        "jn_tail_bmo_step-const.csv":
            "b4ec93d22d424e8e03354d5e6bf1fd588cdcb981cb2e1af780ce1331cd06ca2b",
        "jn_tail_bmo_step-powreg.csv":
            "5175b305f7b3d662492e9216f56e4c0e3b046678c966ebe964bc4752e7f62ce3",
    },
}

# SHA-256 of json.dumps(manifest["criteria"]), as read back from the file
CRITERIA = {
    "kernel-check":
        "0d21d8f057b0cbd03a3fd16737995c4ed1768cbb3970b56a74e1c070c6935d5e",
    "weights":
        "77e37936b892c070c798c90293ffaec5698ddd3ebd104552e9a4919402a31543",
    "operators":
        "37a5606271cc620f11a65e863ce3305604354d57ae2bfa93118b136a8bb94020",
    "theorem-suite":
        "4ed0b36b33b88a7b43caec46ec4132c8348723b706db6f87ccb395ec091dcbdb",
    "jn":
        "be6bd9d61d5e3a4367b5b1bd95fd0f8d52d758f16efa4ed3c368840ff57e7bd5",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_default_config_csvs_are_byte_identical(tmp_path, command, jobs):
    assert main([command, "--jobs", jobs, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert digests == DIGESTS[command]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(CRITERIA))
def test_default_config_criteria_are_unchanged(tmp_path, command, jobs):
    assert main([command, "--jobs", jobs, "--out", str(tmp_path)]) == 0
    criteria = json.loads((tmp_path / "manifest.json").read_text())["criteria"]
    digest = hashlib.sha256(json.dumps(criteria).encode()).hexdigest()
    assert digest == CRITERIA[command]


# jn at 1D N=1024 on boxes of other sides: SHA-256 of the sorted
# "<csv name> <csv digest>" lines, and of the criteria.  At L=0.7 the
# spacing h is not a dyadic rational, so a tail mass summed from h's
# rounds where count * h does not; at L=3.0 the two agree.
JN_BOXES = {
    "3.0": ("6755ca2a6fa6eadad0fcd0539bda682453e87e4f12c6babc98861c55318c7f1a",
            "ddb6da31393538f7e2d8bbc604dc2ed7b3bf6d131066ccb8f203f8f217d0623f"),
    "0.7": ("ffbd088126b69756296d26f6ea622f6d9a0016e9dacfd170bb794a89fd7a8688",
            "a83cc7319787f71772c685a4020c7ad8d3ddf980bf0ed72593fdf025e770f71e"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("L", sorted(JN_BOXES))
def test_jn_on_other_box_sides_is_byte_identical(tmp_path, L, jobs):
    assert main(["jn", "--jobs", jobs, "--set", f"grid.L={L}",
                 "--set", "grid.N=1024", "--out", str(tmp_path)]) == 0
    listing = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(tmp_path.glob("*.csv")))
    criteria = json.loads((tmp_path / "manifest.json").read_text())["criteria"]
    assert (hashlib.sha256(listing.encode()).hexdigest(),
            hashlib.sha256(json.dumps(criteria).encode()).hexdigest()) \
        == JN_BOXES[L]


def _listing_and_criteria(out, args):
    """SHA-256 of the sorted "<csv name> <csv digest>" lines a run writes,
    and of its manifest's criteria."""
    assert main([*args, "--out", str(out)]) == 0
    listing = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(out.glob("*.csv")))
    criteria = json.loads((out / "manifest.json").read_text())["criteria"]
    return (hashlib.sha256(listing.encode()).hexdigest(),
            hashlib.sha256(json.dumps(criteria).encode()).hexdigest())


# Every subcommand at 2D N=64, max_level 5: (listing, criteria) digests as
# in JN_BOXES.  The default-config digests above run only the 1D code.
GRID_2D = ("--set", "grid.n=2", "--set", "grid.N=64",
           "--set", "family.max_level=5")
DIGESTS_2D = {
    "kernel-check":
        ("385c3c0b59bf5b7e54972cb0f405219380eeb7061d69a2e71dd7af8924e19833",
         "32b89eeac5f68af64f10d9e6dfdf390719db614beaf6219ca3b9cba0206275d0"),
    "weights":
        ("a81834efccf93e462e7ea1c5e018ef405ff00e63cf6370e650f11888aab83035",
         "abe0e9ebb97cc02d53dc6d911ade12dc1f4d9a985b601cc5f677f4d0702f8538"),
    "operators":
        ("2ad32af5f9a24f0738bacf0d49fdd4ffad3456a3d6b6bf219f06ec182ac98db3",
         "b397834b11a52ec3740b48bc419bbfb32da3ca8b5ff6a3c6e1014b60bb2b86e9"),
    "theorem-suite":
        ("8895b2976fd2fe3376a4ded39baf364cc5cb1098d92d2a8fa5eb3fe94b9ce1e8",
         "374137a1129f97e810077019d8a3080fb0e0178cbd424092973e892be09a7e3f"),
    "jn":
        ("3bcfa27db7aef26a92a629dd278d9fb6dafd0e5ac6cf0b76d5ca43d12a4d45bc",
         "f2aee35bdcf285a673de3f33b0a71a45b3a6ff5a4a2c3fd0f11186d77d91f93b"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(DIGESTS_2D))
def test_2d_grid_is_byte_identical(tmp_path, command, jobs):
    assert _listing_and_criteria(tmp_path, (command, "--jobs", jobs,
                                            *GRID_2D)) == DIGESTS_2D[command]


# The operator stack at 1D N=1024 on the box of side 0.7, where the
# spacing h is not a dyadic rational, so the displacements d/t and their
# radii round as they would not at L=1.
NON_DYADIC_H = ("--set", "grid.L=0.7", "--set", "grid.N=1024")
DIGESTS_NON_DYADIC_H = {
    "operators":
        ("5d60474272ae5a35f495b469287aad0907a1ced9cabf98911530b3fbdda3c33c",
         "b295aa17be60d3f166c530b318a0774a71c90f616a22ea476ad0aed315adcda7"),
    "theorem-suite":
        ("1ab6c17290214f346bb76510208c7f49d39c9a79c988266fe5e3a712c2129a0d",
         "739d21dad05b7e66f7e0716072cc0a50c73e6ef4e4d406e4e2acedc72bb18e37"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(DIGESTS_NON_DYADIC_H))
def test_non_dyadic_spacing_is_byte_identical(tmp_path, command, jobs):
    assert _listing_and_criteria(
        tmp_path, (command, "--jobs", jobs, *NON_DYADIC_H)) \
        == DIGESTS_NON_DYADIC_H[command]


# The grids of the benchmark's spectral workload, where the operator stack
# does most of its work: operators at 2D N=128 and theorem-suite at 1D
# N=16384, with the default seed, M and max_level.
SPECTRAL_GRIDS = {
    "operators":
        (("--set", "grid.n=2", "--set", "grid.N=128"),
         ("c89ce1c92955ee0af5ea3238568c84d2a933ec146657341a8f389ac69a547ba7",
          "0b2ce835f8f8d55820f11af2b59963a195007955e3304a654e39c734ba217a98")),
    "theorem-suite":
        (("--set", "grid.N=16384"),
         ("2620acb6ce2fbdff47026d74856d43b84a993de07609d0f4555f4df535576886",
          "e46fa5ea8b6f0ce25fcea20736de574a7c9849364bc59204e7ae9282b183a6b6")),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(SPECTRAL_GRIDS))
def test_spectral_grids_are_byte_identical(tmp_path, command, jobs):
    grid, digests = SPECTRAL_GRIDS[command]
    assert _listing_and_criteria(tmp_path, (command, "--jobs", jobs,
                                            *grid)) == digests
