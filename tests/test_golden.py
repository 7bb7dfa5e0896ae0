"""Byte-identity tripwire: the CLI's stdout on the catalog and wider fans.

Each ``GOLDEN`` entry maps (command, builtin fan, format) at cutoff 3 to the
exit code and the SHA-256 of the complete stdout.  The hashes were recorded
from ``toriq <command> --fan <name> --cutoff 3 --format <json|text>`` before
the classical Groebner code was folded into the deformed completion.

Each ``GOLDEN_FILES`` entry maps (command, fan, cutoff, format) to the same
pair for a fan read from a JSON file: the hexagon dP6, P2xP2, P1xdP6 and the
weak del Pezzo surfaces wdP5, wdP4 and wdP3.  Those hashes were recorded
before effective classes were enumerated by projection bounds and the series
was built from per-ray factors; the ``certify`` entry for wdP5, whose
completion adds 7 elements, was recorded while the certificate still took
the determinant of ``phi``.  The ``ifunction`` entry for wdP5 at cutoff 4 and
the ``GOLDEN_DEEP`` entry for the builtin F3 at cutoff 6 were recorded while
cohomology classes were still tuples of Fractions; both series carry large
denominators.  The ``ifunction`` entry for wdP4 at cutoff 4 and the
``certify`` entry for P1xdP6 at cutoff 4 were recorded while the Mori cone's
facets still came from one nullspace per generator subset and the completion
still reduced every S-pair.  The four ``analyze`` entries for wdP4 and
wdP3 were re-recorded when ``positive_functional`` lost its size guard and
returned the smallest functional on those fans as well; the functional is
the only line of those reports that changed.  The ``ifunction`` and
``certify`` entries for wdP3 at cutoff 4 were first recorded then, since
before Chernikov's rule the enumeration ran out of memory there.  Before
they were recorded, the ``analyze``, ``ifunction`` and ``certify`` reports
at cutoff 4 passed ``check_report`` of ``perfbench/checks.py`` (imported
read-only) against ``checks.FanRef(workloads.FANS["wdP3"])``.  The four
``analyze`` entries for the products wdP3xwdP3 and wdP3xwdP4
(``oracles.product_fan``, the first factor's rays first) were recorded
while ``positive_functional`` still pruned its eliminations by Chernikov's
rule, which took 7 to 11 s and 777 MiB on each, and while ``analyze``
still built the cohomology ring for its graded dimensions.  A change
meant to keep the reports unchanged must leave every entry intact.

Every JSON report must also be the stdlib's ``json.dumps(report, indent=2)``
of itself, the reference for the CLI's own JSON writer.
"""

import hashlib
import json

import pytest

from oracles import product_fan, wdp3, wdp4
from toriq.cli import main

GOLDEN = {
    ("analyze", "P1", "json"): (0, "4b5707dd54b93d3bc7fc1de6dd4c501509602c459aec91d6d8a619d440f7302a"),
    ("analyze", "P1", "text"): (0, "8da816b2a415d826a14608f9907e1a13edca3ce80f602e278e754e631ef44bcb"),
    ("ifunction", "P1", "json"): (0, "de11292d6234f6ccf1af19452366b050333376ad5f1550621e3146c863f52ead"),
    ("ifunction", "P1", "text"): (0, "b5a3a94921f20f59a900757a264979ff15d456788f4621d74352cedcdaf3a59a"),
    ("certify", "P1", "json"): (0, "a84531551466ccdaf07e336efc944d2bc67fd522d991fd23ada999ce1959e522"),
    ("certify", "P1", "text"): (0, "688e528602b53ef28a270ef97750ec22c180fe3b9c6609c0ee393ef9c0a7b1d0"),
    ("analyze", "P2", "json"): (0, "3755e48f3aa951a5bbfe28d44cca9955db3eb8c2db1fe47c43b7db34375a67b5"),
    ("analyze", "P2", "text"): (0, "48e914156c00acefd1c0d1b592ee0b88a598691613848635be72ce0e855ef2d5"),
    ("ifunction", "P2", "json"): (0, "61d2480267e4471e9675d0b2dc7db937703da81d95a36cb424c81b575c95e5fa"),
    ("ifunction", "P2", "text"): (0, "5da414417db2448c63b8c8ac173f15a1f9c03a983ee614a8ef7d2fa191633ca5"),
    ("certify", "P2", "json"): (0, "cfd2219db5be17362de3d76083f78beee39883491c4e36367f591e3d8e7cfad3"),
    ("certify", "P2", "text"): (0, "11fe18b6027310b7c918abb1f810a7fe1a6c23f98f46cc250ec795fc718fc8e1"),
    ("analyze", "P1xP1", "json"): (0, "f780ab5d9e18f0185338c19703b1ac874503fbf2dda5cb5a5dbac85fc7854b32"),
    ("analyze", "P1xP1", "text"): (0, "ff22c7666f89b85ea9067531f85904fec3165372d2cdf794d3148ce80c11a3b4"),
    ("ifunction", "P1xP1", "json"): (0, "cbc7ad54f8a630b60b6de8e1be73d3345c249be595871c7c64729a6be53f95e4"),
    ("ifunction", "P1xP1", "text"): (0, "cd45d3a96c8cb1af7ca0fddbafd0dd72ba468342cc152f2a9a780b31548c956b"),
    ("certify", "P1xP1", "json"): (0, "27cab8f63cf4845809c61e1d7352f6db47673493ce8949f31d36b2f46dc668d3"),
    ("certify", "P1xP1", "text"): (0, "43049b5c4bc1ac2456600c4f9d10fc8102e8130a6233f2acdbf433b264e30e1a"),
    ("analyze", "F0", "json"): (0, "21f898e8567d501b1cb6d8b17e4b84ffde3cedb952071ff62f1c4057251a26f5"),
    ("analyze", "F0", "text"): (0, "86e68e62e74b8359826bd071dffcdad0dfa0986afe60fc2bb4d7238a56131d77"),
    ("ifunction", "F0", "json"): (0, "d4044c62d83adfffad8a6ce32965868d5b87f37872d1c1ad39fe093798b446c5"),
    ("ifunction", "F0", "text"): (0, "c82df4b492b941f987d0930a5efaa784100090c8dd19689cdba5b5cd69068301"),
    ("certify", "F0", "json"): (0, "ca4444f9a93195e7be03803d489b05f2f090f17f32420ce6e7b7f715af82cd9c"),
    ("certify", "F0", "text"): (0, "d0676fe6d0b5a20f44f626492cd083d99d5b1e4570872bbccede72127b4bd71f"),
    ("analyze", "F1", "json"): (0, "4ea93a1e878111b89c3e547ba7c0f1b3cb52f8f121ffde374b1ab96f9eae5422"),
    ("analyze", "F1", "text"): (0, "78a15b65ac752adf1450e389fe5bf2c03d9e2b03e156db54be2fba8d6edd78a3"),
    ("ifunction", "F1", "json"): (0, "b236063edfd697804bf8abd587dd544c9369051592e90471495a7454fcf449fd"),
    ("ifunction", "F1", "text"): (0, "835b652c7565f707cb653bde5262a9a27b25ff641b62ce60ca8028aeaf697ace"),
    ("certify", "F1", "json"): (0, "44109b38a84219898cffb5158ed7e1ce80330da0e944317c85bf4a5b8879600a"),
    ("certify", "F1", "text"): (0, "9d1a0283b824216a9a5a5783958552c5f0d0a302916a195234a5d61b45c67d17"),
    ("analyze", "F2", "json"): (0, "6cffabe37f81faa95bfecf769f37652a01e8ee8c2e2894a810e984b6878e6171"),
    ("analyze", "F2", "text"): (0, "ed6ecddec3e74d60d52a9dbe8da6de153dabc40e6c18bb79f99fc5d201cd42de"),
    ("ifunction", "F2", "json"): (0, "01eab222b7cea13072ff41a7f1ae9bdca8823a2613a44ac14d04ea93e05a4cb9"),
    ("ifunction", "F2", "text"): (0, "3d26ef971107644f49b2e4948d7bdba9cdfc323d2700077adf0463d6d587523c"),
    ("certify", "F2", "json"): (0, "efb5dcdd853e33bfdfc3e4d74287e89cbeff962c3a9094797a1724e7d6c86d21"),
    ("certify", "F2", "text"): (0, "04847cc1b8a1cf552967eb4f141765ec5d5438d309d4b3b91b7f1c505341da12"),
    ("analyze", "F3", "json"): (0, "620415defe8df69146fb3c44ebd425233f463718b185f5772471311938665aac"),
    ("analyze", "F3", "text"): (0, "b887dcba36ed66249a787efe619d73a6d3a4f0333e7cecab3dcd0d76bd230f73"),
    ("ifunction", "F3", "json"): (0, "cb736d38a62534505ec10982da4803ad2b891e715d73fb5578f6b79e05123960"),
    ("ifunction", "F3", "text"): (0, "b4b34ba8ef3d0c864f2db8d449216b82fbb9037124ac9e6729e5655996ab8ec9"),
    ("certify", "F3", "json"): (3, "53f84e4985ee7fde0aeceb92582d64ee26093fd810e6fa1a49de1cf1fc3e1025"),
    ("certify", "F3", "text"): (3, "c98c916dcfc5734fb120e0a0cfda6c2b9b92146d4ea610ea7396e99c90893b5e"),
    ("analyze", "P1xP2", "json"): (0, "f46c64f17acd6df97f5531075f8bf481bf8b1627ed049de152a64a6d52f775be"),
    ("analyze", "P1xP2", "text"): (0, "76fcc679e2d354805f9d07bd81b14b27781e2d4cba163d45df505496b662014a"),
    ("ifunction", "P1xP2", "json"): (0, "d3018fbd887575b1cd5d8c39b2388598fa69a3394cfa537865819a3238b0db93"),
    ("ifunction", "P1xP2", "text"): (0, "a951f7409574613790a98840612ec1efd3e343d2fda3daac3844c54cfa0a1a42"),
    ("certify", "P1xP2", "json"): (0, "f9823e920b5ce44c0b866c517d0364efa7cd5a72f5abf2737f3d097aefdb78b9"),
    ("certify", "P1xP2", "text"): (0, "e9c15ce1aff0c1483d7385fcefeffa8b6a129df03afb4ac1683b8f8becb860ee"),
    ("analyze", "BlP2", "json"): (0, "bc02aa69c8ed7228bbd77ef1e2e3c214b3217d39a23eeea876779ca607247768"),
    ("analyze", "BlP2", "text"): (0, "d5fe831dd3966becbf4789a24937129138d8fc313f3cadbeceaa017bc618fc93"),
    ("ifunction", "BlP2", "json"): (0, "7ffdddbe02d00b02ec50ad57abd535caafd93fc4bd922823ee4dcbd384aa25ff"),
    ("ifunction", "BlP2", "text"): (0, "79b4fe710dfc7314214479dc28e7abddd7cc12c5d372a0a22cc3ad03acd07158"),
    ("certify", "BlP2", "json"): (0, "3b72fd6954448d9f679862335bf17f02add35255b3043df8be273f13ee841ea2"),
    ("certify", "BlP2", "text"): (0, "3cd5cc0e0c2f1adc6356311c0b656dc21dbf2cfe991396e454e22f056347b5be"),
}


def written_as_stdlib(out, fmt):
    return fmt == "text" or out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("command,fan,fmt", sorted(GOLDEN))
def test_catalog_stdout_unchanged(capsys, command, fan, fmt):
    code = main([command, "--fan", fan, "--cutoff", "3", "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        GOLDEN[(command, fan, fmt)]
    assert written_as_stdlib(out, fmt)


def _cycle(name, rays):
    n = len(rays)
    return {"dim": 2, "rays": rays, "name": name,
            "max_cones": [[i + 1, (i + 1) % n + 1] for i in range(n)]}


def _p1xdp6():
    hexagon = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
    rays = [u + [0] for u in hexagon] + [[0, 0, 1], [0, 0, -1]]
    cones = [[i + 1, (i + 1) % 6 + 1, pole + 1]
             for i in range(6) for pole in (6, 7)]
    return {"dim": 3, "rays": rays, "max_cones": cones, "name": "P1xdP6"}


def _p2xp2():
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0],
            [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1]]
    tri = [(0, 1), (1, 2), (0, 2)]
    cones = [[i + 1 for i in a + tuple(3 + j for j in b)]
             for a in tri for b in tri]
    return {"dim": 4, "rays": rays, "max_cones": cones, "name": "P2xP2"}


def _product(a, b):
    fan = product_fan(a, b)
    return {"dim": fan.dim, "rays": [list(u) for u in fan.rays],
            "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones],
            "name": fan.name}


FAN_FILES = {
    "dP6": _cycle("dP6", [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1],
                          [0, -1]]),
    "wdP5": _cycle("wdP5", [[1, 0], [2, 1], [1, 1], [0, 1], [-1, 0],
                            [-1, -1], [0, -1]]),
    "wdP4": _cycle("wdP4", [[1, 0], [2, 1], [1, 1], [0, 1], [-1, 0],
                            [-1, -1], [-1, -2], [0, -1]]),
    # the 9 boundary lattice points of conv{(-1,-1),(2,-1),(-1,2)}
    "wdP3": _cycle("wdP3", [[1, 0], [0, 1], [-1, 2], [-1, 1], [-1, 0],
                            [-1, -1], [0, -1], [1, -1], [2, -1]]),
    "P1xdP6": _p1xdp6(),
    "P2xP2": _p2xp2(),
    "wdP3xwdP3": _product(wdp3(), wdp3()),
    "wdP3xwdP4": _product(wdp3(), wdp4()),
}

GOLDEN_FILES = {
    ("analyze", "dP6", 6, "json"): (0, "1ca75160f4b215a1e74a41bbbeec15cb513fb2a4030b2a9a24398373a3b43360"),
    ("analyze", "dP6", 6, "text"): (0, "0e0e64a885d0e65a897c5f62580676f1f1bcca11c9f69bcc46b030528f89fbd3"),
    ("ifunction", "dP6", 6, "json"): (0, "c9db8991365dd663c3910c4da787be13f662675ddb29255d248b01fe4606b664"),
    ("ifunction", "dP6", 6, "text"): (0, "0e4c3d158c43d34983cf8e344db96fa7d983f82baf8c027ca0091216e744969b"),
    ("certify", "dP6", 6, "json"): (0, "fb3115dba53cd5134b01e45258678d6072151601781bea85e12d18f3b7c3d0d6"),
    ("certify", "dP6", 6, "text"): (0, "6283db96f0bd2138bdb34f4c1e335c581d88a316c4f848cffe71c7eb136d7a6f"),
    ("analyze", "P2xP2", 8, "json"): (0, "0ad4016d2a83ee671be4d000f7fe5892d6772fab32b57cc93518585f7f4ec3da"),
    ("analyze", "P2xP2", 8, "text"): (0, "517b1603bce383affb1c3e5703d42fd4b4338b555a4ff0ef269208f3adad3ac1"),
    ("ifunction", "P2xP2", 8, "json"): (0, "e414a800b994ebedf481758e3532231580235cce5cb5a5b599ea01fe007cb2da"),
    ("ifunction", "P2xP2", 8, "text"): (0, "bb999b7cca68e9d1b9d893671d9ea0365a55974440840e7893f56ce898c38b42"),
    ("certify", "P2xP2", 8, "json"): (0, "239a72c79cfa697c7d735c2e5132a7cfcf8cfb0338a764f9d9650631ea938da8"),
    ("certify", "P2xP2", 8, "text"): (0, "1892345074715b2508fcc92c4f47fcb89bcfb48b32bf8831af555a408853d7f2"),
    ("analyze", "P1xdP6", 3, "json"): (0, "1e502910ca4e631a06c587eff49729806c5889f4ddcc573a1d7e56ded34d5fca"),
    ("analyze", "P1xdP6", 3, "text"): (0, "ced7a15246e15d0995cc07264bfafca56a0c7302c378009ffd7c3644b21094f7"),
    ("ifunction", "P1xdP6", 3, "json"): (0, "a277647a4dc87f51ae66ccc5b205e2b28e3a2a993a2fea204170c942be4f412e"),
    ("ifunction", "P1xdP6", 3, "text"): (0, "dd236e50a31ef89ce356cbd108400dfb7fe1cca6cbe415f8d76eb68593c50b72"),
    ("certify", "P1xdP6", 3, "json"): (0, "6624a0bd4619ba7cc03eedc1e1dc4496a07b6d8629a98915ffa78e6e829b0eb5"),
    ("certify", "P1xdP6", 3, "text"): (0, "ef2a754c8f12de47fadaa47d4b52d6098afd9fdda8c9032700544b1d071f0863"),
    ("certify", "P1xdP6", 4, "json"): (0, "276b48a37afe2c73f9a6bb1e63ea24e673d328cff70f95e54dc8fe94ecb5dcf3"),
    ("analyze", "wdP5", 3, "json"): (0, "a3b51721b3a1b46f89188a0b301fdf1ae2dd93e6c184985de52cbd0158c98006"),
    ("analyze", "wdP5", 3, "text"): (0, "68bd509d188608b58de046984619cfaafa8cac6a14d08cc4d757d74266947219"),
    ("certify", "wdP5", 4, "json"): (0, "57dcfb09f44029078bc3f4cd410af7e3da28474f278bc71da00d34b68e542bf3"),
    ("ifunction", "wdP5", 4, "json"): (0, "8846832618ddd1fa3013ab7ba9e5231ac18529324168c46329aee7aab0877a38"),
    ("analyze", "wdP4", 3, "json"): (0, "4c096abe4cc72cef733a8b9cc5081720830669b59a95dd6d1b8dc572831e6146"),
    ("analyze", "wdP4", 3, "text"): (0, "88a049be800a573b94facdb1fc85d063f8e8828efc63fb8d221105fcea93f4cd"),
    ("ifunction", "wdP4", 4, "json"): (0, "4baa021e7460050237621aeea60c1b3958d8a8922df7c1fbdcfec3a0d8d78083"),
    ("analyze", "wdP3", 3, "json"): (0, "21869e31f9f15a8da4ee548dbffc23fdb0fe303dfff36ec6e292174eda48da71"),
    ("analyze", "wdP3", 3, "text"): (0, "9000d725edf0e8d88a048ee5e186694aec02f2e6978de026849576d9772d2aa5"),
    ("ifunction", "wdP3", 4, "json"): (0, "15fcdf83a5cdec8855617231750365f1d0dc474ddeb098e6c38ea3c82b4c8c74"),
    ("certify", "wdP3", 4, "json"): (0, "ba785ea8da34ddf9d68d630b906f0c8d1be238136fe41afbd0fb2314b2e121c7"),
    ("analyze", "wdP3xwdP3", 3, "json"): (0, "9d1cc7a5485d1f9fa7790c8cc588843eea7c91bfd94c25208cf63f2b2972b377"),
    ("analyze", "wdP3xwdP3", 3, "text"): (0, "4e096323cb2734a2eb45184bc8c07caf2d91806aad7b0fc82c9685b1eac75e08"),
    ("analyze", "wdP3xwdP4", 3, "json"): (0, "796c815a5da57256d4c9e95e1d46123a835cae8bd4c7150c096fbf552022e74e"),
    ("analyze", "wdP3xwdP4", 3, "text"): (0, "e8566722f090901cd9b4b972d2a66dad50a42fdd1218b78f103436e4582325dc"),
}


@pytest.mark.parametrize("command,fan,cutoff,fmt", sorted(GOLDEN_FILES))
def test_fan_file_stdout_unchanged(capsys, tmp_path, command, fan, cutoff,
                                   fmt):
    path = tmp_path / f"{fan}.json"
    path.write_text(json.dumps(FAN_FILES[fan]))
    code = main([command, "--fan", str(path), "--cutoff", str(cutoff),
                 "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        GOLDEN_FILES[(command, fan, cutoff, fmt)]
    assert written_as_stdlib(out, fmt)


# (command, builtin fan, cutoff, format) -> (exit code, SHA-256 of stdout)
GOLDEN_DEEP = {
    ("ifunction", "F3", 6, "json"): (0, "0745a9e70c52dc45252ab8ef2f6742093ab2896341293e0e56310539a08b340a"),
}


@pytest.mark.parametrize("command,fan,cutoff,fmt", sorted(GOLDEN_DEEP))
def test_catalog_deep_stdout_unchanged(capsys, command, fan, cutoff, fmt):
    code = main([command, "--fan", fan, "--cutoff", str(cutoff),
                 "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        GOLDEN_DEEP[(command, fan, cutoff, fmt)]
    assert written_as_stdlib(out, fmt)
