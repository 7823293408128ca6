"""Golden digests of the catalog reports: stdout must stay byte-identical.

Each entry pins the exit code and the sha256 of stdout of one command on
one exported catalog fan. A change that alters any byte of these reports
changes the contract and must update the digest on purpose.

GOLDEN covers `report` and `filtration` under both policies. RUNS covers
the scans under each policy and the other fan commands; its files are
passed by relative name from the working directory, so the `path` field
of a `validate` report does not depend on where the test runs.
"""

import hashlib
import json
import math
import time

import pytest

from fanlat.cli import main
from fanlat.corpus import catalog

GOLDEN = {
    ("p2", "report"): (0, "5e36645314480295f304aa91f2bad9e05fd268c9c1918366e9b4872780047c9b"),
    ("p2", "filtration"): (0, "aff91a78a210ea412bf77e12e84fad557b41091af721821671de37d96b614ec8"),
    ("p1xp1", "report"): (0, "9e5867e02349cf502b36d5d9371e3f2dadc9b0f222263251395662c5d4b3020f"),
    ("p1xp1", "filtration"): (0, "85037c5654753763eec06bd7537189bb975b9c29b7839068ba78d59e4726854c"),
    ("p3", "report"): (0, "c7421dc7aa2cf77a3d783465feb046cbb301032c47f7ba79765c6b5a71b6b8f6"),
    ("p3", "filtration"): (0, "a1115ed505a3527240499d46d3cc727ceb56f689ebd9a528158cfbd1c00fcd1c"),
    ("p2xp1", "report"): (0, "eb93fec7924c16e98bb38448988e0ff271c734223c4849e7a39215a252695593"),
    ("p2xp1", "filtration"): (0, "6354c6885ecd5376f17bf01c98d8302a19ffbfe149dfc2125655cc17f05e12bd"),
    ("blowup_p2", "report"): (0, "70e2191bb5975d117fa5bf569f7eeaa2f484211aef1349a9d6e16e9ba463fc7e"),
    ("blowup_p2", "filtration"): (0, "9113697564a57d94219a34d80929473dcf95ee3a375d3706428dc522390dbc45"),
    ("halfplane2", "report"): (0, "64eaf5513a3ccc118432b80314f6186cd43479b2b7e14e17ffdc2be4de36fd5f"),
    ("halfplane2", "filtration"): (0, "2321ba9a7755b3bda0ff0ff9d003f1720997455bdb993ac6a67a76ee78dedd98"),
    ("sigma_c", "report"): (0, "fd810e3bfa5c7ad37f16406d889f3983123ae58b1ee06f3f50792a3da462502f"),
    ("sigma_c", "filtration"): (0, "6665f584a01f188ee48ee8dcf0a95df79c985097dbef7d82197649a9769f93e1"),
}


def test_every_catalog_fan_is_pinned():
    assert {name for name, _ in GOLDEN} == {entry.name for entry in catalog()}


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_policy_both_stdout_matches_digest(capsys, tmp_path, name, command):
    assert main(["catalog", "export", name]) == 0
    exported = capsys.readouterr().out
    json.loads(exported)
    path = tmp_path / f"{name}.json"
    path.write_text(exported)
    code = main([command, str(path), "--policy", "both"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[name, command]


# (command, catalog fan, extra arguments...) -> (exit code, sha256 of stdout).
# The p2 scan with 240 trials repeats most of its draws.
RUNS = {
    ("conjecture", "p2", "--policy", "inclusive", "--trials", "240", "--seed", "2"):
        (0, "b00624d8816768cbc44edd01d07d1b4890817ef19002b79928f1ada3c7bd85eb"),
    ("conjecture", "p2", "--policy", "exclusive", "--trials", "240", "--seed", "2"):
        (0, "0e221dfd9c3db44a0d6b19a79d555c53e04c18e6f53474e8ed9628d873f4e77c"),
    ("conjecture", "p2xp1", "--policy", "inclusive", "--trials", "30", "--seed", "2"):
        (0, "4c78230f5e8b9f131e4f4f1fdd9adbba04b6620f1ce3f21aca148ef5bc7b595d"),
    ("conjecture", "p2xp1", "--policy", "exclusive", "--trials", "30", "--seed", "2"):
        (0, "fcd969864d0e6d001afe639771612c740d0e7b23b41561b65c48fb93a833f538"),
    ("subdivide", "p2", "--cone", "0,1", "--ray", "1,1", "--policy", "both"):
        (0, "a3bc920dc0faceaa8e5c23687e4e2926fbef20d82831f3c50ded3e1516d22f7a"),
    ("depth", "p2", "--relation", "1,1,1", "--policy", "both", "--max-coeff", "2"):
        (0, "e89e59ffd6a1d5325040ae194abba76845b36c7d227c8acde8d0239f3edf590d"),
    ("depth", "p2xp1", "--relation", "0,0,0,1,1", "--policy", "both"):
        (0, "af48d3e65f8b66f6fa4956d64966b11fe37ae7df6ba23216e445f78e28e9b828"),
    ("localize", "p2xp1", "--cone", "3"):
        (0, "bfccf368a755589651ae2726ebbae1f1d0ccdd46ff351b20144540b9d6074eab"),
    ("localize", "p3", "--cone", "0,1"):
        (0, "22e238f6650fae1793fa701c9f46553c7062f70383983b377df7095c3f86dc7d"),
    ("decompose", "p2"):
        (0, "4cd00edd5ec5072966d2029bbf437752f3479d749c86c8ff7a9efe043a2db66b"),
    ("decompose", "p1xp1"):
        (0, "d65ba9106278450852f9dcd4f3fbdf9c56568378647cc5e2dda3e0e38c3d0b24"),
    ("decompose", "p3"):
        (0, "73db22a45e80c915c4aa5165b0fe52af3f9ab2adb4a32d441a8716c35c613a7f"),
    ("decompose", "p2xp1"):
        (0, "5de9d41d3dae2f2b362af6268c1070190478f0c4fe7d19ab19248aec7ad58068"),
    ("decompose", "blowup_p2"):
        (0, "a7f3102ec275aaf7ce5d01b6adf376ae7e103e065ef73a4c21ebcfb99f76ce51"),
    ("decompose", "halfplane2"):
        (0, "259757611c34cf19e263afecc155ee6410dc36ac3fec7a5287ed8c7204fbd8b9"),
    ("decompose", "sigma_c"):
        (0, "3894329b15767c46375749d0bc48c711a96ea5d473c26c87f0c89d68b579dc7a"),
    ("classgroup", "p2"):
        (0, "417917c4781e107ead7df608fadeb3b4394c31a88c9f46a7a6fffdc555fae84c"),
    ("classgroup", "p1xp1"):
        (0, "87b37d1187b8c0e93e0031eafde74601fb6c1bc352ffe22d272c8ffd0216ab70"),
    ("classgroup", "p3"):
        (0, "98fcaa00c706856a6ff887ed61d9098d290a16b894118120c3197b6cf98a580a"),
    ("classgroup", "p2xp1"):
        (0, "669392ac6a1f70ea94391e58ccb354972ee8df9b80587258da5350568d218620"),
    ("classgroup", "blowup_p2"):
        (0, "a65a3d2954a447f00d48002bbe3b27ff7d7ee515cc51b35f96dc00a5c0705924"),
    ("classgroup", "halfplane2"):
        (0, "c5a7b1e94a7e7f98eaf851b53aa50f958722b82cdddf2923a3a3c61e155477b0"),
    ("classgroup", "sigma_c"):
        (0, "336acefe036ed5a7b8245422cef288ccdc0ec00dd39d9f9a9af956e3fe633007"),
    ("relations", "p2"):
        (0, "bff8cdaa684da894d9716f9b70ebbba8b40b2ea654ebd226011eda91c33a7674"),
    ("relations", "p1xp1"):
        (0, "ac85ed9051008ec5f3b69c2c0bee11f1b8c3976b158255fe86718d6eb5851ed7"),
    ("relations", "p3"):
        (0, "627fee01e7d126e0c3db8aeb3525e6eb979bd32e0c398880de95cd39b50dc299"),
    ("relations", "p2xp1"):
        (0, "bcbb8dcc288f0a416b352bef7012f133de446919bf415152a6248cc052c8df58"),
    ("relations", "blowup_p2"):
        (0, "e75ffe63514528bbae77ab159f70978a5a5cb6051c0e672c15540edd96f7f9e4"),
    ("relations", "halfplane2"):
        (0, "9fc7d44104bc349cd65a3224e771e613038f15c5f60e9f4938dfe5d37cfdffe4"),
    ("relations", "sigma_c"):
        (0, "b9f1b7f23b88e4e92c41c351d37e4fd2d724ceebad35ea56224d23b6ff008b2a"),
    ("validate", "p2"):
        (0, "1a2d1bd28c3e81992056dd879e273b834d6a3b5871d69a4f31f81dd9b0a5b67c"),
    ("validate", "p1xp1"):
        (0, "0ce55888f43362ef031a68f66325ed53e548c90d3667685d33e6c21a550ae1a2"),
    ("validate", "p3"):
        (0, "b28dbd6c64dd84c40262af1513f6ec0b74a940ecbf7ed137f3419e3280c433b7"),
    ("validate", "p2xp1"):
        (0, "4743922c3c2cc57b249ae6bb09faeba98d43918d4f1af258239ed392ed6ec946"),
    ("validate", "blowup_p2"):
        (0, "c2ce0786eb8af83158dbbee509514ae842d9907df9b32d5f30aaf919e76583c4"),
    ("validate", "halfplane2"):
        (0, "934c0482f30964b7ae6a24f42fc2e54ff33cdd04193b3530449821b4e7a22183"),
    ("validate", "sigma_c"):
        (0, "0fd48fcfe6407c45a09f7b039ea5d84cd9f78b517aab0620c0e0306bb131bf76"),
}


def test_runs_cover_every_catalog_fan():
    for command in ("decompose", "classgroup", "relations", "validate"):
        assert {run[1] for run in RUNS if run[0] == command} == {e.name for e in catalog()}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_command_stdout_matches_digest(capsys, tmp_path, monkeypatch, run):
    command, name, *extra = run
    assert main(["catalog", "export", name]) == 0
    (tmp_path / f"{name}.json").write_text(capsys.readouterr().out)
    monkeypatch.chdir(tmp_path)
    code = main([command, f"{name}.json", *extra])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == RUNS[run]


def test_relations_on_a_404_ray_list_matches_digest(capsys, tmp_path):
    # The complete rank-2 fan on (+-1, k) for |k| <= 100 and (0, +-1),
    # its cones consecutive by angle: a relation lattice of rank 402.
    rays = sorted([(s, k) for s in (1, -1) for k in range(-100, 101)] + [(0, 1), (0, -1)],
                  key=lambda v: math.atan2(v[1], v[0]))
    path = tmp_path / "rays404.json"
    path.write_text(json.dumps({"rank": 2, "rays": rays,
                                "maximal_cones": [[i, (i + 1) % 404] for i in range(404)]}))
    start = time.perf_counter()
    code = main(["relations", str(path)])
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (0, "7b0f7d20ab9234683bedad709f8b7bfba458c0d7e4d9809c0a4ba7200e1f010b")
    assert seconds < 1.5
