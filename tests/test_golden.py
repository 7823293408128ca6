"""Golden digests of the catalog reports: stdout must stay byte-identical.

Each entry pins the exit code and the sha256 of stdout of one command on
one exported catalog fan. A change that alters any byte of these reports
changes the contract and must update the digest on purpose.
"""

import hashlib
import json

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
