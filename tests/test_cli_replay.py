"""A replay of the CLI: each command's exit code, stderr, stdout and files.

Every command in ``REPLAY`` runs through ``dispatch`` in a fresh directory
holding the same inputs, and its digest is pinned: the sha256 of the exit
code, stderr, stdout without its timing fields and the echoed command, and
the name and sha256 of every file the command wrote.  The digests were
computed before the run, verify and oracle flags were bound to the library
signatures, so any change to what the CLI prints or writes shows here by
command; a row whose output a later change altered on purpose is re-pinned
with that change, and CHANGES.md gives its old and new digest.
"""

import hashlib
import re
import shutil
from fractions import Fraction as F

from mixvote.cli import dispatch
from mixvote.core import allocation_to_dict, instance_to_dict, save_json
from mixvote.generate import ConstructionSpec, gen_construction, gen_random
from mixvote.rules import generalized_mes, greedy_ejr_m, mnw_indivisible

# lines of a report that change from run to run
VOLATILE = re.compile(r'^ *"(timing_ms|command|wall_ms)": .*\n', re.M)


def _write_inputs(root):
    """The instances, allocations and tie-break scripts the commands read."""
    specs = {
        "fig1": ConstructionSpec("fig1"),
        "prop1": ConstructionSpec("prop1"),
        "appendix": ConstructionSpec("appendix", {"t": F(3, 2), "eps": F(1, 4), "gamma": F(1, 4), "q": 4}),
        "thm6": ConstructionSpec("thm6", {"t": F(5, 2), "n": 20, "eps": F(8, 25)}),
    }
    instances = {name: gen_construction(spec) for name, spec in specs.items()}
    save_json(str(root / "script.json"), instances["thm6"][1]["script"])
    # fig1 has two positive rounds, so the third step is left over
    steps = [([1], ["g2"]), ([0], ["g1"]), ([0], ["g1"])]
    save_json(
        str(root / "leftover.json"),
        [{"group": group, "witness": {"goods": goods, "cake": []}} for group, goods in steps],
    )
    instances = {name: inst for name, (inst, _) in instances.items()}
    instances["mixed"] = gen_random(n=6, m=4, cake_atoms=3, alpha=F(2), seed=7)
    instances["goods"] = gen_random(n=5, m=4, alpha=F(2), seed=3)
    instances["cake"] = gen_random(n=4, cake_atoms=3, alpha=F(1), seed=2)
    for name, inst in instances.items():
        save_json(str(root / f"{name}.json"), instance_to_dict(inst))
    for name in ("fig1", "mixed", "cake"):
        inst = instances[name]
        save_json(str(root / f"{name}-greedy.a.json"), allocation_to_dict(inst, greedy_ejr_m(inst)[0]))
        save_json(str(root / f"{name}-gmes.a.json"), allocation_to_dict(inst, generalized_mes(inst)[0]))
    inst = instances["goods"]
    save_json(str(root / "goods-mnw.a.json"), allocation_to_dict(inst, mnw_indivisible(inst)[0]))


def _digest(code: int, err: str, out: str, files: dict[str, bytes]) -> str:
    text = f"{code}\n{err}\n{VOLATILE.sub('', out)}\n"
    text += "".join(f"{name} {hashlib.sha256(data).hexdigest()}\n" for name, data in sorted(files.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def replay(root, capsys, monkeypatch) -> dict[str, str]:
    """Each command of ``REPLAY`` mapped to its digest."""
    inputs = root / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    given = {p.name: p.read_bytes() for p in inputs.iterdir()}
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    digests = {}
    for k, command in enumerate(REPLAY):
        here = root / f"case{k}"
        shutil.copytree(inputs, here)
        monkeypatch.chdir(here)
        capsys.readouterr()
        code = dispatch(command.split())
        captured = capsys.readouterr()
        written = {
            str(p.relative_to(here)): p.read_bytes() for p in here.rglob("*") if p.is_file()
        }
        written = {name: data for name, data in written.items() if given.get(name) != data}
        digests[command] = _digest(code, captured.err, captured.out, written)
    return digests


def test_cli_replay_matches_pins(tmp_path, capsys, monkeypatch):
    digests = replay(tmp_path, capsys, monkeypatch)
    changed = [command for command, digest in REPLAY.items() if digests[command] != digest]
    assert changed == []


REPLAY = {
    "gen --construction fig1 --out f.json":
        "3d322c29ea1dabae37c2dc871ed2c77864c8a8b9a449f5288b0db71352b97116",
    "gen --construction prop1":
        "b20db9a77b7d399031a9e1efc9239da613d36deffd231e6d9e4f58f333d53267",
    "gen --construction prop4 --beta 2":
        "47f180a61f17eeb64b8cafefdcc02536f989889610e71ded524ca2ab15952863",
    "gen --construction thm4 --t 2 --n 32":
        "08d0b27ce86c9658874f600cab3ea389699d8e0aa20aced2aafddc09b5aa05dc",
    "gen --construction thm6 --t 5/2 --n 20 --eps 8/25 --out t6.json":
        "70ecf23bca520eb54deb8b84a4d077b1599054f96bdfb9a11f446040a9c3d008",
    "gen --construction appendix --t 3/2 --eps 1/4 --gamma 1/4 --q 4":
        "63e31db9391dd5a20a2948e6b8580fcf67cee51fbbcae2aa3699eb83d6b35270",
    "gen --construction random --n 6 --m 4 --cake-atoms 3 --alpha 2 --seed 7":
        "1a96115488e95d81ae8be0a0cfe066784a33a2cce1aebbf8323574e8e76cc83f",
    "gen --construction fig1 --n 5":
        "9dee190f1c6d98d230f8d452808e94b0dd4b81fb1f7bd271212963e46e976e09",
    "gen --construction thm6 --n 8":
        "49ee180c3dfc87374193c183a842e5045fde4009fb408fac3759a75859e30613",
    "gen --construction prop1 --seed 3":
        "a8dcd5623e66b66652bc3844565a286bf087379ae04212b64df201adce8f32fb",
    "gen --construction nope":
        "a4b5bab0046e21b849b65ceb9e6862c63a82bbb6504307e160377d86aa69eac0",
    "gen --construction random --n 4 --m 3 --alpha 1 --seed -5":
        "3a18144d1b86a3a846a14fe8bb9017bd2b56b4a2279dddc5c3d4d3deaea4c347",
    "gen --construction random --n 3 --m 2 --alpha 1 --cake-length 5":
        "57d94e05f408afbfb08808f4b58f9ee8b7e8d1d724a07a68765594a3dc6306fd",
    "run --rule greedy-ejr-m --instance fig1.json":
        "eb3b236fe018785cda41a22d3001572a604901420f64423e4509d465be22594f",
    "run --rule greedy-ejr-m --instance mixed.json":
        "933eba9311ef7f67c8cc1412856211d2b6ad0ee873581d50c3bb505d4bd39be1",
    "run --rule greedy-ejr-m --instance goods.json":
        "6e475976639dfc016ec6a4067e71319994c05a6d3ec0fd62d4a3423cd0d30674",
    "run --rule greedy-ejr-m --instance cake.json --out g":
        "31a775182a3a1dec456a028cdd32006f86e0001cefad7085f718f4971c661a5d",
    "run --rule greedy-ejr-m --instance thm6.json --script script.json":
        "145084b706e9e44555e9144050af751dfb377d6abe540f968cecd7ed22c7c138",
    "run --rule gmes --instance fig1.json":
        "a518bbbb152bb6102dcb98b53d5bc547d479c245b84b5b8e6d0b0dfe3572992c",
    "run --rule gmes --instance mixed.json":
        "6871738f8a350655400ca43683a82dff5d5c4326839deb25a417486f0fefc676",
    "run --rule gmes --instance goods.json":
        "874c5b1eed7d1145d67a22aabb924ae5f4809ff5c409f3ed9d67be033d07f974",
    "run --rule gmes --instance cake.json":
        "541465c2bdfe1b94bd9190fffca41a7f2faa201676bf9802fdefa7e1f42a9c4c",
    "run --rule gpav --instance fig1.json":
        "ed9aa1d762228954371ed6715fac0f3d1de0cbc3247af498840a65bd3ad8d15c",
    "run --rule gpav --instance mixed.json":
        "fc88b7e627dc5d9617fcd9b22d68250edbff35fb8e075634a2628ed14659885e",
    "run --rule gpav --instance goods.json --force":
        "63d6f3b5a7fd1bee5c3dffa6264f209f45096721c3e8cabc70b5644382e78889",
    "run --rule gpav --instance cake.json --eps 1e-6":
        "a6d32c3695013eb93280378e606d219b0abeaabda092a6f90f456e22ee96ced5",
    "run --rule mnw --instance goods.json":
        "22071e9daade962486942111cc7d270fdf05fe3bdf04ca49f0e3b6700728a700",
    "run --rule mnw --instance goods.json --force --out m":
        "49b6f22529e0386e0027d09ed8bbcf39b3d7ec44d99ad66d07a59b99f7218159",
    "run --rule mnw --instance fig1.json":
        "3a96d9cda9c4ab1210d2011a7fc489123d0e4b2566704e8c802ddb3d989dcd7d",
    "run --rule gmes --instance missing.json":
        "c942c8fec119bb974501dcc41a0b9e6ca591b2dc1f59ce3c7a558e977ca2d603",
    "run --rule gmes --instance fig1.json --script script.json":
        "27133b0a7b845aff7dcf82ec6e2838d9d75a7a97c459785f21e46d1479121e8b",
    "run --rule gpav --instance fig1.json --script script.json":
        "27133b0a7b845aff7dcf82ec6e2838d9d75a7a97c459785f21e46d1479121e8b",
    "run --rule mnw --instance goods.json --script script.json":
        "27133b0a7b845aff7dcf82ec6e2838d9d75a7a97c459785f21e46d1479121e8b",
    "run --rule greedy-ejr-m --instance fig1.json --force --eps -5":
        "8a405d8179dcbc39b4a456e131df90888b640b5cad8c7f582cbf30987969a62d",
    "run --rule greedy-ejr-m --instance fig1.json --force":
        "8a405d8179dcbc39b4a456e131df90888b640b5cad8c7f582cbf30987969a62d",
    "run --rule gmes --instance fig1.json --force":
        "8a405d8179dcbc39b4a456e131df90888b640b5cad8c7f582cbf30987969a62d",
    "run --rule greedy-ejr-m --instance fig1.json --eps 1e-9":
        "d4cf14ebe1f04875b1f313c10d15b32bfebc24fb02f83df6213cbcd423ecd0bb",
    "run --rule gmes --instance fig1.json --eps 1e-9":
        "d4cf14ebe1f04875b1f313c10d15b32bfebc24fb02f83df6213cbcd423ecd0bb",
    "run --rule mnw --instance goods.json --eps 1e-9":
        "d4cf14ebe1f04875b1f313c10d15b32bfebc24fb02f83df6213cbcd423ecd0bb",
    "run --rule greedy-ejr-m --instance fig1.json --tie-breaker script":
        "59e01800a5136d9de550b4fa052377b8dd8d48712d983b4e3c0de087d4e191f1",
    "run --rule greedy-ejr-m --instance fig1.json --script missing.json":
        "c942c8fec119bb974501dcc41a0b9e6ca591b2dc1f59ce3c7a558e977ca2d603",
    "run --rule greedy-ejr-m --instance fig1.json --script script.json":
        "388c015f612d73c8e2f7a3de901048fffceb6b452daddbb8767df1eef4350841",
    "run --rule greedy-ejr-m --instance fig1.json --script leftover.json":
        "02a9bfde0c02e2f6cfb9e8509ee6d082cb341b42ef5276248cd7a1b2d386d548",
    "run --rule gpav --instance fig1.json --eps nan":
        "dd8d7884733b6ae1f7bd0f9ff9afa67b5cd803af2d3cb96ca25dd816985c945f",
    "run --rule gpav --instance fig1.json --eps 0":
        "ef8ebc5d78036971272331348a0be5a394a0475f38996d198eadcae9bb03778e",
    "run --rule nonsense --instance fig1.json":
        "4ec91a3ea1723d50f15b98316f1de56695bcc483ef9b37f942372b9f82ebd0d3",
    "run --instance fig1.json":
        "bb4fdad6d2c8404bdf01447b3c851b2189539a7a52666932820106c380cad67a",
    "verify --axiom ejr-m --instance fig1.json --allocation fig1-gmes.a.json":
        "26a011988c7fd62ca2f98281c01c9e1501f7a6d1a22650add7af21777e6b01d2",
    "verify --axiom ejr-m --instance fig1.json --allocation fig1-greedy.a.json --out r.json":
        "05804457220d905d22f271c51fb7e74c2725b66a9d689303be7ed8b36769c0b4",
    "verify --axiom ejr-1 --instance fig1.json --allocation fig1-gmes.a.json":
        "acff106f85f4b1c72ce84801ade7311713e4a1e3dbd073c7b6aed43915329c5d",
    "verify --axiom ejr-1 --instance mixed.json --allocation mixed-gmes.a.json --margin 0.5":
        "acff106f85f4b1c72ce84801ade7311713e4a1e3dbd073c7b6aed43915329c5d",
    "verify --axiom ejr-1 --instance mixed.json --allocation mixed-greedy.a.json --margin -1":
        "6093af48da3010bf95fda3954cdb242fd44c4608c744a67db599a55543357eb5",
    "verify --axiom ejr-beta --instance fig1.json --allocation fig1-gmes.a.json --beta 1/2":
        "88c7bd5a1b6fdd8900ee0f1d7e6fccd8b05c351ae9f525122a8e39c24cf3bf00",
    "verify --axiom ejr-beta --instance mixed.json --allocation mixed-gmes.a.json --beta 1/2 --mode weak":
        "7d2cd46b56bce7827675c9352084f2bdae6ab41de320f6e467665eaf54105f85",
    "verify --axiom ejr-beta --instance mixed.json --allocation mixed-greedy.a.json --beta 0 --mode strict":
        "03d7633125e942d62b30c0a76d28e0fbdcfd079e38a5f9af76dc989420212482",
    "verify --axiom cake-ejr --instance cake.json --allocation cake-gmes.a.json":
        "d7c460d7e165fe93231af9f5eae2c9879d81dbb7123138e91951f5b8b58d0334",
    "verify --axiom cake-ejr --instance cake.json --allocation cake-greedy.a.json --out r.json":
        "2c7df52260edc5376323d53ea58647a64cae442b7171bb7285584096cb3e04ad",
    "verify --axiom cake-ejr --instance fig1.json --allocation fig1-gmes.a.json":
        "248faf11a1c32d78fc1f9e40e6d4ed13e9676eebae7c3b500aef418b23f7ed8a",
    "verify --axiom ejr-m --instance goods.json --allocation goods-mnw.a.json":
        "e27fb4ed4997c1e4c31eb22c71d2dcd2897e605e3ac7f9acb0d6719802c349d5",
    "verify --axiom ejr-m --instance fig1.json --allocation missing.json":
        "c942c8fec119bb974501dcc41a0b9e6ca591b2dc1f59ce3c7a558e977ca2d603",
    "verify --axiom ejr-m --instance fig1.json --allocation fig1-gmes.a.json --margin 0.5 --beta 3 --mode weak":
        "aa664d67f2363b0a3ed339dd37900c04223813597d36434966a74681ba3dca7d",
    "verify --axiom ejr-beta --instance fig1.json --allocation fig1-gmes.a.json --beta 1 --margin 0":
        "aa664d67f2363b0a3ed339dd37900c04223813597d36434966a74681ba3dca7d",
    "verify --axiom cake-ejr --instance cake.json --allocation cake-gmes.a.json --margin 0":
        "aa664d67f2363b0a3ed339dd37900c04223813597d36434966a74681ba3dca7d",
    "verify --axiom ejr-1 --instance fig1.json --allocation fig1-gmes.a.json --mode weak --beta 100":
        "73c41914727cdd4289b4d8226ad8110f300b2d1a9cbdb13f308dde84405c4b3a",
    "verify --axiom ejr-m --instance fig1.json --allocation fig1-gmes.a.json --beta 3":
        "73c41914727cdd4289b4d8226ad8110f300b2d1a9cbdb13f308dde84405c4b3a",
    "verify --axiom ejr-1 --instance fig1.json --allocation fig1-gmes.a.json --mode weak":
        "83f7349679d04452c823ade098030b545d620c3fecf0fc34cc489c8eb34e6f05",
    "verify --axiom cake-ejr --instance cake.json --allocation cake-gmes.a.json --mode strict":
        "83f7349679d04452c823ade098030b545d620c3fecf0fc34cc489c8eb34e6f05",
    "verify --axiom ejr-beta --instance fig1.json --allocation fig1-gmes.a.json":
        "ba09729b1d86486f9b1700bf0eebc56519e4fadf14ce0c002a8b31b6ec6ce450",
    "verify --axiom ejr-beta --instance fig1.json --allocation fig1-gmes.a.json --mode weak":
        "ba09729b1d86486f9b1700bf0eebc56519e4fadf14ce0c002a8b31b6ec6ce450",
    "verify --axiom ejr-beta --instance fig1.json --allocation fig1-gmes.a.json --beta 1/0":
        "71d9d61b0202cd9352c3c352fc0e4250bb7ec00950e3306a0d8297fd40be7cd1",
    "verify --axiom ejr-beta --instance fig1.json --allocation fig1-gmes.a.json --beta -1":
        "4950eaf9f4f8e1408e63d845d76a1dda6fdb4ddf119b51f67bdc2a02266bd1cc",
    "verify --axiom ejr-1 --instance fig1.json --allocation fig1-gmes.a.json --margin nan":
        "c1c9665e152d99b7316c8956ca33fa15ea63c3743976ac1d4ecc0a0e3f275a9d",
    "verify --axiom ejr-1 --instance fig1.json --allocation fig1-gmes.a.json --margin -2":
        "1a61085f7823286e661517c188bd4464f5e2f6be17288b84f084cae0f00c9ec0",
    "verify --axiom ejr-x --instance fig1.json --allocation fig1-gmes.a.json":
        "4198c1380273baee93fe8159caf22d285f9da223dfa7db2d7a2274f890f32581",
    "audit --bound ejr-m --instance fig1.json --allocation fig1-greedy.a.json":
        "14c2a81e5e773e18af9d6282a2492c9e4b6687e9755c6a000e131594ecfa4a68",
    "audit --bound ejr-1 --instance fig1.json --allocation fig1-gmes.a.json":
        "827177587e3b57c4fe8c7bd83e19db51fe55c64369c7edad19508b5e05235000",
    "audit --bound gpav --instance mixed.json --allocation mixed-gmes.a.json":
        "82ecf2479982947eeaede4fcf7b1bcc7c839e15e45c556a5cc4bf4a938243803",
    "audit --bound mes-upper --instance mixed.json --allocation mixed-greedy.a.json --t-min 2 --out r.json":
        "85feeb08ad41f46d151e3eb6c6b1b274323d1c8b9cace579eed432b7d2bc45b6",
    "audit --bound ejr-m --instance cake.json --allocation cake-greedy.a.json --t-min 1/2":
        "021e35e0499c8840aaad6dd5f6fda5853d13840eb3495597b8c26e61996604ba",
    "audit --bound gpav --instance fig1.json --allocation fig1-gmes.a.json --t-min 1/0":
        "e64af01b6095e7725168dfae09333925d063b4e0ef72fff1233a23602173c76b",
    "audit --bound nope --instance fig1.json --allocation fig1-gmes.a.json":
        "2e632eb6bcd97e93e1e50915a10acaf958dfe675851bfae02d97a100e4c73a64",
    "oracle --check no-ejr-beta --beta 2/5 --instance prop1.json":
        "33a49f834d7a7d0e7bd5d482d918637acb9c4969fd53bdfdd9c1ed4c5fc33f1d",
    "oracle --check no-ejr-beta --beta 2/5 --mode strict --instance prop1.json --out r.json":
        "e0a234204e701401ba414965df20d77c4fc47c3ea34c6fd517d88d0f965adaa0",
    "oracle --check no-ejr-beta --beta 1 --mode weak --grid 2 --instance fig1.json":
        "c276f45b4f703392047b4e22c2b79b063034f0acfae469072f35b8017ccd5316",
    "oracle --check min-max-avg --t 3/2 --instance appendix.json":
        "b5cacc49a2c2d4cd070a0c43f06f96be51b05d0e4f17a1d75f65e239cc9e8bdf",
    "oracle --check min-max-avg --t 1 --grid 2 --instance fig1.json":
        "db514a018d5b16d7bdceb7136263681f8004aec27408ae3d1aae4ebe403f537c",
    "oracle --check min-max-avg --t 5 --instance goods.json":
        "832012e7be2703192d6498c132327614bedb57be2aa045f0b7f2d6c41f0af77e",
    "oracle --check opt --grid 2 --instance fig1.json":
        "d18523193e4c38ddbd666f318f0898eb3397adcb3db6f02db3e3053d5e736839",
    "oracle --check opt --objective nash --grid 2 --instance fig1.json":
        "da44a9cfc8fe16a7a4cb46b5654794faac9fe572022a69a15e9713aca4b2bef7",
    "oracle --check opt --objective gpav --instance goods.json --out r.json":
        "169092a8897f87f1266993de2d975f0c15d8f3c3143e7c50687fada59089e98b",
    "oracle --check opt --objective nash --instance goods.json":
        "dc3323096720da352ee79054ed6f82d522b1b0734a8bf9d608de9fcdf888445d",
    "oracle --check opt --grid 0 --instance fig1.json":
        "ec1787202a0df4ab5d3fef55feff330208d897dd73b8d5d9eae67db97b526e82",
    "oracle --check opt --instance missing.json":
        "c942c8fec119bb974501dcc41a0b9e6ca591b2dc1f59ce3c7a558e977ca2d603",
    "oracle --check min-max-avg --grid 1 --instance fig1.json --beta 1":
        "80d76cdfefeeb73fc2145c6d9ecc43d0906b22e04d27e9c421b923301b1c8d2c",
    "oracle --check opt --grid 1 --instance fig1.json --beta 1":
        "80d76cdfefeeb73fc2145c6d9ecc43d0906b22e04d27e9c421b923301b1c8d2c",
    "oracle --check min-max-avg --grid 1 --instance fig1.json --t 1 --mode weak":
        "4169fe5b6f151556c7ed5c75ac8944fb92d11bd7c1ce3bd055d1a8e8ed6f6929",
    "oracle --check opt --grid 1 --instance fig1.json --mode strict":
        "4169fe5b6f151556c7ed5c75ac8944fb92d11bd7c1ce3bd055d1a8e8ed6f6929",
    "oracle --check no-ejr-beta --grid 1 --instance fig1.json --beta 1 --t 1":
        "872ee3d5d39220a5d81be1fc5504700b1e8b2330037fda3168c40192b20fa107",
    "oracle --check opt --grid 1 --instance fig1.json --beta 1 --mode strict --t 3":
        "80d76cdfefeeb73fc2145c6d9ecc43d0906b22e04d27e9c421b923301b1c8d2c",
    "oracle --check no-ejr-beta --grid 1 --instance fig1.json --beta 1 --objective gpav":
        "9ad24f920141effe0c7e74c5faab341461bc643a7dfee7322ad4862068644d16",
    "oracle --check min-max-avg --grid 1 --instance fig1.json --t 1 --objective nash --beta 2":
        "80d76cdfefeeb73fc2145c6d9ecc43d0906b22e04d27e9c421b923301b1c8d2c",
    "oracle --check no-ejr-beta --grid 1 --instance fig1.json":
        "89098f77d29172ca11453d358d0c17b2af894b4f843d09978a0eadb6e4f17a8a",
    "oracle --check no-ejr-beta --grid 1 --instance fig1.json --mode weak":
        "89098f77d29172ca11453d358d0c17b2af894b4f843d09978a0eadb6e4f17a8a",
    "oracle --check min-max-avg --grid 1 --instance fig1.json":
        "f8aa24bdc81407e4b47e54158ea8dd04103645a3790fe19459c054b929b84467",
    "oracle --check min-max-avg --grid 1 --instance fig1.json --objective gpav":
        "9ad24f920141effe0c7e74c5faab341461bc643a7dfee7322ad4862068644d16",
    "oracle --check opt --objective best --instance fig1.json":
        "eb781191fa30f0f8892abc0be09340fe5e60d11c6e55ded9f2f438ffb94800a3",
    "bench --sizes 6:2:2,10:3:3 --seed 3":
        "6344ebc7ad272b12ae9f13ff07ce4de21a9f258ce037c1096e2625a8fb915ec2",
    "bench --sizes 3:-1:1":
        "ea29226e1113dfb80836b0b5e322ef1436a079bee3a15cdcf723ef3eade9360b",
    "bench --sizes 3:1:1 --seed -5":
        "3a18144d1b86a3a846a14fe8bb9017bd2b56b4a2279dddc5c3d4d3deaea4c347",
    "run --help":
        "4414396e47e7c275430c6fbb5afdb3f22ae807c17e7d0c158c8617ad88138174",
    "verify --help":
        "e727cbdcdf6a171308ae3f7dc51b5f2149cd60818e24a2e1529f48441dbf36af",
    "audit --help":
        "d217a9da8d9de3ffd912196c95487f03b37a406a22c4e93262a1a38b4e20e472",
    "oracle --help":
        "e9de0c46f1104ce5f045d3377f7fc1c27f3aeb288c6de9bee2c671d3132505aa",
}
