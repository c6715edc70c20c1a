"""Problem-file parsing, task dispatch, report determinism, exit codes."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ncqm import cli
from ncqm.cli import ProblemError, ProblemFile, main, run_task
from ncqm.poisson import build_gamma

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

FUZZY_TEXT = """{
  "dim": 3,
  "bivector": [
    {"i": 1, "j": 2, "poly": "x3"},
    {"i": 2, "j": 3, "poly": "x1"},
    {"i": 3, "j": 1, "poly": "x2"}
  ],
  "measure": "1",
  "order": 2,
  "tasks": ["validate"],
  "seed": 5
}"""


class TestParsing:
    def test_fuzzy_file(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        assert problem.dim == 3
        assert problem.seed == 5
        # the (3,1) entry is folded into the upper triangle with a sign
        assert problem.bivector.entry(0, 2).text() == "-1/1*x2"

    def test_empty_bivector_is_valid(self):
        problem = ProblemFile.parse('{"dim": 2, "bivector": []}')
        rec = run_task(problem, "validate")
        assert rec["status"] == "pass"

    def test_diagonal_entry_rejected(self):
        with pytest.raises(ProblemError):
            ProblemFile.parse(
                '{"dim": 2, "bivector": [{"i": 1, "j": 1, "poly": "x1"}]}')

    def test_index_out_of_range(self):
        with pytest.raises(ProblemError):
            ProblemFile.parse(
                '{"dim": 2, "bivector": [{"i": 1, "j": 3, "poly": "x1"}]}')

    def test_bad_polynomial_names_entry(self):
        with pytest.raises(ProblemError) as err:
            ProblemFile.parse(
                '{"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x9"}]}')
        assert "(1,2)" in str(err.value)

    def test_unknown_task(self):
        with pytest.raises(ProblemError):
            ProblemFile.parse('{"dim": 2, "bivector": [], "tasks": ["fly"]}')

    def test_json_syntax_error_position(self):
        with pytest.raises(ProblemError) as err:
            ProblemFile.parse('{"dim": 2,,}')
        assert "line" in str(err.value)

    def test_roundtrip(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        again = ProblemFile.parse(json.dumps(problem.to_json()))
        assert again.to_json() == problem.to_json()
        assert again.bivector == problem.bivector


class TestTasks:
    def test_validate_pass(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        rec = run_task(problem, "validate")
        assert rec["status"] == "pass"
        assert rec["jacobi_defect"] == {}

    def test_validate_fail_payload(self):
        text = (PROBLEMS / "non_poisson.json").read_text()
        problem = ProblemFile.parse(text)
        rec = run_task(problem, "validate")
        assert rec["status"] == "fail"
        assert rec["jacobi_defect"]  # nonzero polynomial printed

    def test_gamma_task(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        rec = run_task(problem, "gamma")
        assert rec["status"] == "pass"
        assert "1" in rec["tensors"] and "2" in rec["tensors"]

    def test_gamma_error_on_non_poisson(self):
        text = (PROBLEMS / "non_poisson.json").read_text()
        problem = ProblemFile.parse(text)
        rec = run_task(problem, "gamma")
        assert rec["status"] == "error"
        assert rec["jacobi_defect"]

    def test_oscillator_guard(self):
        problem = ProblemFile.parse('{"dim": 2, "bivector": []}')
        rec = run_task(problem, "oscillator")
        assert rec["status"] == "error"

    def test_free_particle(self):
        problem = ProblemFile.parse(
            '{"dim": 2, "bivector": [], "measure": "1+x1^2"}')
        rec = run_task(problem, "free-particle")
        assert rec["status"] == "pass"

    def test_star_assoc_small(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        rec = run_task(problem, "star-assoc")
        assert rec["status"] == "pass"
        assert rec["failures"] == []
        assert rec["bounds"]["degree_max"] == 3


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        path = str(PROBLEMS / "quadratic2d.json")
        assert main([path, "--task", "darboux-check", "--task", "gamma"]) == 0
        first = capsys.readouterr().out
        assert main([path, "--task", "darboux-check", "--task", "gamma"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.strip().startswith("{")

    def test_report_sorted_by_task(self, capsys):
        path = str(PROBLEMS / "quadratic2d.json")
        assert main([path, "--task", "gamma", "--task", "darboux-check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["tasks"]) == sorted(report["tasks"])


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main([str(PROBLEMS / "quadratic2d.json"), "--task", "gamma"]) == 0
        capsys.readouterr()

    def test_fail_is_one(self, capsys):
        assert main([str(PROBLEMS / "non_poisson.json")]) == 1
        capsys.readouterr()

    def test_missing_file_is_two(self, capsys):
        assert main(["/nonexistent/problem.json"]) == 2
        capsys.readouterr()

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 0}')
        assert main([str(bad)]) == 2
        capsys.readouterr()

    def test_bad_flag_is_two(self, capsys):
        assert main(["--task", "unknown"]) == 2
        capsys.readouterr()

    def test_pretty_flag(self, capsys):
        assert main([str(PROBLEMS / "quadratic2d.json"),
                     "--task", "gamma", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{\n")

    @pytest.mark.parametrize("doc,message", [
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": 5}]},
         "entry (1,2): polynomial must be a string"),
        ({"dim": 2, "bivector": [], "measure": 7},
         "measure: polynomial must be a string"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x1^"}]},
         "entry (1,2): unexpected end of polynomial"),
        ({"dim": 2, "bivector": [], "tasks": "validate"},
         "'tasks' must be a list"),
        ({"dim": True, "bivector": []},
         "'dim' must be a positive integer"),
        ({"dim": 2, "bivector": 5},
         "'bivector' must be a list"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "7^2000000"}]},
         "entry (1,2): power with 6000000-bit coefficients exceeds the cap of 256 bits"),
        ({"dim": 3, "bivector": [{"i": 1, "j": 2, "poly": "(1+x1+x2+x3)^40"}]},
         "entry (1,2): power of degree 40 exceeds the cap of 8"),
        ({"dim": 9, "bivector": [{"i": 1, "j": 2, "poly": "x3"}]},
         "'dim' 9 exceeds the cap of 6"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x1"}], "order": 9},
         "'order' 9 exceeds the cap of 8"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "(" * 246 + "x1" + ")" * 246}]},
         "entry (1,2): parentheses nested deeper than 64"),
        ({"dim": 2, "bivector": [], "measure": "-" * 983 + "x3"},
         "measure: variable x3 out of range for dimension 2"),
    ], ids=["poly-int", "measure-int", "dangling-caret", "tasks-string",
            "dim-bool", "bivector-int", "power-coefficient-cap",
            "power-degree-cap", "dim-cap", "order-cap", "nesting-cap",
            "sign-run"])
    def test_malformed_document_is_two(self, doc, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("raw,message", [
        (b'{"dim": 2, "bivector": [], "measure": "\xff"}',
         "problem file is not valid UTF-8"),
        (b'{"dim": ' + b"9" * 5000 + b'}',
         "parse error: a number has too many digits"),
        (b"[" * 100000,
         "parse error: arrays or objects nested too deep"),
    ], ids=["not-utf8", "long-integer", "deep-nesting"])
    def test_malformed_bytes_are_two(self, raw, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_order_flag_cap_is_two(self, capsys):
        # the file's order is within the cap; the flag is checked on its own
        assert main([str(PROBLEMS / "quadratic2d.json"),
                     "--task", "gamma", "--order", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: order 9 exceeds the cap of 8"]

    def test_zero_measure_is_two(self, tmp_path, capsys):
        # a zero density makes every trace vanish, so trace-check would
        # pass vacuously; the file is rejected instead
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({
            "dim": 3, "bivector": [{"i": 1, "j": 2, "poly": "1"}],
            "measure": "0"}))
        for task in ("trace-check", "free-particle"):
            assert main([str(bad), "--task", task]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: measure: density must be nonzero"]


# sha256 of the compact report and the exit code of every problem file and
# task at the file's own order
GOLDEN = [
    ("constant", "validate", 0, "118ca62224184f89ee075765d01ff999eb7ae28e5a4ef3dacc3578bc59165766"),
    ("constant", "gamma", 0, "0e6b719a7fd2d04d8a643fc19448b5d50be89c14cd7372bf7638179929118295"),
    ("constant", "darboux-check", 0, "6961b2e4619f7b778c4504cb082fe696f46e09b3ee05aa1b726857538f6e746e"),
    ("constant", "star-assoc", 0, "7849ce4c1b5843dca41d509955ee8231d96870adda9c48b7216072dbb0d79057"),
    ("constant", "trace-check", 0, "bdb7222d6f7cee3e541b28aa387488ec2df43fe55a969078fa2ab0cdab22da2d"),
    ("constant", "subalgebra", 0, "783522d41dfc9bc62a0237bf3651fce2dd8e99795863ded64ff5225b8de9a808"),
    ("constant", "oscillator", 1, "ab9b1027b5d23a2e59f913c9e77a0557e9ecff0f3c932783f60b51f8931c832e"),
    ("constant", "free-particle", 0, "5c13fa26b0f2336f3c1caadacf067c3970a421b7052a4fe70830251a629f35c5"),
    ("fuzzy_sphere", "validate", 0, "6cab052d33557ac791e31a87277ac4761b9b9fed1bfcfc07038be17e0efd40aa"),
    ("fuzzy_sphere", "gamma", 0, "f60c020172d84f6092acd6c012b55f779dda64c5457a7071e4d77e93923d6f32"),
    ("fuzzy_sphere", "darboux-check", 0, "0bc528ff26735a7e521102622ed9559d2053a7a6d52e5dada33f1400e1215a28"),
    ("fuzzy_sphere", "star-assoc", 0, "4fbb1994b288e82f10c08a5141b8cde1864ab3d242fc4ebed1b1742ae7696e93"),
    ("fuzzy_sphere", "trace-check", 0, "81801f06e5e3a9cbe40f6fa3f0326d119a19ea143c9ed7d70fddfca7a5b71284"),
    ("fuzzy_sphere", "subalgebra", 0, "47d95650c92cd41fb20933003acfcdef292244172e85a46264e1a645741ed099"),
    ("fuzzy_sphere", "oscillator", 0, "38be37e2fdcd858a369e0ed1e057b22cc63e4631be49835fb4b89723bd18126d"),
    ("fuzzy_sphere", "free-particle", 0, "9b51c709d06b54c5ec4bd0e27051eabce827863287df4ab71b0798abe4ee245f"),
    ("non_poisson", "validate", 1, "3918270b8a7ac17e17b93857ce0b9c2182b158f56b91899e1a46f9db567950be"),
    ("non_poisson", "gamma", 1, "24b3de503429358d1fc104724640794f4d08fe0bbf9c9582047cb936aa9a67dc"),
    ("non_poisson", "darboux-check", 1, "70ae2ccecad84e578ee16ad6fbbc79af0c723a156fa7c04072866e09c3289f2e"),
    ("non_poisson", "star-assoc", 1, "4ba517d4216b3b96685be32a848cf90918136a9eed6be22d7f7e875521005e7e"),
    ("non_poisson", "trace-check", 1, "f063878335e1bd9bb877cd5d748feef9824b7979eb9e7847afc6c3f9864496bd"),
    ("non_poisson", "subalgebra", 1, "9a825bde7fb833b624d9cf5e1bb4db4844c1a1ba7cb3658fd66fe09ccd9139ec"),
    ("non_poisson", "oscillator", 1, "86ad07758d7e69f70765bef6f238f6a07ecbbf5b1d8c2485780ac8838b4c6a4a"),
    ("non_poisson", "free-particle", 0, "83bbe9efe30af3cfc320c5c0598c6ebad59069867787ee1737a2d57e68be25a1"),
    ("quadratic2d", "validate", 1, "4bd6d3dd412d5000e16d6120c3bbd82ede00c88423f6e04b435be7715f349c53"),
    ("quadratic2d", "gamma", 0, "f9c3d731251f24e96cceeceaad8493dbb48f2b843ec29fab9aa37d65cfb25858"),
    ("quadratic2d", "darboux-check", 0, "88b7bf2876947074a495398d9d623ec093c2d05d40467968672177060d9e30bb"),
    ("quadratic2d", "star-assoc", 0, "d2ee8a676a42d8f5c3ac66ec97a38983953c67a6874d9ba5a14c77d9bef59fab"),
    ("quadratic2d", "trace-check", 1, "582005348375984eec5d7dbbace74258ce3d7dd34422182ba8e8c63244ca03af"),
    ("quadratic2d", "subalgebra", 0, "0e21f02de1b8aeae426d62d5c703d5918699cd6c8224d5d7f5e8d1e61b7362f8"),
    ("quadratic2d", "oscillator", 1, "ea2aa2d2393c5e0cb27e4b7ab31bd71e3c2737548cfdefd817301444fe8966de"),
    ("quadratic2d", "free-particle", 0, "2e568f8810587c43ef1e238ccd70c8141014d9a6c524b181814fba37b4a4bc81"),
]


@pytest.mark.parametrize("name,task,code,digest", GOLDEN,
                         ids=[f"{n}-{t}" for n, t, _, _ in GOLDEN])
def test_golden_report(name, task, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", task]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the same for every problem file and task at --order 2, recorded while
# operators were still stored as (grade, multi-index) -> coefficient tables
GOLDEN_ORDER2 = [
    ("constant", "darboux-check", 0, "3fd22977d90833f6bd5666290d29cdcf4c7879f3f95c95f078041b99ef4e0d6e"),
    ("constant", "free-particle", 0, "fe3c65353e9b78ffb1c6b1958f52c0b48b6f104dac0dc4866f8813332f41817b"),
    ("constant", "gamma", 0, "0557c6754ceec4caee2ddbae3891a27deba0fef08605da9adf556347bc275cde"),
    ("constant", "oscillator", 1, "9e93259ecfb7dbd51df6f48b8e9569afb2e4395cb013bd51a32e7910d05e4472"),
    ("constant", "star-assoc", 0, "c2ffbaef7c1723fa0411387e4a6810d318bd13846adeeddcec19e307e3a8b3eb"),
    ("constant", "subalgebra", 0, "03b3c8c6cff582cbdfdc82a256b77b74c3960191a997fe2c16998ca6a050b3aa"),
    ("constant", "trace-check", 0, "3f0378f560aeac6e99be77ff5d1c73b73a8a6fd5c0fcc12feb855d1d081814ca"),
    ("constant", "validate", 0, "ba2d0e6249b70f42e7448c5fac74a3a6c93bfa29de6811b882e771470febf5d5"),
    ("fuzzy_sphere", "darboux-check", 0, "6c70d8c899b1599cc284fa6f9cf0c4259eed4762f010e8c5e9337706a6aa3f21"),
    ("fuzzy_sphere", "free-particle", 0, "4b2cbaf914fe6958c86cb194bf70646bcbb7611e33862510c948020beaeec3a1"),
    ("fuzzy_sphere", "gamma", 0, "f26f1bf9c77f84b0697d958a56600862ff55da2a5c8882a108c32ab4bf1c0b5c"),
    ("fuzzy_sphere", "oscillator", 0, "02c67607afb5a54a6ebd900a7d7c1c56beb1adbaa41e1e191a110d224f6eebd0"),
    ("fuzzy_sphere", "star-assoc", 0, "a66409674782c867aef6f8a388f3f291eee36c93f2f14608081cabbd21aa0da6"),
    ("fuzzy_sphere", "subalgebra", 0, "ec831446f8a2cb3ce23a413916bce650b6f5ab28cc667e8e0301e7fa51e77f61"),
    ("fuzzy_sphere", "trace-check", 0, "ff7426a4e658682b9a2dd1ea89b128219de51c1e196c4718e6db7f4bd06442f7"),
    ("fuzzy_sphere", "validate", 0, "ab78f14fe2e165b396d415f544be39b4029d7d3e87552047a15abaae5fd6e43d"),
    ("non_poisson", "darboux-check", 1, "70ae2ccecad84e578ee16ad6fbbc79af0c723a156fa7c04072866e09c3289f2e"),
    ("non_poisson", "free-particle", 0, "83bbe9efe30af3cfc320c5c0598c6ebad59069867787ee1737a2d57e68be25a1"),
    ("non_poisson", "gamma", 1, "24b3de503429358d1fc104724640794f4d08fe0bbf9c9582047cb936aa9a67dc"),
    ("non_poisson", "oscillator", 1, "86ad07758d7e69f70765bef6f238f6a07ecbbf5b1d8c2485780ac8838b4c6a4a"),
    ("non_poisson", "star-assoc", 1, "4ba517d4216b3b96685be32a848cf90918136a9eed6be22d7f7e875521005e7e"),
    ("non_poisson", "subalgebra", 1, "9a825bde7fb833b624d9cf5e1bb4db4844c1a1ba7cb3658fd66fe09ccd9139ec"),
    ("non_poisson", "trace-check", 1, "f063878335e1bd9bb877cd5d748feef9824b7979eb9e7847afc6c3f9864496bd"),
    ("non_poisson", "validate", 1, "3918270b8a7ac17e17b93857ce0b9c2182b158f56b91899e1a46f9db567950be"),
    ("quadratic2d", "darboux-check", 0, "abedad050b2e46a61cec6a52ddc10828a1bef4a9a616fd63f4097945075779f3"),
    ("quadratic2d", "free-particle", 0, "e72a1abce5a6c0abbfcd686b027fdbb8052a322e84d79d10644ade08696b6c9d"),
    ("quadratic2d", "gamma", 0, "dcc8a90d15b620f44156c89722ca8d87c473127b4061b41c9454d73023560f0f"),
    ("quadratic2d", "oscillator", 1, "5043796b030437084ce9f2ead1990dfab0e220035b50d9ce3631c54f3a00dcd1"),
    ("quadratic2d", "star-assoc", 0, "f7929c4691496c9e408d2cd2c475975fbb305e5a0aa1e1efb3c28b4c3a9b6070"),
    ("quadratic2d", "subalgebra", 0, "6d90bcc9983314e0484df3b551581696d500732f28de926a0bc8e9ab547b8689"),
    ("quadratic2d", "trace-check", 1, "9e06d670c62e42016418ea7eebec2d783a7903e223cdf963c197e9633c2b1c17"),
    ("quadratic2d", "validate", 1, "ff8125b7bab6ee114a40226901baa76874c49634da25fd2b192a636f978d0161"),
]


@pytest.mark.parametrize("name,task,code,digest", GOLDEN_ORDER2,
                         ids=[f"{n}-{t}" for n, t, _, _ in GOLDEN_ORDER2])
def test_golden_report_order2(name, task, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", task, "--order", "2"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# darboux-check of every problem file at the orders the tables above leave
# out, recorded while the map was still checked through a separate
# coordinate-and-momentum map type
GOLDEN_DARBOUX = [
    ("constant", 0, 0, "445e8bb77f0ba2c3a88d0a66ec148a7ecb8da9789d3e80448e3a1e1372d1e4c9"),
    ("constant", 1, 0, "fc84c025683d8001eb2a9e4b356555280a7f3ddfb8fff15bec753386a8dd97a5"),
    ("constant", 4, 0, "f28238c812e3a72fa61194237036d0071d2954dca1a4b4dd7de03de6567418b8"),
    ("constant", 5, 0, "12d37879ed3d228b5df83668d81d18e910f278fa390e64939df154f0e77f74fc"),
    ("fuzzy_sphere", 0, 0, "a1a922624e4aa0530bf7e2e5e4be92562371d1dfafae99c9618eebca7e4c0f39"),
    ("fuzzy_sphere", 1, 0, "6778fc52c7c03c1d7ced1acb65685735faeef02e3e9f1682e10dd8e160eb068e"),
    ("fuzzy_sphere", 4, 0, "2ff88c828b4e948aceb725ed0f19ad40124d025de6b524a5fdfdf5cc91b6eb24"),
    ("fuzzy_sphere", 5, 0, "316e9c2dc1ce6282ee72ad404bd2cd9d18eaf6fef143a546cc4c6460fef25322"),
    ("non_poisson", 0, 1, "0a8d4eb5ecc16366fd16f2d00b39be27b09e8f6f3d04d6b6349fa79941932c80"),
    ("non_poisson", 1, 1, "10f24792f5f6605b312afe6451a22cc53a7d99a27828cfc420d6b77b520c18d7"),
    ("non_poisson", 4, 1, "15f43b2eb633bdc2b0ab19e4fa4f20a5ef2d5689449cae7f5db15230cae0a145"),
    ("non_poisson", 5, 1, "f332248dbb99ba477edeeae8cac142215d046151cece018afcdd21494b58c459"),
    ("quadratic2d", 0, 0, "bfcc42a5faa6392b25ab995f92ecb4e539e8b2ad882f1d218677e5fcdfbb8dbf"),
    ("quadratic2d", 1, 0, "e60d5ed75acac9d1a9b2c8397998b78d2c341656ff550d0e2f149de94e20b2e8"),
    ("quadratic2d", 4, 0, "73d32f9429f6c55fc185acebdeb9a3f9edc62705307f7cd63d3171fc25012daa"),
    ("quadratic2d", 5, 0, "7d6ea69a0d608d648d72afba88c5a5f7adcff315791cbbc190ad4b77b6c3038b"),
]


@pytest.mark.parametrize("name,order,code,digest", GOLDEN_DARBOUX,
                         ids=[f"{n}-{o}" for n, o, _, _ in GOLDEN_DARBOUX])
def test_golden_darboux_orders(name, order, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", "darboux-check",
                 "--order", str(order)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# trace-check of every problem file at the orders below the grade-2 product,
# whose reports still carry the gauge, recorded while the gauge came from a
# closed form in the bivector instead of the product's grade-2 rules
GOLDEN_TRACE_LOW_ORDER = [
    ("constant", 0, 0, "6ae5dc1114c59572acfc0f87cf320ea64e6fe8c11095fb4e7c58ee719e854490"),
    ("constant", 1, 0, "5c2b63a345b58600651dec66422c2996603585ae4500d6a7276b66470d967ba8"),
    ("fuzzy_sphere", 0, 0, "6100558b86111c874c5f02ce757ea4840773ec60330e0b3db0f62d1c66aa8bfb"),
    ("fuzzy_sphere", 1, 0, "6fd3f59e2f7fd27fd37023df0dc6237606d692cf02a8b042093d591b771916fe"),
    ("non_poisson", 0, 1, "e4dffc1210bfabdab1218bdf31899ad517c148628cc6a29d9543e59d3e36819f"),
    ("non_poisson", 1, 1, "e8be3aa17896d71d63e2375f8a699a07dfb6fdf1fb974d5c67e9c00c5202548c"),
    ("quadratic2d", 0, 1, "6877061904554499946a052c770bede37db66003ef49790713dac1f8024a2acd"),
    ("quadratic2d", 1, 1, "487dc8266459be30aec67acfc5b519ad40e8ac702f7b83083295983ea98b5c3e"),
]


@pytest.mark.parametrize("name,order,code,digest", GOLDEN_TRACE_LOW_ORDER,
                         ids=[f"{n}-{o}" for n, o, _, _ in GOLDEN_TRACE_LOW_ORDER])
def test_golden_trace_low_orders(name, order, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", "trace-check",
                 "--order", str(order)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the fuzzy sphere with the radial density r^2, recorded as above: the
# gauge is not polynomial, so every order reports the same GaugeError reason
GOLDEN_RADIAL = [
    (0, "7f4727259955b08ec04f6ecd006ef3e6966dc73ad2aecfdc303ecd53410fd9b1"),
    (1, "af88aa1e1fa923c53f11e83a2887000e4446bf13735a498fc08d716df126f49f"),
    (2, "f769d81636cfd724d858c5d3b72fa4e2e085f72863d063a3369c586b7d4b6263"),
    (3, "72d20e7d910e022ad47fdc1bcce1d54c2c7f207bd37cbb2d5a54137b70a441db"),
]


@pytest.mark.parametrize("order,digest", GOLDEN_RADIAL,
                         ids=[str(o) for o, _ in GOLDEN_RADIAL])
def test_golden_radial_gauge_error(order, digest, tmp_path, capsys):
    doc = json.loads((PROBLEMS / "fuzzy_sphere.json").read_text())
    doc["measure"] = "x1^2+x2^2+x3^2"
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--task", "trace-check", "--order", str(order)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["tasks"]["trace-check"] == {
        "status": "error",
        "reason": "gauge entry (1,1) is not polynomial: "
                  "(1/12*x3^2 + 1/12*x2^2 + 1/24*x1^2) / "
                  "(1/1*x3^2 + 1/1*x2^2 + 1/1*x1^2)"}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the Nambu bivector of C = x1*x2 at order 2; its gauge, (3,3) = -1/24, is
# nonzero, so the gauge-corrected pairs run through a nontrivial product
NAMBU_X1X2 = json.dumps({
    "dim": 3, "order": 2,
    "bivector": [{"i": 2, "j": 3, "poly": "x2"}, {"i": 3, "j": 1, "poly": "x1"}]})


def test_trace_check_with_gauge(monkeypatch):
    monkeypatch.setattr(cli, "RANDOM_TRIPLES", 3)
    rec = run_task(ProblemFile.parse(NAMBU_X1X2), "trace-check")
    assert rec["gauge"] == {"(3,3)": "-1/24"}
    text = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "77da724c41aa462eb59159ec515fec3f9eace549da57c75a17d1fdf00002f63c"


def test_subalgebra_builds_one_tower(monkeypatch):
    import ncqm.star
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_gamma(*args, **kwargs)

    monkeypatch.setattr(ncqm.star, "build_gamma", counted)
    monkeypatch.setattr(cli, "build_gamma", counted)
    rec = run_task(ProblemFile.parse(FUZZY_TEXT), "subalgebra")
    assert rec["status"] == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("name,n", [("fuzzy_sphere", 3), ("quadratic2d", 2)])
def test_subalgebra_builds_each_target_once(monkeypatch, name, n):
    """One left star multiplication per bivector entry w^{ij}, i < j,
    shared by the corrected and the bare coordinate operators."""
    from ncqm.star import StarProduct
    original = StarProduct.left_multiplication_operator
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StarProduct, "left_multiplication_operator", counted)
    rec = run_task(ProblemFile.parse((PROBLEMS / f"{name}.json").read_text()), "subalgebra")
    assert rec["status"] == "pass"
    assert len(calls) == n * (n - 1) // 2


def test_oscillator_reports_the_computed_coefficient(monkeypatch):
    """The record carries the report's coefficient, not a fixed string."""
    report = dataclasses.replace(cli.build_fuzzy_oscillator(),
                                 correction_coefficient=Fraction(1, 12))
    monkeypatch.setattr(cli, "build_fuzzy_oscillator", lambda: report)
    rec = run_task(ProblemFile.parse(FUZZY_TEXT), "oscillator")
    assert rec["correction_coefficient"] == "1/12"
