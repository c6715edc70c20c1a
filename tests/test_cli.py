"""Problem-file parsing, task dispatch, report determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from ncqm.cli import ProblemError, ProblemFile, main, run, run_task

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
# task that runs in under a second (fuzzy star-assoc and trace-check,
# quadratic2d star-assoc and constant trace-check are left out)
GOLDEN = [
    ("constant", "validate", 0, "118ca62224184f89ee075765d01ff999eb7ae28e5a4ef3dacc3578bc59165766"),
    ("constant", "gamma", 0, "0e6b719a7fd2d04d8a643fc19448b5d50be89c14cd7372bf7638179929118295"),
    ("constant", "darboux-check", 0, "6961b2e4619f7b778c4504cb082fe696f46e09b3ee05aa1b726857538f6e746e"),
    ("constant", "star-assoc", 0, "7849ce4c1b5843dca41d509955ee8231d96870adda9c48b7216072dbb0d79057"),
    ("constant", "subalgebra", 0, "783522d41dfc9bc62a0237bf3651fce2dd8e99795863ded64ff5225b8de9a808"),
    ("constant", "oscillator", 1, "ab9b1027b5d23a2e59f913c9e77a0557e9ecff0f3c932783f60b51f8931c832e"),
    ("constant", "free-particle", 0, "5c13fa26b0f2336f3c1caadacf067c3970a421b7052a4fe70830251a629f35c5"),
    ("fuzzy_sphere", "validate", 0, "6cab052d33557ac791e31a87277ac4761b9b9fed1bfcfc07038be17e0efd40aa"),
    ("fuzzy_sphere", "gamma", 0, "f60c020172d84f6092acd6c012b55f779dda64c5457a7071e4d77e93923d6f32"),
    ("fuzzy_sphere", "darboux-check", 0, "0bc528ff26735a7e521102622ed9559d2053a7a6d52e5dada33f1400e1215a28"),
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
