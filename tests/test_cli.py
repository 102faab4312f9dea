import json
import subprocess
import sys

from qtdelta.cli import main

TROPICAL = {
    "relator": {"rank": 2, "terms": [
        {"exp": [0, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [0, 1], "coeff": [{"qexp": [0], "c": 1}]}]},
    "cocycle": {"rank": 2, "s": 1, "B": [[[0, 0], [0, 0]]]},
}

TWO_BLOCK = {"form": {"n": 4, "s": 2, "phi": [
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]}}

HEISENBERG2 = {"presentation": {
    "generators": ["x1", "x2", "y1", "y2"],
    "central": ["z"],
    "commutators": [{"a": 1, "b": 3, "exps": [1]},
                    {"a": 2, "b": 4, "exps": [1]}]}}


def run_cli(command, payload, *flags):
    proc = subprocess.run(
        [sys.executable, "-m", "qtdelta.cli", command, *flags],
        input=json.dumps(payload), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(command, payload, tmp_path, *flags):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main([command, "--input", str(inp), "--output", str(out), *flags])
    return code, out.read_text() if out.exists() else ""


class TestSubcommands:
    def test_delta_tropical(self, tmp_path):
        code, out = run_inproc("delta", TROPICAL, tmp_path)
        assert code == 0
        fan = json.loads(out)
        assert fan["dim"] == 2 and len(fan["cones"]) == 3

    def test_initform_and_tc(self, tmp_path):
        code, out = run_inproc("initform", dict(TROPICAL, chi=[0, 1]),
                               tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["B"]["basis"] == [[1, 0]]
        assert len(payload["r_chi"]["terms"]) == 2
        code, out = run_inproc("tc", dict(TROPICAL, chi=[0, 1]), tmp_path)
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_lc_roundtrips_fan_json(self, tmp_path):
        code, out = run_inproc("delta", TROPICAL, tmp_path)
        fan = json.loads(out)
        code, out = run_inproc("lc", {"fan": fan, "point": [0, 1]}, tmp_path)
        assert code == 0
        lc = json.loads(out)
        # output fans parse back as inputs
        code, out = run_inproc("lc", {"fan": lc, "point": [0, 0]}, tmp_path)
        assert code == 0 and json.loads(out) == lc

    def test_check_lemma31_sampled(self, tmp_path):
        code, out = run_inproc("check-lemma31", TROPICAL, tmp_path,
                               "--sample", "20", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] and len(payload["checks"]) == 20

    def test_check_dim_and_induced(self, tmp_path):
        code, out = run_inproc("check-dim", TROPICAL, tmp_path,
                               "--sample", "6")
        assert code == 0 and json.loads(out)["all_hold"]
        payload = {
            "relator": {"rank": 2, "terms": [
                {"exp": [0, 0], "coeff": [{"qexp": [0], "c": 1}]},
                {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]}]},
            "cocycle": {"rank": 2, "s": 1, "B": [[[0, 0], [0, 0]]]},
            "A1": {"ambient_rank": 2, "basis": [[1, 0]]},
        }
        code, out = run_inproc("check-induced", payload, tmp_path,
                               "--sample", "5", "--seed", "2")
        assert code == 0 and json.loads(out)["all_equal"]

    def test_torus_mul(self, tmp_path):
        payload = {
            "a": {"rank": 2, "terms": [
                {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]}]},
            "b": {"rank": 2, "terms": [
                {"exp": [0, 1], "coeff": [{"qexp": [0], "c": 1}]}]},
            "cocycle": {"rank": 2, "s": 1, "B": [[[0, 1], [0, 0]]]},
        }
        code, out = run_inproc("torus-mul", payload, tmp_path)
        assert code == 0
        assert json.loads(out) == {"rank": 2, "terms": [
            {"exp": [1, 1], "coeff": [{"qexp": [1], "c": 1}]}]}

    def test_center(self, tmp_path):
        code, out = run_inproc("center", TWO_BLOCK, tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["subspace"]["basis"] == []
        assert payload["lattice"]["basis"] == []

    def test_symbase_and_verify(self, tmp_path):
        code, out = run_inproc("symbase", TWO_BLOCK, tmp_path, "--seed", "1")
        assert code == 0
        base = json.loads(out)["base"]
        code, out = run_inproc("verify-base",
                               dict(TWO_BLOCK, base=base), tmp_path)
        assert code == 0 and json.loads(out)["passed"]

    def test_verify_base_failure_exits_one(self, tmp_path):
        bad = {"V0": [], "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0]]],
               "lines": [[1, 0]]}
        code, out = run_inproc("verify-base", dict(TWO_BLOCK, base=bad),
                               tmp_path)
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_abelian_split(self, tmp_path):
        code, out = run_inproc("symbase", TWO_BLOCK, tmp_path)
        base = json.loads(out)["base"]
        payload = dict(TWO_BLOCK, base=base,
                       U=[[1, 0, 0, 0], [0, 0, 1, 0]])
        code, out = run_inproc("abelian-split", payload, tmp_path)
        assert code == 0
        comps = json.loads(out)["components"]
        assert sorted(c["basis"][0] for c in comps) \
            == [[0, 0, 1, 0], [1, 0, 0, 0]]

    def test_check_ample(self, tmp_path):
        payload = {"form": {"n": 2, "s": 1, "phi": [[[0, 1], [-1, 0]]]},
                   "X": [[1, 0], [0, 1]],
                   "Omega": [[[1, 0]], [[0, 1]]],
                   "probes": [[[1, 0]], [[0, 1]], [[1, 1]]]}
        code, out = run_inproc("check-ample", payload, tmp_path)
        assert code == 0 and json.loads(out)["passed"]

    def test_group_structure(self, tmp_path):
        code, out = run_inproc("group-structure", HEISENBERG2, tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["decomposed"]
        assert [b["rank"] for b in payload["heisenberg_blocks"]] == [2]

    def test_verify_thm42(self, tmp_path):
        payload = {"form": {"n": 4, "s": 2, "phi": TWO_BLOCK["form"]["phi"]},
                   "parts": [
                       {"ambient_rank": 4,
                        "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                       {"ambient_rank": 4,
                        "basis": [[0, 0, 1, 0], [0, 0, 0, 1]]}]}
        code, out = run_inproc("verify-thm42", payload, tmp_path)
        assert code == 0 and json.loads(out)["passed"]

    def test_verify_thm42_twin_fails(self, tmp_path):
        twin = [[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]
        payload = {"form": {"n": 4, "s": 1, "phi": twin},
                   "parts": [
                       {"ambient_rank": 4,
                        "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                       {"ambient_rank": 4,
                        "basis": [[0, 0, 1, 0], [0, 0, 0, 1]]}]}
        code, out = run_inproc("verify-thm42", payload, tmp_path)
        assert code == 1
        report = json.loads(out)
        assert not report["distinct_image_lines"] and report["rank_one_images"]


class TestErrorHandling:
    def test_malformed_json_exit_two(self):
        proc = subprocess.run([sys.executable, "-m", "qtdelta.cli", "delta"],
                              input="{bad", capture_output=True, text=True)
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_missing_field_exit_two(self, tmp_path):
        code, _ = run_inproc("delta", {"cocycle": TROPICAL["cocycle"]},
                             tmp_path)
        assert code == 2

    def test_unknown_flag_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtdelta.cli", "delta", "--bogus"],
            input="{}", capture_output=True, text=True)
        assert proc.returncode == 2

    def test_check_dim_outside_regular_part(self, tmp_path):
        code, _ = run_inproc("check-dim", dict(TROPICAL, chi=[1, 1]),
                             tmp_path)
        assert code == 2

    def test_non_object_term_exit_two(self, tmp_path):
        payload = dict(TROPICAL, chi=[0, 0],
                       relator={"rank": 2, "terms": [5]})
        code, _ = run_inproc("tc", payload, tmp_path)
        assert code == 2

    def test_non_array_exp_exit_two(self, tmp_path):
        payload = dict(TROPICAL, chi=[0, 0], relator={"rank": 2, "terms": [
            {"exp": 5, "coeff": [{"qexp": [0], "c": 1}]}]})
        code, _ = run_inproc("tc", payload, tmp_path)
        assert code == 2

    def test_non_object_commutator_exit_two(self, tmp_path):
        payload = {"presentation": dict(HEISENBERG2["presentation"],
                                        commutators=[7])}
        code, _ = run_inproc("group-structure", payload, tmp_path)
        assert code == 2

    def test_non_array_base_blocks_exit_two(self, tmp_path):
        payload = dict(TWO_BLOCK, base={"V0": [], "blocks": 5, "lines": []})
        code, _ = run_inproc("verify-base", payload, tmp_path)
        assert code == 2

    def test_zero_relator_exit_two(self, tmp_path):
        payload = {"relator": {"rank": 2, "terms": []},
                   "cocycle": TROPICAL["cocycle"]}
        code, _ = run_inproc("delta", payload, tmp_path)
        assert code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cases = [
            ("delta", TROPICAL, ()),
            ("check-lemma31", TROPICAL, ("--sample", "8", "--seed", "3")),
            ("check-dim", TROPICAL, ("--sample", "4", "--seed", "5")),
            ("symbase", TWO_BLOCK, ("--seed", "9")),
            ("group-structure", HEISENBERG2, ("--seed", "2")),
        ]
        for command, payload, flags in cases:
            first = run_cli(command, payload, *flags)
            second = run_cli(command, payload, *flags)
            assert first == second
            assert first[0] == 0

    def test_pretty_format_stable(self):
        a = run_cli("delta", TROPICAL, "--format", "pretty")
        b = run_cli("delta", TROPICAL, "--format", "pretty")
        assert a == b
        assert a[1].startswith("{\n")
