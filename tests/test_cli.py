"""Command-line surface: outputs, exit codes, determinism."""

import json

import lrcumulants.cli as cli
from lrcumulants import cumulants, verify
from lrcumulants.cli import main
from lrcumulants.fock import CoefficientTable, VacuumMoments
from lrcumulants.partitions import MAX_GROUND_SET, Permutation
from lrcumulants.verify import moment_routes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_noncrossing_count(capsys):
    code, out, _ = run(capsys, "enumerate", "noncrossing", "--n", "4")
    assert code == 0
    assert "instances: 14" in out
    assert "status: pass" in out


def test_enumerate_luk_n1(capsys):
    code, out, _ = run(capsys, "enumerate", "luk", "--n", "1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["objects"] == [[0]]


def test_enumerate_pchi_excludes_the_nested_pair(capsys):
    code, out, _ = run(capsys, "enumerate", "pchi", "--n", "4", "--chi", "lrlr", "--json")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["objects"]) == 14
    assert [[1, 4], [2, 3]] not in doc["objects"]
    assert [[1, 3], [2, 4]] in doc["objects"]


def test_enumerate_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "pchi", "--n", "4", "--chi", "lrx")
    assert code == 2 and "'l' and 'r'" in err
    code, _, err = run(capsys, "enumerate", "pchi", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "pchi", "--n", "3", "--chi", "lrlr")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "partitions", "--n", "0")
    assert code == 2 or "error" in err  # argparse passes, our validation trips
    code, _, _ = run(capsys, "enumerate", "weird", "--n", "3")
    assert code == 2


def test_simulate_worked_example(capsys):
    code, out, _ = run(capsys, "simulate", "--rise", "2,-1,1,-1,-1", "--chi", "rllrl")
    assert code == 0
    assert "exit_order: [3,1,5,2,4]" in out
    assert "output_partition: [[1,2,4],[3,5]]" in out
    assert "combined_standings: [[1,4,5],[2,3]]" in out
    assert "sigma_chi: [2,3,5,4,1]" in out


def test_simulate_flat_path(capsys):
    code, out, _ = run(capsys, "simulate", "--rise", "0,0,0", "--chi", "lrl")
    assert code == 0
    assert "output_partition: [[1],[2],[3]]" in out


def test_simulate_invalid_rise_reports_prefix(capsys):
    code, _, err = run(capsys, "simulate", "--rise=-1,1", "--chi", "lr")
    assert code == 2
    assert "partial sum of the first 1 entries" in err
    code, _, err = run(capsys, "simulate", "--rise", "1,0", "--chi", "lr")
    assert code == 2
    assert "sum to 1" in err


def test_moment_symbolic_single_letter(capsys):
    code, out, _ = run(capsys, "moment", "--chi", "l", "--omega", "1", "--symbolic")
    assert code == 0
    assert "value: a[1]" in out


def test_moment_fourteen_terms(capsys):
    code, out, _ = run(
        capsys, "moment", "--chi", "lrlr", "--omega", "1,2,3,4", "--symbolic", "--d", "4", "--json"
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["results"]["value"]) == 14


def test_cumulant_symbolic_is_single_symbol(capsys):
    code, out, _ = run(capsys, "cumulant", "--chi", "lrlr", "--omega", "1,2,1,2", "--symbolic")
    assert code == 0
    assert "value: b[1,1,2,2]" in out
    assert "ok   mobius sum equals mixture coefficient: b[1,1,2,2]" in out
    assert "status: pass" in out


def test_moment_with_table_file(tmp_path, capsys):
    table = CoefficientTable.random(2, 3, seed=5)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json()))
    code, out, _ = run(
        capsys, "moment", "--chi", "lrl", "--omega", "1,2,2", "--table", str(path)
    )
    assert code == 0
    assert "status: pass" in out


def test_moment_table_io_error(capsys):
    code, _, err = run(
        capsys, "moment", "--chi", "lr", "--omega", "1,2", "--table", "/no/such/file.json"
    )
    assert code == 3
    assert "/no/such/file.json" in err


def test_moment_invalid_table_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in (
        "{not json",
        '{"d": 2, "n_o": 2, "mode": "Symbolic"}',  # unknown mode
        '{"d": 2, "n_o": 2, "mode": "symbolic", "alpha": {"1": "1/2"}}',
        '{"d": 2, "n_o": 2.5, "alpha": {"1": "1/2"}}',
        '{"d": true, "n_o": 2, "alpha": {"1": "1/2"}}',
        '{"d": 2, "n_o": 2, "alpha": ["1", "1/2"]}',
        '{"d": 2, "n_o": 2, "alpha": {"1": 0.1}}',  # floats are not exact
        '{"d": 2, "n_o": 2, "alpha": {"1": 1, "1,1": true}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": "0.5"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": "1/0"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": null}}',
        "[1, 2]",  # the top level must be an object
        '"hello"',
        '{"d": 2, "n_o": 2, "alpha": {"1": "1/2", "01": "3"}}',  # two keys for one word
        '{"d": 2, "n_o": 2, "alpha": {" 2": "1/2"}}',
        '{"d": 2, "n_o": 2, "alpha": {"+1": "1/2"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1_1": "1/2"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": "1/-2"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": "1/2 "}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": "1//2"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1": "\\u0663"}}',  # a digit int() would accept
        '{"d": 2, "n_o": 2, "alpha": {"1": "1/\\u0663"}}',
        '{"d": 2, "n_o": 2, "alpha": {"3": "1"}}',  # a letter above d
        '{"d": 2, "n_o": 2, "alpha": {"1,2,1": "1"}}',  # a word longer than n_o
        '{"d": 2, "n_o": 2, "alpha": {"0": "1"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1,,2": "1"}}',
        '{"d": 2, "n_o": 2, "alpha": {"1,": "1"}}',
    ):
        path.write_text(text)
        code, _, err = run(capsys, "moment", "--chi", "lr", "--omega", "1,2", "--table", str(path))
        assert code == 3, text
    for text, missing in (
        ('{"n_o": 2, "alpha": {"1": "1/2"}}', "d"),
        ('{"d": 2, "alpha": {"1": "1/2"}}', "n_o"),
        ('{"mode": "symbolic"}', "d and n_o"),
    ):
        path.write_text(text)
        code, _, err = run(capsys, "moment", "--chi", "lr", "--omega", "1,2", "--table", str(path))
        assert code == 3, text
        assert f"a table must give {missing}" in err, err


def test_a_beta_defect_is_refused_behind_a_valid_alpha(tmp_path, capsys):
    # alpha holds every valid word, so each valid key in beta was validated
    # earlier in the load; each beta entry must still be checked
    alpha = {key: "1" for key in ("1", "2", "1,1", "1,2", "2,1", "2,2")}
    path = tmp_path / "bad.json"
    for beta in (
        ["1", "1/2"],
        {"1": 0.1},
        {"1": 1, "1,1": True},
        {"1": "0.5"},
        {"2,1": "0.5"},
        {"1": "1/0"},
        {"1": None},
        {"1": "1/2", "01": "3"},
        {" 2": "1/2"},
        {"+1": "1/2"},
        {"1_1": "1/2"},
        {"1": "1/-2"},
        {"1": "1/2 "},
        {"1": "1//2"},
        {"1": "\u0663"},
        {"1": "1/\u0663"},
        {"3": "1"},
        {"1,2,1": "1"},  # extends a key validated in alpha, beyond n_o
        {"0": "1"},
        {"1,,2": "1"},
        {"1,": "1"},
        {"1,3": "1"},  # extends a key validated in alpha by a letter above d
        {"2,02": "1"},
    ):
        path.write_text(json.dumps({"d": 2, "n_o": 2, "alpha": alpha, "beta": beta}))
        code, out, err = run(capsys, "moment", "--chi", "lr", "--omega", "1,2", "--table", str(path))
        assert code == 3, beta
        assert out == "" and ": beta " in err, (beta, err)


def test_each_query_reads_its_table_file_again(tmp_path, capsys):
    path = tmp_path / "t.json"
    values = []
    for value in ("1/2", "3/4"):  # same length, so the file's size does not change
        path.write_text(json.dumps({"d": 1, "n_o": 1, "alpha": {"1": value}}))
        code, out, _ = run(
            capsys, "moment", "--chi", "l", "--omega", "1", "--table", str(path), "--json"
        )
        assert code == 0
        values.append(json.loads(out)["results"]["value"])
    assert values == ["1/2", "3/4"]


def test_table_values_are_integers_or_fraction_strings(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"d": 1, "n_o": 2, "alpha": {"1": "-3/4", "1,1": 2}, "beta": {"1": 5}}')
    code, out, _ = run(capsys, "moment", "--chi", "l", "--omega", "1", "--table", str(path))
    assert code == 0
    assert "value: -3/4" in out
    code, out, _ = run(capsys, "cumulant", "--chi", "ll", "--omega", "1,1", "--table", str(path))
    assert code == 0
    assert "value: 2" in out and "status: pass" in out


def test_symbolic_d_must_be_positive(capsys):
    for d in ("0", "-1"):
        code, out, err = run(capsys, "moment", "--chi", "l", "--omega", "1", "--symbolic", "--d", d)
        assert code == 2, d
        assert out == "" and "positive" in err


def test_symbolic_table_size_is_capped(capsys):
    n = 2000
    for query, message in (
        # 2 * 50001 symbols, one over the cap
        (("--chi", "l", "--omega", "1", "--d", "50001"), "100000 symbols"),
        # 4,000 symbols holding 4,002,000 letters
        (("--chi", "l" * n, "--omega", ",".join(["1"] * n)), "1000000 stored letters"),
    ):
        code, out, err = run(capsys, "moment", *query, "--symbolic")
        assert code == 2
        assert out == "" and message in err


def test_an_oversized_query_is_refused_before_any_table_or_sweep(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(CoefficientTable.random(2, 2, seed=0).to_json()))
    done = []
    for name in ("_sweep", "_apply", "sweep_subwords"):
        monkeypatch.setattr(cli.VacuumMoments, name, lambda self, *args: done.append(args))
    for name in ("symbolic", "from_file"):
        monkeypatch.setattr(cli.CoefficientTable, name, lambda *args: done.append(args))
    n = MAX_GROUND_SET + 1
    query = ("--chi", "lr" * (n // 2), "--omega", ",".join(["1", "2"] * (n // 2)))
    for command in ("moment", "cumulant"):
        for source in (("--symbolic",), ("--table", str(path))):
            code, out, err = run(capsys, command, *query, *source)
            assert code == 2, (command, source)
            assert out == "" and f"ground-set size {n} exceeds" in err
    assert done == []


def test_d_with_a_table_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(CoefficientTable.random(2, 2, seed=0).to_json()))
    for d in ("2", "7"):
        code, out, err = run(
            capsys, "moment", "--chi", "l", "--omega", "1", "--table", str(path), "--d", d
        )
        assert code == 2, d
        assert out == "" and "--d" in err


def test_moment_length_mismatch(capsys):
    code, _, err = run(capsys, "moment", "--chi", "lr", "--omega", "1,2,3", "--symbolic")
    assert code == 2


def test_omega_out_of_range_for_table(tmp_path, capsys):
    table = CoefficientTable.random(2, 2, seed=0)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table.to_json()))
    code, _, err = run(capsys, "moment", "--chi", "ll", "--omega", "1,3", "--table", str(path))
    assert code == 2


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm49", "--max-n", "4")
    assert code == 0
    assert "instances: 30" in out  # 2 + 4 + 8 + 16 words
    assert "status: pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_bifree_refuses_fewer_than_two_indices_before_building_a_table(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_SHARED", {})
    for d in ("1", "0"):
        code, out, err = run(capsys, "verify", "bifree", "--d", d)
        assert code == 2, d
        assert out == "" and err == "error: d must be at least 2: a mixed cumulant has two distinct indices\n"
    # a mixed cumulant also needs two letters: max_n below 2 is refused
    # with its own name, not the separated table's n_o
    for max_n in ("1", "0", "-2"):
        code, out, err = run(capsys, "verify", "bifree", "--max-n", max_n)
        assert code == 2, max_n
        assert out == "" and err == (
            f"error: max_n must be at least 2: a mixed cumulant has two letters or more, got {max_n}\n")
    assert verify._SHARED == {}


def test_verify_refuses_d_below_one_before_building_a_table(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_SHARED", {})
    for suite in ("lemma67", "prop610", "thm65"):
        for d, max_n in (("0", ()), ("-1", ()), ("0", ("--max-n", "0"))):
            code, out, err = run(capsys, "verify", suite, "--d", d, *max_n)
            assert code == 2, (suite, d, max_n)
            assert out == "" and err == f"error: d must be a positive integer, got {d}\n"
    assert verify._SHARED == {}


def test_a_query_refuses_d_or_omega_letters_below_one_before_building_a_table(monkeypatch, capsys):
    built = []
    for name in ("symbolic", "from_file"):
        monkeypatch.setattr(cli.CoefficientTable, name, lambda *args: built.append(args))
    for command in ("moment", "cumulant"):
        for query, message in (
            (("--omega", "1,1", "--d", "0"), "--d must be a positive integer, got 0"),
            (("--omega", "1,1", "--d", "-2", "--symbolic"), "--d must be a positive integer, got -2"),
            # with no --d, d defaults to the largest omega letter
            (("--omega", "0,0"), "--omega letters must be positive integers, got 0"),
            (("--omega", "2,-1", "--d", "2"), "--omega letters must be positive integers, got -1"),
            (("--omega", "1,0", "--table", "t.json"), "--omega letters must be positive integers, got 0"),
        ):
            code, out, err = run(capsys, command, "--chi", "lr", *query)
            assert code == 2, (command, query)
            assert out == "" and err == f"error: {message}\n"
    assert built == []


def test_verify_zero_instances_fails_loudly(capsys):
    code, out, _ = run(capsys, "verify", "thm49", "--max-n", "0")
    assert code == 1
    assert "zero instances" in out
    assert "status: fail" in out


def test_json_report_schema(capsys):
    code, out, _ = run(capsys, "verify", "eq12y", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["command"] == "verify"
    assert doc["status"] == "pass"
    assert doc["instances"] == 16
    assert {"name", "expected", "actual", "ok"} <= set(doc["checks"][0])
    assert isinstance(doc["elapsed"], float)


def test_a_json_report_is_one_line(capsys):
    chi, omega = "lrrlrll", (1, 2, 2, 1, 2, 1, 1)
    code, out, _ = run(
        capsys, "moment", "--chi", chi, "--omega", ",".join(map(str, omega)),
        "--symbolic", "--d", "2", "--json",
    )
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    doc = json.loads(out)
    value = VacuumMoments(CoefficientTable.symbolic(2, 7))(tuple(zip(omega, chi)))
    assert len(value.terms) > 1
    check = doc["checks"][0]
    assert doc["results"]["value"] == check["actual"] == check["expected"] == value.to_json()


def test_a_failing_json_report_shows_both_routes(monkeypatch, capsys):
    # the injected defect of the sigma_chi rows: the family sum runs over NC(n)
    monkeypatch.setattr(cumulants, "sigma_chi", lambda chi: Permutation.identity(chi.n))
    code, out, _ = run(
        capsys, "moment", "--chi", "lrlr", "--omega", "1,2,1,2", "--symbolic", "--json"
    )
    assert code == 1
    check = json.loads(out)["checks"][0]
    operator, family = moment_routes(
        VacuumMoments(CoefficientTable.symbolic(2, 4)), "lrlr", (1, 2, 1, 2)
    )
    assert check["actual"] == operator.to_json()
    assert check["expected"] == family.to_json()
    assert check["expected"] != check["actual"]


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "prop413", "--max-n", "4", "--json")
    _, second, _ = run(capsys, "verify", "prop413", "--max-n", "4", "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed"), b.pop("elapsed")  # wall-clock, excluded from the guarantee
    assert a == b
    _, t1, _ = run(capsys, "enumerate", "pchi", "--n", "5", "--chi", "rllrl")
    _, t2, _ = run(capsys, "enumerate", "pchi", "--n", "5", "--chi", "rllrl")
    assert t1 == t2


def test_each_call_parses_as_in_a_fresh_process(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(CoefficientTable.random(2, 3, seed=1).to_json()))
    calls = [
        ["cumulant", "--chi", "lrl", "--omega", "1,2,2", "--symbolic", "--d", "2"],
        ["cumulant", "--chi", "lrl", "--omega", "1,2,2", "--table", str(path)],
        ["moment", "--chi", "lr", "--omega", "1,2", "--table", str(path), "--symbolic"],
        ["moment", "--chi", "lr"],  # --omega is required
        ["moment", "--chi", "rl", "--omega", "2,1", "--table", str(path)],
        ["enumerate", "noncrossing", "--n", "3"],
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)  # as in a new process
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0]

    build_parser = cli.build_parser
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert len(built) == 1  # one parser, reused by every call
