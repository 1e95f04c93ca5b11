import json

from valflag import cli

WHALE = {"vars": ["x", "y"], "rows": [["1", "sqrt(2)", "0"], ["0", "1", "sqrt(3)"]]}
DOLPHIN = {"vars": ["x", "y"], "rows": [["1", "sqrt(2)", "0"], ["0", "0", "1"]]}
SIMPLE = {"vars": ["x", "y"], "rows": [["1", "0", "0"]]}
WEIGHTED = {"vars": ["x", "y"], "rows": [["1", "sqrt(2)", "0"]]}
NONCONT = {"vars": ["x", "y"], "rows": [["0", "0", "1"], ["1", "0", "0"]]}
BLIND = {"vars": ["x", "y"], "rows": [["0", "1", "0"]]}
BOX = {
    "ineqs": [
        {"u": [1, 0], "gamma": "4"},
        {"u": [-1, 0], "gamma": "2"},
        {"u": [0, 1], "gamma": "3"},
        {"u": [0, -1], "gamma": "3"},
    ]
}


def jfile(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_canon_reduces_rows(tmp_path, capsys):
    # second row is the first plus an extra sqrt(3) tail; reduction leaves dolphin
    raw = jfile(tmp_path, "raw.json", {
        "vars": ["x", "y"],
        "rows": [["2", "2*sqrt(2)", "0"], ["1", "sqrt(2)", "sqrt(3)"]],
    })
    assert cli.main(["canon", raw]) == 0
    assert json.loads(capsys.readouterr().out) == DOLPHIN


def test_canon_idempotent_through_files(tmp_path, capsys):
    first = jfile(tmp_path, "whale.json", WHALE)
    assert cli.main(["canon", first]) == 0
    out1 = capsys.readouterr().out
    second = tmp_path / "round.json"
    second.write_text(out1)
    assert cli.main(["canon", str(second)]) == 0
    assert capsys.readouterr().out == out1


def test_eq_equal(tmp_path, capsys):
    a = jfile(tmp_path, "a.json", WHALE)
    b = jfile(tmp_path, "b.json", DOLPHIN)
    assert cli.main(["eq", a, b]) == 0
    assert capsys.readouterr().out == "Equal\n"


def test_eq_distinguished(tmp_path, capsys):
    a = jfile(tmp_path, "a.json", SIMPLE)
    b = jfile(tmp_path, "b.json", WEIGHTED)
    assert cli.main(["eq", a, b]) == 1
    assert capsys.readouterr().out == "Distinguished: x\n"


def test_eq_dimension_mismatch(tmp_path, capsys):
    a = jfile(tmp_path, "a.json", SIMPLE)
    b = jfile(tmp_path, "b.json", {"vars": ["x"], "rows": [["1", "0"]]})
    assert cli.main(["eq", a, b]) == 3
    assert "error:" in capsys.readouterr().err


def test_classify_cont(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    assert cli.main(["classify", m]) == 0
    assert capsys.readouterr().out == (
        "cont\nis_order: true\nheight: 0\nmin_filter_dim: 2\n"
    )


def test_classify_non_continuous(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", NONCONT)
    assert cli.main(["classify", m]) == 0
    assert capsys.readouterr().out == (
        "non_continuous\nis_order: false\nheight: 1\nmin_filter_dim: null\n"
    )


def test_classify_coefficient_blind(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", BLIND)
    assert cli.main(["classify", m]) == 0
    assert capsys.readouterr().out == (
        "coefficient_blind\nis_order: false\nheight: 2\nmin_filter_dim: null\n"
    )


def test_flag_polyhedra(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    assert cli.main(["flag", m]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "polyhedra",
        "vertex": ["sqrt(2)", "0"],
        "dirs": [["1", "sqrt(3)"]],
    }


def test_flag_cones(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", BLIND)
    assert cli.main(["flag", m]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "cones",
        "base": ["0", "1", "0"],
        "dirs": [],
    }


def test_flag_kind_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", NONCONT)
    assert cli.main(["flag", m, "--kind", "polyhedra"]) == 3
    assert "cont" in capsys.readouterr().err


def test_member_yes(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", BOX)
    assert cli.main(["member", m, u]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True, "piece_index": 0}


def test_member_no(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {"pieces": [{"ineqs": [{"u": [1, 0], "gamma": "-10"}]}]})
    assert cli.main(["member", m, u]) == 1
    assert json.loads(capsys.readouterr().out) == {"member": False, "piece_index": None}


def test_member_reports_witnessing_piece(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {
        "pieces": [{"ineqs": [{"u": [1, 0], "gamma": "-10"}]}, BOX],
    })
    assert cli.main(["member", m, u]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True, "piece_index": 1}


def test_cert_product(capsys):
    assert cli.main(["cert", "x*y", "x", "y"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1, 1], "b": "0"}


def test_cert_slack(capsys):
    assert cli.main(["cert", "t^-2*x", "t^-1*x"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1], "b": "1"}


def test_cert_explicit_vars(capsys):
    assert cli.main(["cert", "--vars", "x,y", "x", "x"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1], "b": "0"}


def test_cert_inferred_vars(capsys):
    # names come out sorted, so a is the first coordinate
    assert cli.main(["cert", "b", "a*b", "a^-1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1, 1], "b": "0"}
    # sqrt belongs to the scalar grammar, not to the term grammar, and a
    # name is any identifier, as in --vars
    for name in ["sqrt", "α"]:
        assert cli.main(["cert", name, name]) == 0
        assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1], "b": "0"}


def test_cert_counterexample(capsys):
    assert cli.main(["cert", "y", "x"]) == 1
    assert json.loads(capsys.readouterr().out) == {"point": ["0", "1"]}


def test_cert_homog_rejected(capsys):
    assert cli.main(["cert", "--homog", "x", "x"]) == 3
    assert "R~" in capsys.readouterr().err


def test_cert_empty_meet(capsys):
    assert cli.main(["cert", "x", "t^1*x", "t^1*x^-1"]) == 3
    assert "empty" in capsys.readouterr().err


def test_cmp_prints_order(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", SIMPLE)
    assert cli.main(["cmp", m, "t^1*x", "t^2"]) == 0
    assert capsys.readouterr().out == "less\n"


def test_cmp_bad_polynomial(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", SIMPLE)
    assert cli.main(["cmp", m, "x +", "t^2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cert_refuses_a_sum_of_terms(capsys):
    # x + t^1*x merges into the single term t^1*x, but it is written as two
    assert cli.main(["cert", "x + t^1*x", "x"]) == 2
    assert "single term" in capsys.readouterr().err


def test_ambiguous_variable_names_exit_two(tmp_path, capsys):
    # a repeated name would bind every x to one index, and a variable t
    # would be printed as t^-1*t, which reads back as a coefficient
    repeated = jfile(tmp_path, "repeated.json",
                     {"vars": ["x", "x"], "rows": [["1", "0", "0"]]})
    reserved = jfile(tmp_path, "reserved.json",
                     {"vars": ["t", "y"], "rows": [["1", "sqrt(2)", "0"]]})
    # JSON null is not the name "None"
    null = jfile(tmp_path, "null.json", {"vars": [None], "rows": [["1", "0"]]})
    simple = jfile(tmp_path, "simple.json", SIMPLE)
    calls = [
        ["cmp", repeated, "x", "t^1"],
        ["canon", reserved],
        ["eq", simple, reserved],
        ["canon", null],
        ["cert", "--vars", "x,x", "x", "x"],
        ["cert", "--vars", "t,x", "x", "x"],
    ]
    for argv in calls:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "variable name" in captured.err


def test_mindim_polyhedron(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WEIGHTED)
    assert cli.main(["mindim", m]) == 0
    data = json.loads(capsys.readouterr().out)
    # the line y = 0 pinched out of a box around the vertex (sqrt(2), 0)
    assert data["ineqs"][:2] == [
        {"u": [0, 1], "gamma": "0"},
        {"u": [0, -1], "gamma": "0"},
    ]
    assert len(data["ineqs"]) == 6


def test_mindim_rejects_non_cont(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", NONCONT)
    assert cli.main(["mindim", m]) == 3
    assert "cont" in capsys.readouterr().err


def test_plot_pairs_exact_with_approx(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WEIGHTED)
    assert cli.main(["plot", m]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertex"][0] == {"exact": "sqrt(2)", "approx": "1.41421356237"}
    assert data["vertex"][1] == {"exact": "0", "approx": "0"}
    assert data["dirs"] == []
    assert [p["exact"] for p in data["box"]] == ["-2", "4", "-3", "3"]


def test_plot_rejects_other_dimensions(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", {
        "vars": ["x", "y", "z"],
        "rows": [["1", "sqrt(2)", "sqrt(3)", "0"]],
    })
    assert cli.main(["plot", m]) == 2
    assert "n = 2" in capsys.readouterr().err


def test_missing_file(capsys):
    assert cli.main(["canon", "/nonexistent/matrix.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"vars": ["x"], "rows": [[')
    assert cli.main(["canon", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"vars": ["\xff"], "rows": []}')
    assert cli.main(["canon", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err and "UTF-8" in err


def test_bad_scalar_string(tmp_path, capsys):
    # '²' is a digit to str.isdigit but not to int(); 1.5 is a JSON number
    for entry in ["bogus", "²", 1.5]:
        m = jfile(tmp_path, "m.json", {"vars": ["x"], "rows": [["1", entry]]})
        assert cli.main(["canon", m]) == 2
        assert f"error: {m}: row 1, entry 2: " in capsys.readouterr().err


def test_bad_gamma_names_file_piece_and_inequality(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    bad = {"u": [1, 0], "gamma": 1.5}
    for polyset, where in [
        ({"ineqs": [bad]}, "inequality 1"),
        ({"pieces": [BOX, {"ineqs": [BOX["ineqs"][0], bad]}]}, "piece 2: inequality 2"),
    ]:
        u = jfile(tmp_path, "u.json", polyset)
        assert cli.main(["member", m, u]) == 2
        assert f"error: {u}: {where}, gamma: " in capsys.readouterr().err


def test_row_length_mismatch(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", {"vars": ["x", "y"], "rows": [["1", "0"]]})
    assert cli.main(["canon", m]) == 2
    assert "3 entries" in capsys.readouterr().err


def test_irrational_rhs_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {"ineqs": [{"u": [1, 0], "gamma": "sqrt(2)"}]})
    assert cli.main(["member", m, u]) == 2
    assert "rational" in capsys.readouterr().err


def test_non_integer_normal_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    for normal in ([1.5, 0], [True, 0], ["a", 0]):
        u = jfile(tmp_path, "u.json", {"ineqs": [{"u": normal, "gamma": "1"}]})
        assert cli.main(["member", m, u]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert u in err and "integers" in err


def test_empty_pieces_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {"pieces": []})
    assert cli.main(["member", m, u]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_unknown_verb(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_arguments(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "canon" in capsys.readouterr().out


def test_parser_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # Options set by one call must not leak into the next: --homog and
    # --kind return to their defaults, and a usage error leaves the parser
    # usable.
    noncont = jfile(tmp_path, "m.json", NONCONT)
    calls = [
        ["flag", "--kind", "bogus", noncont],
        ["cert", "--homog", "x", "x"],
        ["cert", "x", "x"],
        ["flag", "--kind", "polyhedra", noncont],
        ["flag", noncont],
    ]
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    first = [run(argv) for argv in calls]
    assert [code for code, _ in first] == [2, 3, 0, 3, 0]
    assert json.loads(first[2][1]) == {"m": 1, "m_l": [1], "b": "0"}
    assert json.loads(first[4][1])["kind"] == "cones"
    assert [run(argv) for argv in calls] == first
    assert len(builds) == 1
