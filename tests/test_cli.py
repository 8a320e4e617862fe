import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittcycles
from wittcycles import OrientedGraph, dump_graph, load_graph
from wittcycles.cli import main

SRC = str(Path(wittcycles.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", str(target)]) == 0
    return target


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_corpus_writes_loadable_graphs(corpus_dir):
    names = sorted(p.name for p in corpus_dir.glob("*.json"))
    assert names == ["loop.json", "path_loop.json", "rose2.json", "rose3.json", "theta.json"]
    for p in corpus_dir.glob("*.json"):
        load_graph(p)


def test_report_theta(capsys, corpus_dir):
    code, doc = run_json(capsys, "report", corpus_dir / "theta.json", "--order", "6")
    assert code == 0
    assert doc["graph"] == {"vertices": 2, "edges": 3, "connected": True, "warnings": []}
    assert doc["det_coefficients"] == ["1", "0", "-6", "0", "9", "0", "-4"]
    assert doc["class_counts"] == ["0", "6", "0", "6", "0", "20"]
    assert doc["zeta_coefficients"] == ["1", "0", "6", "0", "27", "0", "112"]
    assert doc["lie_dims"] == doc["class_counts"]


def test_report_minimal_loop(capsys, corpus_dir):
    code, doc = run_json(capsys, "report", corpus_dir / "loop.json", "--order", "4")
    assert code == 0
    assert doc["det_coefficients"] == ["1", "-2", "1"]


def test_report_rose2_class_counts(capsys, corpus_dir):
    code, doc = run_json(capsys, "report", corpus_dir / "rose2.json", "--order", "4")
    assert code == 0
    assert doc["class_counts"] == ["4", "4", "8", "18"]


def test_report_is_byte_deterministic(capsys, corpus_dir):
    _, first = run(capsys, "report", corpus_dir / "rose3.json")
    _, second = run(capsys, "report", corpus_dir / "rose3.json")
    assert first == second


def test_report_csv(capsys, corpus_dir):
    code, out = run(capsys, "report", corpus_dir / "theta.json", "--order", "2", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "n,trace,class_count,lie_dim,enveloping_dim",
        "1,0,0,0,0",
        "2,12,6,6,6",
    ]


def test_report_parse_failure_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["report", str(bad)]) == 2
    assert main(["report", str(tmp_path / "absent.json")]) == 2


def test_report_rejects_boolean_endpoints_exit2(capsys, tmp_path):
    bad = tmp_path / "bools.json"
    bad.write_text(json.dumps({"vertices": 2, "edges": [[True, False]]}))
    assert main(["report", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "endpoints must be integers" in captured.err


def test_report_cap_exit3(capsys, tmp_path):
    big = tmp_path / "big.json"
    dump_graph(OrientedGraph(1, ((0, 0),) * 40), big)
    assert main(["report", str(big)]) == 3


def test_disconnected_graph_warns_but_reports(capsys, tmp_path):
    path = tmp_path / "two_loops.json"
    dump_graph(OrientedGraph(2, ((0, 0), (1, 1))), path)
    code, doc = run_json(capsys, "report", path)
    assert code == 0
    assert doc["graph"]["connected"] is False
    assert doc["graph"]["warnings"]


def test_strict_connected_rejects(capsys, tmp_path):
    path = tmp_path / "two_loops.json"
    dump_graph(OrientedGraph(2, ((0, 0), (1, 1))), path)
    assert main(["report", str(path), "--strict-connected"]) == 2


def test_verify_default_suite_passes(capsys, corpus_dir):
    code, doc = run_json(
        capsys, "verify", corpus_dir / "rose2.json", corpus_dir / "theta.json"
    )
    assert code == 0
    assert doc["all_pass"] is True
    assert doc["counts"]["failed"] == 0
    assert doc["counts"]["passed"] > 100
    checks_seen = {c["check"] for c in doc["checks"]}
    assert "det-product" in checks_seen and "s-kron" in checks_seen


def test_verify_single_graph_self_pairs(capsys, corpus_dir):
    code, doc = run_json(
        capsys, "verify", corpus_dir / "theta.json", "--identities", "class-kron"
    )
    assert code == 0
    assert all(c["graphs"] == ["theta", "theta"] for c in doc["checks"])


def test_verify_det_product_token(capsys, corpus_dir):
    code, doc = run_json(
        capsys, "verify", corpus_dir / "theta.json",
        "--identities", "det-product", "--order", "12",
    )
    assert code == 0
    assert doc["all_pass"] is True


def test_verify_perturbed_trace_fails_with_witness(capsys, corpus_dir):
    code, doc = run_json(
        capsys, "verify", corpus_dir / "rose2.json", "--perturb-trace", "4"
    )
    assert code == 1
    assert doc["all_pass"] is False
    failing = [c for c in doc["checks"] if not c["pass"]]
    assert failing
    # Witness present: both sides or an exactness detail.
    for c in failing:
        assert ("lhs" in c and "rhs" in c) and (c["lhs"] != c["rhs"] or c.get("detail"))


def test_verify_rejects_unknown_identity(capsys, corpus_dir):
    assert main(["verify", str(corpus_dir / "theta.json"), "--identities", "nope"]) == 2


def test_verify_partition_checks_over_cap_exit3(capsys, corpus_dir):
    for identities in ("zeta", "coeff-roundtrip", "det-product,zeta"):
        code = main(["verify", str(corpus_dir / "theta.json"), "--order", "31",
                     "--identities", identities])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "partition-sum cap 30" in captured.err
    assert main(["verify", str(corpus_dir / "theta.json"), "--order", "31"]) == 3


def test_verify_partition_checks_at_cap(capsys, corpus_dir):
    code, doc = run_json(capsys, "verify", corpus_dir / "theta.json", "--order", "30",
                         "--identities", "zeta")
    assert code == 0
    assert doc["all_pass"] is True


def test_verify_over_cap_without_partition_checks(capsys, corpus_dir):
    code, doc = run_json(capsys, "verify", corpus_dir / "theta.json", "--order", "31",
                         "--identities", "det-routes,det-product")
    assert code == 0
    assert doc["all_pass"] is True


def run_shell(command):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(["bash", "-c", command], capture_output=True, env=env, timeout=60)


def test_closed_stdout_pipe_is_silent_exit4():
    result = run_shell(
        f'"{sys.executable}" -m wittcycles classical 3000 2 | head -c 10; '
        'exit "${PIPESTATUS[0]}"'
    )
    assert result.stdout == b'{\n  "color'
    assert result.stderr == b""
    assert result.returncode == 4


def test_missing_input_file_still_exit2(tmp_path):
    result = run_shell(f'"{sys.executable}" -m wittcycles report "{tmp_path / "absent.json"}"')
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"error:" in result.stderr and b"absent.json" in result.stderr


def test_oracle_theta(capsys, corpus_dir):
    code, doc = run_json(capsys, "oracle", corpus_dir / "theta.json", "--oracle-max", "6")
    assert code == 0
    assert doc["all_match"] is True
    row = doc["rows"][1]
    assert row == {
        "n": 2, "trace": "12", "enumerated": "12",
        "class_count": "6", "nonperiodic_classes": "6", "match": True,
    }


def test_oracle_rose3_row(capsys, corpus_dir):
    code, doc = run_json(capsys, "oracle", corpus_dir / "rose3.json", "--oracle-max", "4")
    assert code == 0
    assert doc["rows"][2]["nonperiodic_classes"] == "40"
    assert doc["all_match"] is True


def test_oracle_disconnected_warns(capsys, tmp_path):
    path = tmp_path / "two_loops.json"
    dump_graph(OrientedGraph(2, ((0, 0), (1, 1))), path)
    code, doc = run_json(capsys, "oracle", path, "--oracle-max", "3")
    assert code == 0
    assert doc["graph"]["warnings"] == ["graph is not connected"]


def test_oracle_cap_exit3(capsys, corpus_dir):
    assert main(["oracle", str(corpus_dir / "theta.json"), "--oracle-max", "11"]) == 3


def test_oracle_csv(capsys, corpus_dir):
    code, out = run(capsys, "oracle", corpus_dir / "loop.json", "--oracle-max", "2", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "n,trace,enumerated,class_count,nonperiodic_classes,match"
    assert out.splitlines()[1] == "1,2,2,2,2,True"


def test_necklace_theta(capsys, corpus_dir):
    code, doc = run_json(capsys, "necklace", corpus_dir / "theta.json", "2")
    assert code == 0
    assert doc["count"] == "6"
    assert doc["words"] == ["c1 c5", "c1 c6", "c2 c4", "c2 c6", "c3 c4", "c3 c5"]


def test_necklace_empty_is_ok(capsys, corpus_dir):
    code, doc = run_json(capsys, "necklace", corpus_dir / "theta.json", "3")
    assert code == 0
    assert doc["words"] == [] and doc["count"] == "0"


def test_necklace_cap(capsys, corpus_dir):
    assert main(["necklace", str(corpus_dir / "theta.json"), "12"]) == 3


def test_classical_table(capsys):
    code, doc = run_json(capsys, "classical", "6", "2")
    assert code == 0
    assert [row["value"] for row in doc["rows"]] == ["2", "1", "2", "3", "6", "9"]


def test_classical_r1_and_r0(capsys):
    code, doc = run_json(capsys, "classical", "5", "1")
    assert code == 0
    assert [row["value"] for row in doc["rows"]] == ["1", "0", "0", "0", "0"]
    code, doc = run_json(capsys, "classical", "4", "0")
    assert [row["value"] for row in doc["rows"]] == ["0", "0", "0", "0"]


def test_classical_csv(capsys):
    code, out = run(capsys, "classical", "3", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "1,2", "2,1", "3,2"]


def test_classical_rejects_negative(capsys):
    assert main(["classical", "4", "-1"]) == 2
