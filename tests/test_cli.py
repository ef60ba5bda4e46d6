import json

import pytest

from syncprim import cli, harness
from syncprim.automaton import cerny_automaton
from syncprim.perm import format_image


@pytest.fixture
def c5_grp(tmp_path):
    path = tmp_path / "c5.grp"
    path.write_text("# rotation\ndegree 5\n(0 1 2 3 4)\n")
    return str(path)


@pytest.fixture
def cerny4_aut(tmp_path):
    A = cerny_automaton(4)
    lines = ["degree 4"] + [format_image(f) for f in A.letters]
    path = tmp_path / "cerny4.aut"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_basic(self, capsys, c5_grp):
        code, out, _ = run(capsys, "classify", c5_grp)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "syncprim-report/1"
        assert doc["predicates"]["primitive"]["value"] is True
        assert doc["predicates"]["sync_maximal"]["value"] is True

    def test_all_mode(self, capsys, c5_grp):
        code, out, _ = run(capsys, "classify", c5_grp, "--mode", "all")
        assert code == 0
        assert json.loads(out)["predicates"]["sync_maximal"]["scanned"] == 1200

    def test_out_file(self, capsys, c5_grp, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", c5_grp, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["group"]["degree"] == 5

    def test_timings_off_by_default(self, capsys, c5_grp):
        _, out, _ = run(capsys, "classify", c5_grp)
        assert "millis" not in out
        _, out, _ = run(capsys, "classify", c5_grp, "--timings")
        assert "millis" in out

    def test_threads_flag_is_gone(self, capsys, c5_grp):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", c5_grp, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "syn-dfa", "witness"])
    def test_timings_flag_only_on_classify_and_search(self, capsys, cerny4_aut, command):
        # verify, syn-dfa and witness report no wall-clock times
        argv = {
            "verify": ["verify", "--max-degree", "3"],
            "syn-dfa": ["syn-dfa", cerny4_aut],
            "witness": ["witness", cerny4_aut, "{0,1}", "{2,3}"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--timings"])
        assert exc.value.code == 2
        assert "--timings" in capsys.readouterr().err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.grp"
        bad.write_text("degree 3\n(0 9)\n")
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "nope.grp"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["classify", "syn-dfa"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_degree_4_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-degree", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert any(d["group"] == "fix3_C3" for d in doc["expected_divergences"])

    def test_violation_exits_1(self, capsys, monkeypatch):
        summary = harness.VerifySummary("idempotents_only", 3)
        summary.violations.append({"group": "x", "check": "fake"})
        monkeypatch.setattr(harness, "verify_theorems", lambda *a, **k: summary)
        code, out, _ = run(capsys, "verify", "--max-degree", "3")
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_over_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--max-degree", "9")
        assert code == 2
        assert "error:" in err


class TestSearchCommand:
    def test_writes_records(self, capsys, tmp_path):
        dest = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "search", "--degrees", "4", "--out", str(dest))
        assert code == 0
        names = [json.loads(line)["name"] for line in dest.read_text().splitlines()]
        assert "S4" in names and "C4" in names

    def test_resume_skips_done(self, capsys, tmp_path):
        dest = tmp_path / "records.jsonl"
        run(capsys, "search", "--degrees", "4", "--out", str(dest))
        first = len(dest.read_text().splitlines())
        code, out, _ = run(capsys, "search", "--degrees", "4", "--out", str(dest), "--resume")
        assert code == 0
        assert "wrote 0 records" in out
        assert len(dest.read_text().splitlines()) == first

    def test_resume_after_torn_final_line(self, capsys, tmp_path):
        # a killed run leaves its last record cut short, without a newline
        dest = tmp_path / "records.jsonl"
        run(capsys, "search", "--degrees", "4", "--out", str(dest))
        lines = dest.read_text().splitlines(keepends=True)
        dest.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        code, out, _ = run(capsys, "search", "--degrees", "4", "--out", str(dest), "--resume")
        assert code == 0
        assert f"wrote {len(lines) - 2} records" in out
        names = [json.loads(line)["name"] for line in dest.read_text().splitlines()]
        assert sorted(names) == sorted(json.loads(line)["name"] for line in lines)
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("line", ['{"foo": 1}', "[1]"])
    def test_resume_rejects_a_line_that_is_not_a_record(self, capsys, tmp_path, line):
        dest = tmp_path / "records.jsonl"
        run(capsys, "search", "--degrees", "3", "--out", str(dest))
        dest.write_text(dest.read_text() + line + "\n")
        lineno = len(dest.read_text().splitlines())
        code, out, err = run(capsys, "search", "--degrees", "3", "--out", str(dest), "--resume")
        assert code == 2
        assert out == ""
        assert f"line {lineno}: not a record" in err

    def test_resume_needs_out(self, capsys):
        code, out, err = run(capsys, "search", "--degrees", "3", "--resume")
        assert code == 2
        assert out == ""
        assert "--resume needs --out" in err

    def test_stdout_without_out(self, capsys):
        code, out, _ = run(capsys, "search", "--degrees", "3..3")
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["schema"] == "syncprim-record/1"

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "search", "--degrees", "3..x")
        assert code == 2
        assert "degree range" in err

    @pytest.mark.parametrize(
        "degrees, message",
        [
            ("6..9", "degree 9 exceeds the full-scan cap 8"),
            ("5..3", "empty degree range 5..3"),
            ("0..2", "degree 0 is below 1"),
        ],
    )
    def test_bad_degrees_exit_2_before_any_record(self, capsys, tmp_path, monkeypatch, degrees, message):
        def no_classify(*args, **kwargs):
            raise AssertionError("a group was classified")

        monkeypatch.setattr(harness.cl, "classify", no_classify)
        dest = tmp_path / "records.jsonl"
        dest.write_text('{"name": "C3"}\n{"na')
        code, out, err = run(capsys, "search", "--degrees", degrees, "--out", str(dest))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert dest.read_text() == '{"name": "C3"}\n{"na'

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        dest = str(tmp_path / "missing" / "records.jsonl")
        code, out, err = run(capsys, "search", "--degrees", "3..3", "--out", dest)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {dest}: ")

    def test_resume_from_a_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "search", "--degrees", "3..3", "--out", str(tmp_path), "--resume")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path}: ")


class TestSynDfaCommand:
    def test_cerny4(self, capsys, cerny4_aut):
        code, out, _ = run(capsys, "syn-dfa", cerny4_aut)
        assert code == 0
        doc = json.loads(out)
        assert doc["state_count"] == 2 ** 4 - 4
        assert doc["synchronizing"] is True
        assert doc["reset_word_length"] == 9

    def test_non_synchronizing(self, capsys, tmp_path):
        path = tmp_path / "rot.aut"
        path.write_text("degree 3\n1 2 0\n")
        code, out, _ = run(capsys, "syn-dfa", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["synchronizing"] is False
        assert "reset_word" not in doc
        assert doc["state_count"] == 1  # empty language

    def test_letter_index_above_int8(self, capsys, tmp_path):
        path = tmp_path / "many.aut"
        path.write_text("degree 2\n" + "0 1\n" * 199 + "0 0\n")
        code, out, _ = run(capsys, "syn-dfa", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["reset_word"] == "199"
        assert doc["reset_word_length"] == 1

    def test_unwritable_out_exits_2(self, capsys, cerny4_aut, tmp_path):
        dest = str(tmp_path / "missing" / "x.json")
        code, out, err = run(capsys, "syn-dfa", cerny4_aut, "--out", dest)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {dest}: ")


class TestWitnessCommand:
    def test_distinguishable(self, capsys, cerny4_aut):
        code, out, _ = run(capsys, "witness", cerny4_aut, "{0,1}", "{1,2}")
        assert code == 0
        doc = json.loads(out)
        assert doc["distinguishable"] is True
        imgs = {doc["image_S"], doc["image_T"]}
        assert sum(1 for s in imgs if "," not in s) >= 1

    def test_rejects_singletons(self, capsys, cerny4_aut):
        code, _, err = run(capsys, "witness", cerny4_aut, "{0}", "{1,2}")
        assert code == 2
        assert "at least 2" in err

    def test_bad_set_syntax(self, capsys, cerny4_aut):
        code, _, err = run(capsys, "witness", cerny4_aut, "0,1", "{1,2}")
        assert code == 2
