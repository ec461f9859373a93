"""CLI behavior: commands, exit codes, cache round-trips, SVG goldens."""

import collections
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bruhat_forge import cache as cache_mod
from bruhat_forge import cli, closedform, hecke, regions, verify, weyl
from bruhat_forge.laurent import QPoly
from bruhat_forge.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_chain_case(capsys):
    code, out, _ = run(capsys, "kl", "", "1234")
    assert code == 0
    assert "h = v^4 + v^2" in out
    assert "P = 1 + q" in out
    # the same element through canonical letters
    code, out2, _ = run(capsys, "kl", "", "1201")
    assert code == 0 and "P = 1 + q" in out2


def test_kl_reflexive_and_theta(capsys):
    code, out, _ = run(capsys, "kl", "121", "121")
    assert code == 0 and "P = 1" in out
    code, out, _ = run(capsys, "kl", "", "1234321")
    assert code == 0 and "P = 1 + q" in out and "h = v^7 + v^5" in out


@pytest.mark.parametrize("via", ["formula", "recursion", "both"])
def test_kl_routes_agree(capsys, via):
    code, out, _ = run(capsys, "kl", "", "12010", "--via", via)
    assert code == 0
    assert "P = 1" in out


@pytest.mark.usefixtures("restore_closed_forms")
def test_kl_both_above_recursion_cap(capsys, monkeypatch):
    monkeypatch.delenv(cache_mod.CACHE_ENV_VAR, raising=False)
    y = regions.theta1((8, 3)).word()
    assert len(y) == 26 > hecke.DEFAULT_KL_CAP
    code, formula_out, _ = run(capsys, "kl", "", y, "--via", "formula")
    assert code == 0 and "P = 1 + 2q" in formula_out
    # the default --via both prints the formula's answer and says why it
    # went unchecked
    code, out, err = run(capsys, "kl", "", y)
    assert code == 0 and out == formula_out
    assert len(err.splitlines()) == 1 and "cross-check unavailable" in err
    # the recursion alone still fails above its cap
    code, out, _ = run(capsys, "kl", "", y, "--via", "recursion")
    assert code == 1 and out == ""
    # and a real disagreement still exits 2
    monkeypatch.setattr(closedform, "kl_fast", lambda x, y: QPoly.one())
    code, _, err = run(capsys, "kl", "", "1234")
    assert code == 2 and "DISAGREEMENT" in err


def _drop_top_terms(monkeypatch):
    # every closed form loses the term of its canonical member itself, so
    # no column reaches y and every column raises
    real = closedform.closed_form_terms
    monkeypatch.setattr(closedform, "closed_form_terms", lambda tag: real(tag)[1:])
    closedform.kl_column.cache_clear()


@pytest.mark.usefixtures("restore_closed_forms")
@pytest.mark.parametrize("via", ["formula", "both"])
def test_kl_failed_closed_form_exits_2_and_caches_nothing(tmp_path, capsys, monkeypatch, via):
    path = tmp_path / "kl.cache"
    monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(path))
    assert run(capsys, "kl", "", "121")[0] == 0
    text = path.read_text()
    _drop_top_terms(monkeypatch)
    y = regions.theta1((2, 3)).word()
    code, out, err = run(capsys, "kl", "", y, "--via", via)
    assert code == 2 and out == ""
    assert err == f"closed form failed: closed form of {y} is not supported on [e, y]\n"
    assert path.read_text() == text


@pytest.mark.usefixtures("restore_closed_forms")
def test_verify_with_a_failed_closed_form_still_writes_its_report(tmp_path, capsys, monkeypatch):
    _drop_top_terms(monkeypatch)
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "conjecture", "--max-length", "4", "--json-out", str(path))
    assert code == 2
    suites = json.loads(path.read_text())["suites"]
    assert [s["passed"] for s in suites] == [False, True, False]
    assert suites[0]["counts"] == {"fallbacks": 1}
    assert suites[0]["witnesses"][0].endswith("is not supported on [e, y]")
    assert out.splitlines()[0].startswith("FAIL conjecture(max_length=4) (fallbacks=1)")


@pytest.mark.parametrize("word", ["\u0663\u0661", "1\u00b2"])
def test_kl_non_ascii_digits_exit_1(capsys, word):
    # an Arabic-Indic "31" and a superscript two are digits to str.isdigit
    code, out, err = run(capsys, "kl", "", word)
    assert code == 1 and out == ""
    assert err == f"error: word must be a digit string, got {word!r}\n"


def test_kl_incomparable(capsys):
    code, out, _ = run(capsys, "kl", "0", "121")
    assert code == 0 and "P = 0" in out


def test_kl_bad_word_exits_1(capsys):
    code, _, err = run(capsys, "kl", "ab", "1")
    assert code == 1


def test_usage_error_exits_1(tmp_path, capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 1
    # a negative length is refused by the parser, not by a traceback
    svg = tmp_path / "regions.svg"
    for argv, option in [
        (["census", "--max-length", "-1"], "--max-length"),
        (["verify", "conjecture", "--max-length", "-1"], "--max-length"),
        (["render", "--regions", "--radius", "-2", "-o", str(svg)], "--radius"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {option}: must be >= 0" in errors[0]
    assert not svg.exists()
    # the survey runs in one process: there is no --jobs option
    for argv in (["census", "--jobs", "2"], ["verify", "conjecture", "--jobs", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "unrecognized arguments: --jobs 2" in err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "01210")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "Theta2" and obj["m"] == 0 and obj["n"] == 0


def test_interval_json(capsys):
    code, out, _ = run(capsys, "interval", "", "121", "--json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["members"]) == 6
    assert obj["top"] == "121"
    code, _, err = run(capsys, "interval", "0", "121")
    assert code == 1


def test_verify_conjecture_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--max-length", "8")
    assert code == 0
    assert "ALL SUITES PASS" in out


def test_verify_other_suites_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "closed-forms", "--max-length", "9")
    assert code == 0 and "ALL SUITES PASS" in out
    code, out, _ = run(capsys, "verify", "lemmas", "--max-length", "6")
    assert code == 0 and "ALL SUITES PASS" in out


def test_verify_report_files(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        "verify",
        "conjecture",
        "--max-length",
        "4",
        "--json-out",
        str(jpath),
        "--csv-out",
        str(cpath),
    )
    assert code == 0
    obj = json.loads(jpath.read_text())
    assert obj["passed"] is True
    assert "suite,passed" in cpath.read_text().replace('"', "").splitlines()[0]
    # --max-length 0 is a bound, not a request for the default
    for suite, key in [
        ("conjecture", "max_length"),
        ("closed-forms", "max_family_length"),
        ("closed-forms", "x_max"),
        ("lemmas", "monotonicity_bound"),
        ("lemmas", "partition_bound"),
    ]:
        code, _, _ = run(capsys, "verify", suite, "--max-length", "0", "--json-out", str(jpath))
        assert code == 0
        assert json.loads(jpath.read_text())["scope"][key] == 0
    # `all` writes every report, in run order, not just the last one
    code, _, _ = run(
        capsys, "verify", "all", "--max-length", "3", "--json-out", str(jpath), "--csv-out", str(cpath)
    )
    assert code == 0
    reports = json.loads(jpath.read_text())
    assert [r["scope"]["suite"] for r in reports] == ["conjecture", "closed-forms", "lemmas"]
    headers = [row for row in cpath.read_text().splitlines() if row.startswith("suite,passed")]
    assert len(headers) == 3


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--max-length", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["span", "classes", "intervals", "class", "sizes"]
    assert len(lines) >= 4


def test_unwritable_output_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing" / "regions.svg"
    code, out, err = run(capsys, "render", "--regions", "--radius", "1", "-o", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("option", ["--json-out", "--csv-out"])
def test_verify_unwritable_report_fails_before_any_suite(tmp_path, capsys, option):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "all", "--max-length", "3", option, str(missing))
    assert code == 1
    assert "PASS" not in out
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("suite", ["conjecture", "closed-forms", "lemmas", "all"])
def test_verify_beyond_the_kl_cap_fails_before_any_suite(tmp_path, capsys, monkeypatch, suite):
    # every suite compares with the recursion, capped at hecke.DEFAULT_KL_CAP
    monkeypatch.setattr(verify, "interval_survey", lambda *a: pytest.fail("survey built"))
    report = tmp_path / "report.json"
    bound = str(hecke.DEFAULT_KL_CAP + 1)
    code, out, err = run(capsys, "verify", suite, "--max-length", bound, "--json-out", str(report))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.rstrip().endswith(f"cap {hecke.DEFAULT_KL_CAP}")
    assert not report.exists()


def test_census_beyond_the_kl_cap_fails_before_the_survey(capsys, monkeypatch):
    # the survey keeps to the suites' bound: past it, no pair is listed
    monkeypatch.setattr(verify, "_interval_pairs", lambda *a: pytest.fail("pairs listed"))
    bound = hecke.DEFAULT_KL_CAP + 1
    code, out, err = run(capsys, "census", "--max-length", str(bound))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.rstrip().endswith(f"cap {hecke.DEFAULT_KL_CAP}")


def test_kl_formula_builds_no_ball_table(capsys, monkeypatch):
    monkeypatch.delenv(cache_mod.CACHE_ENV_VAR, raising=False)
    closedform.kl_column.cache_clear()
    weyl.ball.cache_clear()
    code, out, _ = run(capsys, "kl", "", regions.theta((9, 9)).word(), "--via", "formula")
    assert code == 0 and "P = 1" in out
    assert weyl.ball.cache_info().currsize == 0


def test_kl_and_classify_import_only_the_kl_path():
    # a cold kl or classify call compiles no interval, verification or SVG
    # code and loads no exact fractions; a poset name of the package still
    # loads poset on first access
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from bruhat_forge import cli, regions\n"
        "y = regions.x_chain(26).word()\n"
        "assert cli.main(['kl', '', y, '--via', 'formula']) == 0\n"
        "assert cli.main(['classify', y]) == 0\n"
        "unused = ['bruhat_forge.poset', 'bruhat_forge.verify', 'bruhat_forge.render',\n"
        "          'hashlib', 'fractions', 'dataclasses']\n"
        "loaded = [m for m in unused if m in sys.modules and m not in before]\n"
        "assert loaded == [], loaded\n"
        "import bruhat_forge\n"
        "build_interval = bruhat_forge.build_interval\n"
        "assert build_interval is sys.modules['bruhat_forge.poset'].build_interval\n"
        "from bruhat_forge import render\n"  # a submodule, not a lazy name
        "assert render.__name__ == 'bruhat_forge.render'\n"
    )
    env = {k: v for k, v in os.environ.items() if k != cache_mod.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_interval_and_render_load_no_kl_code(tmp_path):
    # poset decides order and isomorphism without P: a cold interval or
    # interval picture loads neither the closed forms, the recursion, the
    # regions nor hashlib
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from bruhat_forge import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "watched = ['bruhat_forge.closedform', 'bruhat_forge.hecke', 'bruhat_forge.regions',\n"
        "           'hashlib']\n"
        "print(*[m for m in watched if m in sys.modules and m not in before], sep=',', file=sys.stderr)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != cache_mod.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
    svg = str(tmp_path / "interval.svg")
    for argv, loaded in (
        (["interval", "", "1210"], ""),
        (["interval", "", "1210", "--json"], ""),
        (["render", "--interval", "", "1210", "-o", svg], ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == loaded, argv


def test_verification_loads_no_dataclasses_machinery_and_text_runs_no_writers():
    # a cold verification loads neither dataclasses nor what it imports, and
    # the call itself loads no module, so a timed call times no import; a
    # census or a verify without report files loads neither json nor csv
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from bruhat_forge import verify\n"
        "imported = set(sys.modules)\n"
        "assert verify.verify_conjecture(6).passed\n"
        "assert set(sys.modules) == imported, sorted(set(sys.modules) - imported)\n"
        "from bruhat_forge import cli\n"
        "assert cli.main(['census', '--max-length', '6']) == 0\n"
        "assert cli.main(['verify', 'conjecture', '--max-length', '6']) == 0\n"
        "watched = ['dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json', 'csv']\n"
        "print(*[m for m in watched if m in sys.modules and m not in before], sep=',', file=sys.stderr)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != cache_mod.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == ""
    assert "ALL SUITES PASS" in proc.stdout


def test_kl_cache_hit_loads_neither_the_closed_forms_nor_the_recursion(tmp_path):
    # a miss computes through closedform, which loads hecke and regions; a
    # hit only parses two words and reads one record.  Neither loads the
    # dataclasses machinery or the json and csv writers.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from bruhat_forge import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "watched = ['bruhat_forge.closedform', 'bruhat_forge.hecke', 'bruhat_forge.regions',\n"
        "           'dataclasses', 'json', 'csv']\n"
        "print(*[m for m in watched if m in sys.modules and m not in before], sep=',', file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    env[cache_mod.CACHE_ENV_VAR] = str(tmp_path / "kl.cache")
    argv = ["kl", "1", regions.theta((4, 5)).word(), "--via", "formula"]
    runs = [
        subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        for _ in range(2)
    ]
    assert [proc.returncode for proc in runs] == [0, 0], [proc.stderr for proc in runs]
    miss, hit = runs
    assert hit.stdout == miss.stdout and "P = " in hit.stdout
    assert miss.stderr.strip().split(",") == [
        "bruhat_forge.closedform",
        "bruhat_forge.hecke",
        "bruhat_forge.regions",
    ]
    assert hit.stderr.strip() == ""


def _polygons(path):
    tree = ET.parse(path)
    return [e for e in tree.iter() if e.tag.endswith("polygon")]


def test_render_regions_golden(tmp_path, capsys):
    out_file = tmp_path / "regions.svg"
    code, _, _ = run(capsys, "render", "--regions", "--radius", "6", "-o", str(out_file))
    assert code == 0
    polys = _polygons(out_file)
    assert len(polys) == 1 + sum(3 * n for n in range(1, 7))
    counts = collections.Counter(p.get("data-region") for p in polys)
    expected = collections.Counter(
        regions.classify(w).kind.value for w in weyl.enumerate_up_to_length(6)
    )
    assert counts == expected
    words = {p.get("data-word") for p in polys}
    assert words == {w.word() for w in weyl.enumerate_up_to_length(6)}


def test_render_interval_golden(tmp_path, capsys):
    out_file = tmp_path / "interval.svg"
    code, _, _ = run(capsys, "render", "--interval", "", "1210", "-o", str(out_file))
    assert code == 0
    assert len(_polygons(out_file)) == 12

    single = tmp_path / "single.svg"
    code, _, _ = run(capsys, "render", "--interval", "", "", "-o", str(single))
    assert code == 0
    polys = _polygons(single)
    assert len(polys) == 1 and polys[0].get("data-region") == "Identity"


def test_render_zero_drift(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run(capsys, "render", "--regions", "--radius", "4", "-o", str(a))
    run(capsys, "render", "--regions", "--radius", "4", "-o", str(b))
    assert a.read_text() == b.read_text()


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    path = tmp_path / "kl.cache"
    monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(path))
    code, first, _ = run(capsys, "kl", "", "1234321")
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "bruhat-forge-kl-cache 1 A2~"
    assert "- 1201021 1,1" in text
    # a hit reproduces the identical output and leaves the file unchanged
    code, second, _ = run(capsys, "kl", "", "1234321")
    assert code == 0 and second == first
    assert path.read_text() == text
    loaded = cache_mod.KLCache(str(path))
    assert len(loaded) == 1
    assert loaded.get("", "1201021").coefficient_list() == [1, 1]


def test_kl_survives_torn_cache_append(tmp_path, capsys, monkeypatch):
    path = tmp_path / "kl.cache"
    path.write_text("bruhat-forge-kl-cache 1 A2~\n- 12012 1,")
    monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(path))
    code, out, _ = run(capsys, "kl", "", "1201", "--via", "formula")
    assert code == 0
    p = hecke.kl_polynomial(weyl.identity(), weyl.from_word("1201"))[1]
    assert f"P = {p}" in out.splitlines()
    loaded = cache_mod.KLCache(str(path))
    assert len(loaded) == 1 and loaded.get("", "1201") == p


def test_kl_long_word_with_cache_hits_the_hard_cap(tmp_path, capsys, monkeypatch):
    # the cache keys the words before any length cap applies, and the cap
    # fails the call before y is classified
    def classify(y):
        raise AssertionError("classify reached above the hard cap")

    monkeypatch.setattr(regions, "classify", classify)
    monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(tmp_path / "kl.cache"))
    code, out, err = run(capsys, "kl", "", "012" * 500, "--via", "formula")
    assert code == 1 and out == ""
    assert "enumeration up to length 1500 exceeds the hard cap 64" in err


def test_cache_bad_token_names_its_line(tmp_path):
    path = tmp_path / "kl.cache"
    path.write_text("bruhat-forge-kl-cache 1 A2~\n- 121 1\n- 12012 1,\n")
    with pytest.raises(cache_mod.CacheFormatError, match=f"{path}:3:"):
        cache_mod.KLCache(str(path))


def test_cache_is_loadable_subset(tmp_path):
    path = tmp_path / "kl.cache"
    cache = cache_mod.KLCache(str(path))
    from bruhat_forge.laurent import QPoly

    cache.put("", "121", QPoly({0: 1}))
    cache.put("1", "121", QPoly({0: 1}))
    subset = tmp_path / "subset.cache"
    lines = path.read_text().splitlines()
    subset.write_text("\n".join(lines[:2]) + "\n")
    assert len(cache_mod.KLCache(str(subset))) == 1


def test_cache_rejects_corruption(tmp_path, capsys, monkeypatch):
    path = tmp_path / "kl.cache"
    path.write_text("not a cache\n")
    monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(path))
    code, _, err = run(capsys, "kl", "", "121")
    assert code == 1 and "header" in err

    dup = tmp_path / "dup.cache"
    dup.write_text(
        "bruhat-forge-kl-cache 1 A2~\n- 121 1\n- 121 1,1\n"
    )
    with pytest.raises(cache_mod.CacheFormatError):
        cache_mod.KLCache(str(dup))
