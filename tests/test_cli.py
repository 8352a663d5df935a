"""Command-line surface, driven in-process through main() and, where the
interpreter's own error output matters, as a subprocess."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isd
import isd.model
from isd.cli import main
from isd.document import load_document

BUNDLED = str(Path(isd.__file__).parent / "data" / "news_pipeline.json")

MEASURE_LABELS = [
    "Volume",
    "Delay",
    "Scope",
    "Granularity",
    "Variety",
    "Duration",
    "SamplingRate",
    "Aggregation",
    "Coverage",
    "Distortion",
    "Mismatch",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_measure_minimal_inputs(capsys):
    code, out, err = run(capsys, "measure", BUNDLED, "--info", "capture")
    assert code == 0 and err == ""
    for label in MEASURE_LABELS:
        assert label in out
    assert "Volume        3" in out
    assert "Delay         1" in out
    assert "not computed: missing" in out  # variety, coverage, mismatch


def test_measure_full_inputs(capsys):
    code, out, _ = run(
        capsys,
        "measure",
        BUNDLED,
        "--info",
        "capture",
        "--relations",
        "same_source",
        "--target",
        "uplink",
        "--coverage-target",
        "camera,recorder,notebook",
    )
    assert code == 0
    assert "Variety       2" in out
    assert "Coverage      1" in out
    assert "Mismatch      30" in out
    assert "not computed" not in out


def test_measure_json_output(capsys):
    code, out, _ = run(
        capsys, "measure", BUNDLED, "--info", "capture", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["title"] == "measures: capture"
    rows = {
        row["label"]: row["value"]
        for section in doc["sections"]
        for row in section["rows"]
    }
    assert rows["Volume"] == "3"
    assert rows["SamplingRate"] == "1"
    assert [r for r in MEASURE_LABELS if r not in rows] == []


def test_measure_unknown_info_fails(capsys):
    code, out, err = run(capsys, "measure", BUNDLED, "--info", "ether")
    assert code == 2
    assert "error:" in err


def test_measure_requires_info_choice_when_ambiguous(capsys):
    code, _, err = run(capsys, "measure", BUNDLED)
    assert code == 2
    assert "--info" in err


def test_measure_explicit_mu_weights(capsys):
    code, out, _ = run(
        capsys,
        "measure",
        BUNDLED,
        "--info",
        "capture",
        "--mu",
        "explicit",
        "--mu-weights",
        "0=1,1=1/2,2=1/2",
    )
    assert code == 0
    assert "Delay         1" in out


@pytest.mark.parametrize(
    "inputs, named",
    [
        (["--mu", "explicit", "--mu-weights", "0=0"], "atom weights must be positive"),
        (["--mu", "explicit", "--mu-weights", "0=-1"], "atom weights must be positive"),
        (["--mu", "explicit", "--mu-weights", "0=1"], "no weight for atom index 1"),
        (["--coverage-target", "camera"], "reaches outside the target"),
        (["--metric", "euclidean_on_values"], "has no numeric components"),
    ],
    ids=["zero-weight", "negative-weight", "missing-weight", "narrow-target", "symbol-values"],
)
def test_measure_unusable_input_is_clean_error(capsys, inputs, named):
    code, out, err = run(capsys, "measure", BUNDLED, "--info", "capture", *inputs)
    assert code == 2 and out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "weights, named",
    [
        ("0=1,1=1,2=1,9=1", "names atom index 9, but 'capture' has atoms 0 to 2"),
        ("-1=1,0=1,1=1,2=1", "names atom index -1"),
        ("0=1,1=1,2=1,0=2", "gives atom index 0 twice"),
    ],
    ids=["past-the-last-atom", "negative-index", "repeated-index"],
)
def test_measure_atom_weights_name_each_atom_once(capsys, weights, named):
    code, out, err = run(
        capsys, "measure", BUNDLED, "--info", "capture", "--mu", "explicit",
        f"--mu-weights={weights}",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --mu-weights") and named in err


def test_measure_mismatched_value_shapes_is_clean_error(capsys, tmp_path):
    doc = json.loads(Path(BUNDLED).read_text(encoding="utf-8"))
    info = next(i for i in doc["informations"] if i["name"] == "archive")
    for k, (s, r) in enumerate(zip(info["states"], info["reflections"])):
        s["value"], r["value"] = {"scalar": str(k)}, {"vector": [str(k), "1"]}
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(
        capsys, "measure", str(path), "--info", "archive", "--metric", "euclidean_on_values"
    )
    assert code == 2
    assert err.startswith("error:") and "different numeric shapes" in err


def test_analyze_grid(capsys):
    code, out, _ = run(capsys, "analyze", BUNDLED)
    assert code == 0
    lines = out.splitlines()
    scope_row = next(l for l in lines if l.strip().startswith("Scope "))
    cells = scope_row.split()
    assert cells.count("-") == 2  # both transmission hops
    agg_row = next(l for l in lines if l.strip().startswith("Aggregation"))
    assert agg_row.split()[1] == "-"  # collection cannot aggregate
    assert "measures the configuration can move  11" in out
    assert "Delay         30" in out


def test_analyze_reports_matrix_violation_once(tmp_path, capsys):
    doc = json.loads(Path(BUNDLED).read_text(encoding="utf-8"))
    doc["systems"][0]["stages"][1]["transforms"]["Scope"] = {"kind": "add", "amount": "1"}
    path = tmp_path / "violation.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    warnings = [line.strip() for line in out.splitlines() if "warning:" in line]
    assert warnings == [
        "warning: matrix violation: Transmission lacks Scope (stage 'uplink'); "
        "transform will be ignored"
    ]
    assert "Scope         3" in out  # the add on uplink is still skipped


@pytest.mark.parametrize(
    "command, problem",
    [
        ("measure", "document declares no information to measure"),
        ("analyze", "pick a system with --system (none declared)"),
    ],
    ids=["measure", "analyze"],
)
def test_empty_document_names_what_is_missing(tmp_path, capsys, command, problem):
    # measure said the document had several informations
    path = tmp_path / "empty.json"
    path.write_text('{"format_version": "1"}', encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: {problem}\n")


def test_verify_filtered(capsys):
    code, out, _ = run(
        capsys, "verify", "--seed", "3", "--trials", "25",
        "--filter", "radar_range_scaling,network_value_bounds",
    )
    assert code == 0
    assert "radar_range_scaling" in out
    assert "network_value_bounds" in out
    assert "entropy_volume_bound" not in out
    assert "sampling threshold" in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--filter", "astrology")
    assert code == 2
    assert "astrology" in err


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_refuses_trials_below_one(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", trials])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_no_color_on_a_terminal(monkeypatch):
    argv = ["verify", "--trials", "1", "--filter", "network_value_bounds"]
    for no_color, escapes in (("", True), ("1", False)):
        monkeypatch.setenv("NO_COLOR", no_color)
        monkeypatch.setattr(sys, "stdout", _Terminal())
        assert main(argv) == 0
        assert ("\x1b[" in sys.stdout.getvalue()) is escapes


def test_scenario_runs(capsys):
    code, out, _ = run(capsys, "scenario", "news_pipeline")
    assert code == 0
    assert "delays additive" in out
    assert "collapsed delay" in out


def test_scenario_unknown(capsys):
    code, _, err = run(capsys, "scenario", "soap_opera")
    assert code == 2
    assert "news_pipeline" in err  # lists what exists


def test_output_file_written(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--trials",
        "10",
        "--filter",
        "network_value_bounds",
        "--format",
        "json",
        "--output",
        str(dest),
    )
    assert code == 0
    payload = json.loads(dest.read_text(encoding="utf-8"))
    assert payload["ok"] is True
    assert payload["provenance"]["trials"] == "10"


def test_output_directory_is_clean_error(capsys, tmp_path):
    target = tmp_path / "reports"
    target.mkdir()
    code, out, err = run(
        capsys, "verify", "--trials", "1", "--filter", "network_value_bounds",
        "--output", str(target),
    )
    assert code == 2 and out == ""
    assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports"]
    assert list(target.iterdir()) == []


def test_missing_document_is_clean_error(capsys, tmp_path):
    code, _, err = run(capsys, "measure", str(tmp_path / "gone.json"))
    assert code == 2
    assert "error:" in err


def _analyze_fails_cleanly(tmp_path, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(isd.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "isd.cli", "analyze", str(bad)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_document_is_clean_error(tmp_path):
    _analyze_fails_cleanly(tmp_path, '{"format_version": "1", "entities": 3}', "entities")


@pytest.mark.parametrize(
    "spot, named",
    [
        ("value", "informations[0].states[0].value: bad rational '1e5000'"),
        ("at", "informations[0].states[0].at.intervals[0][0]: bad rational '1e5000'"),
    ],
)
def test_rational_too_long_to_write_is_clean_error(tmp_path, spot, named):
    golden = Path(__file__).parent / "golden" / "synthetic.json"
    raw = json.loads(golden.read_text(encoding="utf-8"))
    state = raw["informations"][0]["states"][0]
    state[spot] = {"scalar": "1e5000"} if spot == "value" else {"intervals": [["1e5000", "1e5001"]]}
    _analyze_fails_cleanly(tmp_path, json.dumps(raw), named)


@pytest.mark.parametrize(
    "stages, named",
    [
        ([{"Volume": {"kind": "clamp_max", "amount": "-1"}}], "transforms.Volume"),
        ([{"Volume": {"kind": "add", "amount": "-4"}}], "stage 'capture' drives Volume to -4"),
        ([{"Volume": {"kind": "set_to", "amount": "-1"}}], "stage 'capture' drives Volume to -1"),
        ([{"Volume": {"kind": "add", "amount": "inf"}}], "add amount"),
        (
            [
                {"SamplingRate": {"kind": "clamp_max", "amount": "5"}},
                {"SamplingRate": {"kind": "add", "amount": "-10"}},
            ],
            "stage 'uplink' drives SamplingRate to -5",
        ),
        (
            [{"Delay": {"kind": "set_to", "amount": "inf"}}],
            "stage 'capture' drives Delay to inf; it must be finite",
        ),
    ],
    ids=[
        "negative-clamp", "add-below-zero", "set-below-zero", "add-inf", "clamp-then-add",
        "set-inf",
    ],
)
def test_negative_transform_is_clean_error(tmp_path, stages, named):
    """``stages`` holds transforms to set on the bundled system's first stages."""
    doc = json.loads(Path(BUNDLED).read_text(encoding="utf-8"))
    for stage, transforms in zip(doc["systems"][0]["stages"], stages):
        stage["transforms"].update(transforms)
    _analyze_fails_cleanly(tmp_path, json.dumps(doc), named)


_EMIT = (
    "import sys\n"
    "from isd.document import emit_document, load_document\n"
    "for path in sys.argv[1:]:\n"
    "    sys.stdout.write(emit_document(load_document(path)))\n"
)
GOLDEN = sorted(str(p) for p in (Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "isd.cli", "verify", "--seed", "0", "--trials", "20", "--format", "json"],
        ["-m", "isd.cli", "scenario", "news_pipeline", "--format", "json"],
        [
            "-m", "isd.cli", "measure", BUNDLED, "--info", "capture", "--relations",
            "same_source", "--target", "uplink", "--format", "json",
        ],
        ["-m", "isd.cli", "analyze", BUNDLED],
        ["-c", _EMIT, *GOLDEN],
    ],
    ids=["verify", "scenario", "measure", "analyze", "golden-emission"],
)
def test_output_does_not_depend_on_hash_values(argv):
    """Strings hash differently under each PYTHONHASHSEED, and so do the
    values, elements and entity sets that hold them; no output may show
    that, neither a CLI report nor a re-emitted golden document."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(Path(isd.__file__).parents[1]), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_measure_validates_each_information_once(monkeypatch, capsys):
    n_infos = len(load_document(BUNDLED).informations)
    calls = []
    real = isd.model.validate

    def counting(info):
        calls.append(info.name)
        return real(info)

    monkeypatch.setattr(isd.model, "validate", counting)
    code, out, _ = run(
        capsys,
        "measure",
        BUNDLED,
        "--info",
        "capture",
        "--relations",
        "same_source",
        "--target",
        "uplink",
        "--coverage-target",
        "camera,recorder,notebook",
    )
    assert code == 0 and "not computed" not in out
    assert len(calls) == n_infos


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
