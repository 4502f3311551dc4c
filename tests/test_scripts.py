"""Smoke run of the experiment driver script on a tiny configuration."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CURVES = [f"qk{layers}_curves.csv" for layers in (6, 12, 24)] + [
    f"ck_{head}_curves.csv" for head in ("cosine", "rbf", "poly2")
]
LABELS = ["QKernel-6", "QKernel-12", "QKernel-24",
          "CKernel-cosine", "CKernel-rbf", "CKernel-poly2"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_comparison_smoke(tmp_path, capsys, monkeypatch):
    script = load_script("run_comparison")
    argv = ["--out-dir", str(tmp_path), "--count", "8", "--length", "4",
            "--epochs", "1", "--runs", "2"]
    script.run(argv)
    for name in ("train", "test", "fresh"):
        assert len((tmp_path / f"{name}.jsonl").read_text().splitlines()) == 8
    for name in CURVES:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + 2 runs x (epoch 0 + 1 epoch)
        summary = json.loads((tmp_path / name.replace(".csv", ".summary.json")).read_text())
        assert len(summary["mean_best_so_far"]) == 2  # epoch 0 + 1 epoch
    out = capsys.readouterr().out
    assert all(label in out for label in LABELS)

    # a second run finds every step up to date and only reports again
    calls = []
    run_cli = script.run_cli
    monkeypatch.setattr(script, "run_cli",
                        lambda argv: (calls.append(str(argv[0])), run_cli(argv)))
    script.run(argv)
    assert calls == ["report"]
