import re
from pathlib import Path

import graphscore
from graphscore.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    # a stale name in __all__ breaks ``from graphscore import *``
    assert [name for name in graphscore.__all__ if not hasattr(graphscore, name)] == []


def test_readme_python_api_runs(tmp_path, monkeypatch, capsys):
    # the "Python API" block as written, on the quick start's dataset, prints
    # the rows of the ablation.csv that `score --method all` writes for it
    text = README.read_text(encoding="utf-8")
    spec = re.search(r"^echo '(.*)' > spec.json$", text, re.M).group(1)
    block = re.match(r"\s*```python\n(.*?)```", text.split("\n## Python API\n", 1)[1],
                     re.S).group(1)
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(spec, encoding="utf-8")
    assert main(["synth", "--spec", "spec.json", "--out", "data"]) == 0
    assert main(["score", "--manifest", "data/manifest.json", "--method", "all",
                 "--out", "runs"]) == 0
    capsys.readouterr()
    exec(compile(block, str(README), "exec"), {})
    rows = Path("runs/ablation.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert capsys.readouterr().out.splitlines() == rows
