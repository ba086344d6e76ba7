import importlib.util
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("count_settings", _ROOT / "scripts" / "count_settings.py")
count_settings = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_settings)


def test_settable_value_count_matches_the_roadmap():
    # a new option has to update the design aim's figure on purpose
    text = " ".join((_ROOT / "ROADMAP.md").read_text(encoding="utf-8").split())
    stated = int(re.search(r"holds this figure to its total\): (\d+)", text).group(1))
    assert len(count_settings.settings(_ROOT / "src")) == stated == 50


def test_count_reads_defaults_fields_and_methods(tmp_path):
    pkg = tmp_path / "earlkit"
    pkg.mkdir()
    (pkg / "cli.py").write_text("def main(argv=None):\n    pass\n")
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "__all__ = ['f', 'Config', 'Plain', 'CONST']\n"
        "CONST = 1\n"
        "def f(a, b=1, *, c, d=2):\n    pass\n"
        "def hidden(x=1):\n    pass\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    tol: ClassVar[float] = 1e-8\n"
        "    name: str\n"
        "    size: int = 3\n"
        "    def method(self, k=0):\n        pass\n"
        "    @classmethod\n"
        "    def build(cls, p, intercept=True):\n        pass\n"
        "    def _private(self, z=0):\n        pass\n"
        "class Plain:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
    )
    assert count_settings.settings(tmp_path) == [
        "mod.f(b)", "mod.f(d)", "mod.Config.size", "mod.Config.method(k)",
        "mod.Config.build(intercept)", "mod.Plain.__init__(y)",
    ]
