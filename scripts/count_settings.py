"""Count the settable values of earlkit's public API.

    python scripts/count_settings.py [SRC]

SRC is the directory that holds the earlkit package (default: the src/
beside this script's directory). The public callables are the functions
and classes named in a module's __all__; a module without __all__ (cli)
has none. A settable value is a parameter with a default of a public
function, a field with a default of a public dataclass (ClassVar fields
are constants), or a parameter with a default of a public method or
classmethod of a public class; a class that is not a dataclass adds its
__init__'s. The sources are parsed, not imported, so any checkout can be
counted. The script prints one value per line, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _class_settings(cls: ast.ClassDef) -> list[str]:
    dataclass = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
    out = []
    for node in cls.body:
        if (
            dataclass
            and isinstance(node, ast.AnnAssign)
            and node.value is not None
            and "ClassVar" not in ast.unparse(node.annotation)
        ):
            out.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and (
            not node.name.startswith("_") or (node.name == "__init__" and not dataclass)
        ):
            out += [f"{node.name}({a})" for a in _defaulted(node)]
    return out


def settings(src: Path) -> list[str]:
    """Every settable value under src/earlkit, as module.callable[.member]."""
    out = []
    for path in sorted((src / "earlkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for name in _exported(tree):
            node = defs.get(name)
            if isinstance(node, ast.FunctionDef):
                out += [f"{path.stem}.{name}({a})" for a in _defaulted(node)]
            elif isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{name}.{s}" for s in _class_settings(node)]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    found = settings(src)
    for s in found:
        print(s)
    print(f"total {len(found)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
