"""Print the size figures that ROADMAP direction 6 tracks for `src/`.

- the number of lines in `src/vpstab/*.py`;
- the names exported by `vpstab/__init__.py`;
- the option count: keyword parameters with defaults (keyword-only ones
  included), plus one for each `**kwargs`, summed over the public functions,
  the public methods and every `__init__` of the package. A name is public
  when it does not start with an underscore.

Usage: python scripts/source_size.py [SRC_DIR]   (default: the repo's src/)
"""

import ast
import sys
from pathlib import Path


def _options(fn):
    args = fn.args
    count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count + (args.kwarg is not None)


def _counted(fn):
    return fn.name == "__init__" or not fn.name.startswith("_")


def option_count(tree):
    total = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _counted(node):
            total += _options(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _counted(item):
                    total += _options(item)
    return total


def exported_names(init_tree):
    names = []
    for node in init_tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    return names


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    files = sorted((src / "vpstab").glob("*.py"))
    lines = sum(len(f.read_text().splitlines()) for f in files)
    options = sum(option_count(ast.parse(f.read_text())) for f in files)
    exported = exported_names(ast.parse((src / "vpstab" / "__init__.py").read_text()))
    print(f"src lines: {lines}")
    print(f"exported names: {len(exported)}")
    print("  " + ", ".join(exported))
    print(f"options: {options}")


if __name__ == "__main__":
    main(sys.argv)
