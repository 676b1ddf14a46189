"""Print the size figures that ROADMAP direction 6 tracks for `src/`.

- the number of lines in `src/vpstab/*.py`;
- the names exported by `vpstab/__init__.py`;
- the option count: keyword parameters with defaults (keyword-only ones
  included), plus one for each `**kwargs`, summed over the public functions,
  the public methods and every `__init__` of the package. A name is public
  when it does not start with an underscore;
- the import footprint: the peak resident set (`ru_maxrss`) of a fresh
  Python process after `import vpstab` from SRC_DIR, and the public scipy
  subpackages that import loads.

Usage: python scripts/source_size.py [SRC_DIR]   (default: the repo's src/)
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

# run in a fresh interpreter, with SRC_DIR first on the path
_FOOTPRINT = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
import vpstab
print(json.dumps({
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted(name[6:] for name, mod in sys.modules.items()
                    if name.startswith("scipy.") and name.count(".") == 1
                    and not name[6:].startswith("_") and hasattr(mod, "__path__")),
}))
"""


def import_footprint(src):
    """(peak RSS in MB, scipy subpackages) of a fresh `import vpstab`."""
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(src)], capture_output=True, text=True, check=True)
    figures = json.loads(out.stdout)
    return figures["rss_mb"], figures["scipy"]


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
    rss_mb, scipy_packages = import_footprint(src)
    print(f"import vpstab peak rss MB: {rss_mb:.1f}")
    print(f"import vpstab loads scipy: {', '.join(scipy_packages)}")


if __name__ == "__main__":
    main(sys.argv)
