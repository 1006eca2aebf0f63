"""Every file the package reads or writes goes through a handful of
functions: ``corpus``'s readers and writer, and the scoring sidecar's digest
and archive reader. A call that opens a file anywhere else is a second path
for a job one of them already does, with its own decoding and error rules."""
import ast
from pathlib import Path

import rulelink

# Builtin open, os.open / os.fdopen / io.open, pathlib's readers and writers,
# np.load and np.fromfile, tempfile.mkstemp.
_OPENERS = {"open", "fdopen", "load", "fromfile", "mkstemp", "read_text", "read_bytes", "write_text", "write_bytes"}


def _openers(node: ast.AST, func: str = "<module>"):
    """(innermost enclosing function, call) for every call under ``node``
    that opens a file; ``<module>`` for one that would run at import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name) and child.func.id == "open":
                yield func, "open"
            elif isinstance(child.func, ast.Attribute) and child.func.attr in _OPENERS:
                yield func, ast.unparse(child.func)
        yield from _openers(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)


def test_files_are_opened_only_by_the_readers_and_writers():
    found = set()
    for path in sorted(Path(rulelink.__file__).parent.glob("*.py")):
        found |= {(path.stem, *call) for call in _openers(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {
        ("corpus", "not_utf8", "open"),
        ("corpus", "read_text", "open"),
        ("corpus", "csv_rows", "open"),
        ("corpus", "load_dataset", "open"),
        ("corpus", "atomic_write", "tempfile.mkstemp"),
        ("corpus", "atomic_write", "os.fdopen"),
        ("simfeatures", "_file_sha256", "open"),
        ("simfeatures", "_load_block", "np.load"),
    }
