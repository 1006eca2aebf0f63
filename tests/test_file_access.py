"""Every file the package reads or writes goes through a handful of
functions: ``corpus``'s readers and writer, and the scoring sidecar's digest
and archive reader. A call that opens a file anywhere else is a second path
for a job one of them already does, with its own decoding and error rules.
The same holds for decoding JSON, which only ``corpus.parse_json`` does, for
the scoring graph's parameter layout, which only ``ScoringGraph`` reads, for
the command line's inputs: every command given ``--data`` and
``--features`` reads them through ``cli._scoring_input``, and for the
windowed edit-distance DP, which only the partial-ratio kernel runs."""
import ast
from pathlib import Path

import rulelink

# Builtin open, os.open / os.fdopen / io.open, pathlib's readers and writers,
# np.load and np.fromfile, tempfile.mkstemp.
_OPENERS = {"open", "fdopen", "load", "fromfile", "mkstemp", "read_text", "read_bytes", "write_text", "write_bytes"}

# The private attributes that describe where each parameter lies in ScoringGraph.flat.
_LAYOUT = {"_blocks", "_gate_of_w", "_arity", "_effective"}


def _trees():
    """(module name, parsed source) of every module of the package."""
    for path in sorted(Path(rulelink.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _scopes(node: ast.AST, func: str = "<module>", cls: str = "<module>"):
    """(innermost enclosing function, innermost enclosing class, node) for
    every node under ``node``; ``<module>`` where there is none."""
    for child in ast.iter_child_nodes(node):
        yield func, cls, child
        yield from _scopes(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func,
                           child.name if isinstance(child, ast.ClassDef) else cls)


def _openers(tree: ast.AST):
    """(innermost enclosing function, call) for every call in ``tree`` that
    opens a file; ``<module>`` for one that would run at import."""
    for func, _, node in _scopes(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                yield func, "open"
            elif isinstance(node.func, ast.Attribute) and node.func.attr in _OPENERS:
                yield func, ast.unparse(node.func)


def test_files_are_opened_only_by_the_readers_and_writers():
    found = {(module, *call) for module, tree in _trees() for call in _openers(tree)}
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


def test_json_is_decoded_only_by_parse_json():
    found = {(module, func) for module, tree in _trees() for func, _, node in _scopes(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.loads", "json.load", "loads", "load")}
    assert found == {("corpus", "parse_json")}


def test_the_parameter_layout_is_read_only_inside_scoring_graph():
    found = {(module, cls) for module, tree in _trees() for _, cls, node in _scopes(tree)
             if isinstance(node, ast.Attribute) and node.attr in _LAYOUT}
    assert found == {("logic", "ScoringGraph")}


def test_the_cli_reads_data_and_features_only_through_scoring_input():
    tree = dict(_trees())["cli"]
    found = {(func, ast.unparse(node.func)) for func, _, node in _scopes(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("load_dataset", "FeatureTable.from_csv")}
    assert found == {
        ("_cmd_featurize", "load_dataset"),
        ("_scoring_input", "load_dataset"),
        ("_scoring_input", "FeatureTable.from_csv"),
    }


def test_the_window_dp_is_run_only_by_the_partial_ratio_kernel():
    found = {(module, func) for module, tree in _trees() for func, _, node in _scopes(tree)
             if isinstance(node, ast.Name) and node.id == "_window_distances"}
    assert found == {("simfeatures", "_partial_ratio_column")}
