"""One error class per fault source: `listlbm.errors` defines exactly
seven classes, and every `raise` in the package names one of the six
subclasses, so a new value-error class or a bare ListLbmError fails
here. TypeError stays for a non-scheme passed as a scheme, and the
CLI's argparse type converters raise argparse.ArgumentTypeError, which
argparse turns into a usage error (exit 2)."""

import ast
import inspect
from pathlib import Path

import listlbm
from listlbm import errors

SUBCLASSES = {"ParameterError", "FormatError", "DataError", "ProtocolError",
              "DivergenceError", "NotConvergedError"}
ALLOWED = SUBCLASSES | {"TypeError", "argparse.ArgumentTypeError"}


def raised():
    """(file:line, raised name) of every `raise X` and `raise X(...)`
    in the package; a bare re-raise names nothing."""
    for path in sorted(Path(listlbm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield f"{path.name}:{node.lineno}", ast.unparse(exc)


def test_errors_defines_the_seven_classes():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == SUBCLASSES | {"ListLbmError"}
    assert all(issubclass(getattr(errors, name), errors.ListLbmError) for name in SUBCLASSES)


def test_every_raise_names_a_kept_class():
    sites = list(raised())
    assert sites
    assert [(at, name) for at, name in sites if name not in ALLOWED] == []
