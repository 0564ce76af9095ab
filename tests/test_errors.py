import ast
import inspect
from pathlib import Path

import jdl
import jdl.errors as errors

PACKAGE = Path(jdl.__file__).parent


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _raised_or_warned() -> set[str]:
    used = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(node.exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                args = node.args[1:2] + [k.value for k in node.keywords
                                         if k.arg == "category"]
                used.update(_name(a) for a in args)
    return used


def test_every_error_type_is_raised_somewhere():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == errors.__name__}
    assert defined, "no error types found"
    assert defined - _raised_or_warned() == set()


def test_every_raise_names_a_package_error():
    # bad input fails with the package's own error types, never a builtin
    own = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    stray = []
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a bare ``raise`` re-raises what a handler caught
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and _name(node.exc) not in own:
                stray.append(f"{path.name}:{node.lineno} {_name(node.exc)}")
    assert stray == []
