import ast
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import asmd
from asmd.fixtures import QUADRATIC_N3, fixture_path, load_fixture
from asmd.problems import problem_from_document

README = Path(__file__).resolve().parents[1] / "README.md"

# what a caller of the solvers needs; the analysis checks live in asmd.checks
PUBLIC_NAMES = {
    "ADAPTIVE",
    "CAP_REACHED",
    "CRITERION_MET",
    "FIXED",
    "Geometry",
    "InfeasibleRunError",
    "InstanceFormatError",
    "InstanceValidationError",
    "LinearObjective",
    "MaxLinearConstraint",
    "ProblemInstance",
    "QuadraticObjective",
    "RunResult",
    "SolverConfig",
    "generate_instance",
    "load_problem",
    "problem_from_document",
    "problem_to_document",
    "reference_optimum",
    "save_problem",
    "solve_adaptive",
    "solve_fixed",
    "uniform_subgradient_bound",
    "worst_case_iterations",
}


def test_all_names_resolve():
    missing = [name for name in asmd.__all__ if not hasattr(asmd, name)]
    assert missing == []
    assert len(set(asmd.__all__)) == len(asmd.__all__)


def test_all_is_the_solver_surface():
    assert set(asmd.__all__) == PUBLIC_NAMES


def test_solve_path_does_not_load_the_checks():
    # a fresh interpreter, since this one has imported asmd.checks already
    src = str(Path(asmd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, asmd, asmd.solver, asmd.problems\n"
        "loaded = 'asmd.checks' in sys.modules\n"
        "import asmd.checks\n"
        "print(loaded)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the blocks build on each other, so they run in order as one script
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    exec(compile("\n".join(blocks), str(README), "exec"), {"__name__": "__readme__"})


def test_readme_instance_blocks_load():
    # each objective the "Instance files" section shows, spliced into the
    # bundled quadratic's document, loads to that fixture's matrix bits; a
    # complete hand-written file also loads as it stands
    section = README.read_text(encoding="utf-8").split("### Instance files")[1].split("\n## ")[0]
    blocks = re.findall(r"^```json\n(.*?)^```", section, re.M | re.S)
    expected = load_fixture(QUADRATIC_N3).objective.matrix.tobytes()
    forms = []
    for block in blocks:
        doc = json.loads(block if block.startswith("{") else "{" + block + "}")
        spliced = json.loads(fixture_path(QUADRATIC_N3).read_text(encoding="utf-8"))
        spliced["objective"] = doc["objective"]
        assert problem_from_document(spliced).objective.matrix.tobytes() == expected
        if "n" in doc:
            assert problem_from_document(doc).objective.matrix.tobytes() == expected
        forms += set(doc["objective"]) - {"type"}
    assert sorted(forms) == ["A", "packed"]


def test_fixtures_load_from_a_zipped_package(tmp_path):
    # a zipped install has no fixture files on disk, only package data
    package = Path(asmd.__file__).resolve().parent
    archive = tmp_path / "asmd.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(archive)!r})\n"
        "import asmd\n"
        "from asmd.fixtures import LINEAR_N2, QUADRATIC_N3, load_fixture\n"
        "print(asmd.__file__)\n"
        "print(load_fixture(QUADRATIC_N3).dimension, load_fixture(LINEAR_N2).dimension)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    origin, dimensions = out.stdout.splitlines()
    assert origin.startswith(str(archive))
    assert dimensions == "3 2"


def _scoped_nodes(node, scope=()):
    """Every node below ``node``, with the names of the functions and
    classes that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_only_the_oracle_and_the_writer_know_the_objective_storage():
    # objectives serve column(j) and subgradient_bound(kind); a read of the
    # quadratic's .matrix or a switch on the objective's type anywhere else
    # would tie that module to the dense form a new objective need not have
    objective_types = {"QuadraticObjective", "LinearObjective"}
    package = Path(asmd.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if module == "oracle.py":
            continue
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            reads_matrix = isinstance(node, ast.Attribute) and node.attr == "matrix"
            switches = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(
                    isinstance(name, ast.Name) and name.id in objective_types
                    for arg in node.args[1:]
                    for name in ast.walk(arg)
                )
            )
            if (reads_matrix or switches) and (module, scope) != ("problems.py", ("problem_to_document",)):
                sites.append(f"{module}:{node.lineno} {'.'.join(scope)}")
    assert sites == []
