"""Fixture-driven tests of the whole-program passes of ``repro lint``.

The acceptance bar for the passes is that each catches a cross-module
violation the per-file RPL rules *provably* miss: every acceptance
fixture below is asserted clean under ``lint_source`` (per-file rules
only) before being asserted flagged by ``analyze_paths`` (everything).
The shipped-tree gate at the bottom pins ``src/repro`` at zero findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import pytest

from repro.devtools.flow.program import Program, module_name_for
from repro.devtools.lint import analyze_paths, lint_source
from repro.devtools.lint.findings import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write_package(root: Path, files: Dict[str, str]) -> Path:
    """Materialize a one-package fixture tree under ``root``."""
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (pkg / name).write_text(source, encoding="utf-8")
    return pkg


def flow_codes(pkg: Path) -> List[str]:
    findings, _modules = analyze_paths([str(pkg)])
    return [finding.code for finding in findings]


def assert_lint_clean(pkg: Path) -> None:
    """The per-file linter must pass the fixture, or it is a bad fixture."""
    for file_path in sorted(pkg.glob("*.py")):
        findings = lint_source(
            file_path.read_text(encoding="utf-8"), path=str(file_path)
        )
        assert findings == [], (file_path.name, findings)


# -- program model --------------------------------------------------------


def test_module_names_recovered_from_layout(tmp_path: Path) -> None:
    pkg = write_package(tmp_path, {"helpers.py": "X = 1\n"})
    program = Program.load([str(pkg)])
    assert "pkg.helpers" in program.modules
    assert "pkg" in program.modules  # the __init__ names its package
    assert module_name_for(pkg / "helpers.py") == "pkg.helpers"


def test_call_graph_links_cross_module_calls(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "helpers.py": "def stamp():\n    return 7\n",
            "client.py": (
                "from pkg.helpers import stamp\n"
                "def run():\n"
                "    return stamp()\n"
            ),
        },
    )
    program = Program.load([str(pkg)])
    assert program.callees_of("pkg.client.run") == {"pkg.helpers.stamp"}
    sites = program.callers["pkg.helpers.stamp"]
    assert [site.caller.qualname for site in sites] == ["pkg.client.run"]


def test_parse_error_becomes_rpl000(tmp_path: Path) -> None:
    """One loader, one parse-error code, for the per-file rules and the
    passes alike."""
    pkg = write_package(tmp_path, {"broken.py": "def f(:\n"})
    findings, modules = analyze_paths([str(pkg)])
    assert [finding.code for finding in findings] == ["RPL000"]
    assert modules == 2  # __init__ plus the broken file


def test_same_named_scripts_are_both_checked(tmp_path: Path) -> None:
    """Scripts outside packages can share a module name; the per-file
    rules and the passes must still see every file."""
    for folder in ("first", "second"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "script.py").write_text(
            "import random\n", encoding="utf-8"
        )
    findings, files = analyze_paths([str(tmp_path)])
    assert files == 2
    assert sorted(Path(f.path).parent.name for f in findings) == [
        "first",
        "second",
    ]


# -- provenance (RPL101/RPL102) -------------------------------------------


LAUNDERED_GENERATOR = {
    "helpers.py": (
        "import numpy as np\n"
        "\n"
        "def fresh_stream():\n"
        "    return np.random.default_rng()\n"
    ),
    "client.py": (
        "from pkg.helpers import fresh_stream\n"
        "\n"
        "def run():\n"
        "    return fresh_stream().normal(size=8)\n"
    ),
}


def test_laundered_generator_flagged_whole_program(tmp_path: Path) -> None:
    """Acceptance fixture (a): helper launders an unseeded Generator.

    ``fresh_stream`` has no seed parameter and no loop, so RPL003/RPL004
    both pass it; whole-program the construction site is still illegal.
    """
    pkg = write_package(tmp_path, LAUNDERED_GENERATOR)
    assert_lint_clean(pkg)
    assert flow_codes(pkg) == ["RPL101"]


CLOCK_TO_SEED = {
    "helpers.py": (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
    "client.py": (
        "from repro.stats.rng import make_rng\n"
        "from pkg.helpers import stamp\n"
        "\n"
        "def run():\n"
        "    seed = stamp()\n"
        "    return make_rng(seed)\n"
        "\n"
        "def run_direct():\n"
        "    return make_rng(int(stamp()) + 1)\n"
    ),
}


def test_clock_taint_reaches_seed_through_helper(tmp_path: Path) -> None:
    """The clock call and the seed sink live in different modules; no
    per-file rule sees either half of the flow."""
    pkg = write_package(tmp_path, CLOCK_TO_SEED)
    assert_lint_clean(pkg)
    codes = flow_codes(pkg)
    assert codes.count("RPL102") >= 2  # assignment route and direct route
    assert set(codes) == {"RPL102"}


def test_explicit_seeds_stay_quiet(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "client.py": (
                "from repro.stats.rng import make_rng\n"
                "\n"
                "def run(seed=None):\n"
                "    return make_rng(seed).integers(0, 10, size=4)\n"
            ),
        },
    )
    assert flow_codes(pkg) == []


# -- escape (RPL110-113) --------------------------------------------------


STORE_IN_DATACLASS = {
    "workers.py": (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from dataclasses import dataclass\n"
        "\n"
        "from repro.store.disk import open_store\n"
        "\n"
        "@dataclass\n"
        "class Task:\n"
        "    seed: int\n"
        "    payload: object\n"
        "\n"
        "def _work(task):\n"
        "    return task.seed\n"
        "\n"
        "def build_task(seed):\n"
        "    store = open_store('data')\n"
        "    return Task(seed=seed, payload=store)\n"
        "\n"
        "def dispatch(seeds):\n"
        "    out = []\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        for seed in seeds:\n"
        "            task = build_task(seed)\n"
        "            out.append(pool.submit(_work, task))\n"
        "    return [f.result() for f in out]\n"
    ),
}


def test_store_handle_in_dataclass_escapes(tmp_path: Path) -> None:
    """Acceptance fixture (b): mmap-backed store rides into a worker
    inside a dataclass built by a helper.  No per-file rule tracks
    store handles, let alone through ``build_task``."""
    pkg = write_package(tmp_path, STORE_IN_DATACLASS)
    assert_lint_clean(pkg)
    findings, _ = analyze_paths([str(pkg)])
    assert [finding.code for finding in findings] == ["RPL111"]
    message = findings[0].message
    assert "build_task() return" in message
    assert "Task(...) field" in message


def test_generator_from_helper_escapes(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "helpers.py": (
                "from repro.stats.rng import make_rng\n"
                "\n"
                "def make_stream():\n"
                "    return make_rng(0)\n"
            ),
            "workers.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from pkg.helpers import make_stream\n"
                "\n"
                "def _work(value):\n"
                "    return value\n"
                "\n"
                "def dispatch():\n"
                "    gen = make_stream()\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(_work, gen)\n"
            ),
        },
    )
    assert_lint_clean(pkg)
    assert flow_codes(pkg) == ["RPL110"]


def test_file_and_registry_escapes(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "workers.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from repro.obs.metrics import get_registry\n"
                "\n"
                "def _work(value):\n"
                "    return value\n"
                "\n"
                "def dispatch(path):\n"
                "    handle = open(path)\n"
                "    registry = get_registry()\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        pool.submit(_work, handle)\n"
                "        pool.submit(_work, registry)\n"
            ),
        },
    )
    assert sorted(flow_codes(pkg)) == ["RPL112", "RPL113"]


def test_rng_named_parameter_follows_its_callers(tmp_path: Path) -> None:
    """A parameter's name counts as a Generator origin only when no
    in-program caller says what it holds; here the caller ships seeds."""
    pkg = write_package(
        tmp_path,
        {
            "workers.py": (
                "def _work(value):\n"
                "    return value\n"
                "\n"
                "def sweep(pool, shard_rngs):\n"
                "    return pool.map(_work, shard_rngs)\n"
                "\n"
                "def run(pool):\n"
                "    return sweep(pool, [1, 2, 3])\n"
            ),
        },
    )
    assert flow_codes(pkg) == []


def test_seeds_and_worker_callable_stay_quiet(tmp_path: Path) -> None:
    """Seeds, SeedSequence children, and the worker function itself are
    the sanctioned cross-process currency."""
    pkg = write_package(
        tmp_path,
        {
            "workers.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from repro.stats.rng import make_seed_sequence\n"
                "\n"
                "def _work(seed, child):\n"
                "    return seed\n"
                "\n"
                "def dispatch(seeds):\n"
                "    root = make_seed_sequence(0)\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        for seed, child in zip(seeds, root.spawn(len(seeds))):\n"
                "            pool.submit(_work, seed, child)\n"
            ),
        },
    )
    assert flow_codes(pkg) == []


# -- purity (RPL120-123) --------------------------------------------------


IMPURE_KERNEL = {
    "kernels.py": (
        "import time\n"
        "\n"
        "import numpy as np\n"
        "\n"
        "from repro.devtools.flow import pure\n"
        "\n"
        "@pure\n"
        "def bad_kernel(values, out):\n"
        "    out[0] = values.sum()\n"
        "    stamp = time.time()\n"
        "    np.save('x.npy', values)\n"
        "    return stamp\n"
    ),
}


def test_impure_pure_kernel_flagged(tmp_path: Path) -> None:
    """Acceptance fixture (c): a decorated kernel that writes an
    argument, reads the clock, and does I/O.  The per-file pack has no
    purity rules at all."""
    pkg = write_package(tmp_path, IMPURE_KERNEL)
    assert_lint_clean(pkg)
    assert sorted(flow_codes(pkg)) == ["RPL120", "RPL121", "RPL122"]


def test_honest_kernel_verifies_clean(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "kernels.py": (
                "import numpy as np\n"
                "\n"
                "from repro.devtools.flow import pure\n"
                "\n"
                "@pure\n"
                "def good_kernel(values, rng):\n"
                "    scaled = values.astype(np.float64, copy=True)\n"
                "    scaled += rng.normal(size=scaled.size)\n"
                "    scaled[0] = 0.0\n"
                "    total = scaled.sum()\n"
                "    return scaled / max(total, 1.0)\n"
            ),
        },
    )
    assert flow_codes(pkg) == []


def test_uncontracted_callee_fails_closed(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "kernels.py": (
                "from repro.devtools.flow import pure\n"
                "\n"
                "def helper(values):\n"
                "    return values\n"
                "\n"
                "@pure\n"
                "def kernel(values):\n"
                "    return helper(values)\n"
            ),
        },
    )
    findings, _ = analyze_paths([str(pkg)])
    assert [finding.code for finding in findings] == ["RPL123"]
    assert "pkg.kernels.helper" in findings[0].message


def test_pure_callee_chain_is_allowed(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "kernels.py": (
                "from repro.devtools.flow import pure\n"
                "\n"
                "@pure\n"
                "def helper(values):\n"
                "    return values * 2\n"
                "\n"
                "@pure\n"
                "def kernel(values):\n"
                "    return helper(values)\n"
            ),
        },
    )
    assert flow_codes(pkg) == []


def test_augmenting_a_parameter_is_a_write(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "kernels.py": (
                "from repro.devtools.flow import pure\n"
                "\n"
                "@pure\n"
                "def kernel(values):\n"
                "    values += 1\n"
                "    return values\n"
            ),
        },
    )
    assert flow_codes(pkg) == ["RPL120"]


# -- suppression & decorator runtime --------------------------------------


def test_noqa_suppresses_flow_findings(tmp_path: Path) -> None:
    pkg = write_package(
        tmp_path,
        {
            "helpers.py": (
                "import numpy as np\n"
                "\n"
                "def fresh():\n"
                "    return np.random.default_rng()"
                "  # repro: noqa=RPL101 -- fixture\n"
            ),
        },
    )
    assert flow_codes(pkg) == []


def test_pure_decorator_is_zero_cost() -> None:
    from repro.devtools.flow import is_pure, pure

    def kernel(x):
        return x

    decorated = pure(kernel)
    assert decorated is kernel  # no wrapper object, no call overhead
    assert is_pure(decorated)
    assert not is_pure(lambda x: x)


# -- the shipped-tree gate ------------------------------------------------


def test_shipped_tree_has_zero_flow_findings(capsys: pytest.CaptureFixture) -> None:
    """`repro lint src/repro` analyzes the whole tree in one invocation
    and must be clean: one Program, every rule, zero findings."""
    findings, modules = analyze_paths([str(SRC_REPRO)])
    assert findings == [], [finding.render() for finding in findings]
    assert modules > 80  # genuinely whole-program, not a subset


def test_shipped_tree_has_contracted_kernels() -> None:
    """The purity pass is verifying real kernels, not an empty set."""
    from repro.devtools.flow.purity import PurityPass

    program = Program.load([str(SRC_REPRO)])
    contracted = PurityPass(program).contracted
    assert "repro.core.models.AppClusteringParams.cluster_assignment" in contracted
    assert len(contracted) >= 8
