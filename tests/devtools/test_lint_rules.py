"""Fixture-driven tests of the RPL rule pack.

Every per-file rule code ships with at least one snippet it must flag
and one it must stay quiet on, run through the real engine
(`lint_source`), so the pack's behaviour is pinned down independent of
the repository's state.  Fixtures of a whole-program code run through
`analyze_paths` on a one-module package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

from repro.devtools.lint import RULE_TABLE, RULES, analyze_paths, lint_source

#: A path inside the batched engine, for the RPL02x fixtures.
BATCHED_PATH = "src/repro/core/engine.py"
#: A path inside the columnar store, another RPL020 scope.
STORE_PATH = "src/repro/store/columnar.py"
#: A path outside every structural allowlist.
PLAIN_PATH = "src/repro/analysis/example.py"
#: A path inside the segment-dispatch modules, another RPL020 scope.
SEGMENT_PATH = "src/repro/marketplace/segments.py"
#: A path inside the virtual-time service, for the RPL040 fixtures.
SERVICE_PATH = "src/repro/service/example.py"


@dataclass(frozen=True)
class RuleFixture:
    """One rule's flagging and passing snippets.

    ``folded_from`` names the deleted code a fixture was written for
    when a wider rule (``code``) now owns that invariant; the test id
    keeps the old code, so each folded fixture stays traceable.
    """

    code: str
    flagged: str
    quiet: str
    path: str = PLAIN_PATH
    quiet_path: str = ""
    folded_from: str = ""

    def quiet_target(self) -> str:
        return self.quiet_path or self.path


FIXTURES: Tuple[RuleFixture, ...] = (
    RuleFixture(
        code="RPL001",
        flagged=(
            "import numpy as np\n"
            "def draw(n):\n"
            "    return np.random.choice(10, size=n)\n"
        ),
        quiet=(
            "from repro.stats.rng import make_rng\n"
            "def draw(n, seed=None):\n"
            "    return make_rng(seed).integers(0, 10, size=n)\n"
        ),
    ),
    RuleFixture(
        code="RPL001",
        flagged=(
            "import numpy as np\n"
            "np.random.seed(1234)\n"
        ),
        quiet=(
            "import numpy as np\n"
            "rng = np.random.default_rng(1234)\n"
        ),
    ),
    RuleFixture(
        code="RPL002",
        flagged=(
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n"
        ),
        quiet=(
            "from repro.stats.rng import make_rng\n"
            "def pick(items, seed=None):\n"
            "    rng = make_rng(seed)\n"
            "    return items[rng.integers(0, len(items))]\n"
        ),
    ),
    RuleFixture(
        code="RPL002",
        flagged="from random import shuffle\n",
        quiet="from repro.stats.rng import spawn_rngs\n",
    ),
    RuleFixture(
        code="RPL003",
        flagged=(
            "import numpy as np\n"
            "def simulate(seed=None):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random()\n"
        ),
        quiet=(
            "from repro.stats.rng import make_rng\n"
            "def simulate(seed=None):\n"
            "    rng = make_rng(seed)\n"
            "    return rng.random()\n"
        ),
    ),
    RuleFixture(
        code="RPL003",
        flagged=(
            "import numpy as np\n"
            "def replicate(base_seed):\n"
            "    return np.random.SeedSequence(base_seed).spawn(4)\n"
        ),
        # The coercion helpers themselves are exempt: they are the one
        # module allowed to touch numpy's seeding primitives.
        quiet=(
            "import numpy as np\n"
            "def make_rng(seed=None):\n"
            "    return np.random.default_rng(seed)\n"
        ),
        quiet_path="src/repro/stats/rng.py",
    ),
    RuleFixture(
        code="RPL004",
        flagged=(
            "from repro.stats.rng import make_rng\n"
            "def replicate(seeds):\n"
            "    out = []\n"
            "    for seed in seeds:\n"
            "        out.append(make_rng(seed).random())\n"
            "    return out\n"
        ),
        quiet=(
            "from repro.stats.rng import spawn_rngs\n"
            "def replicate(seed, count):\n"
            "    return [rng.random() for rng in spawn_rngs(seed, count)]\n"
        ),
    ),
    RuleFixture(
        code="RPL110",
        folded_from="RPL005",
        flagged=(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.stats.rng import make_rng\n"
            "def fan_out(work, seed):\n"
            "    rng = make_rng(seed)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, rng) for _ in range(4)]\n"
        ),
        quiet=(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.stats.rng import make_seed_sequence\n"
            "def fan_out(work, seed, count):\n"
            "    seeds = make_seed_sequence(seed).spawn(count)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, child) for child in seeds]\n"
        ),
    ),
    # Name-only fixtures: nothing in the program calls `sweep`, so a
    # parameter named `rng`, `*_rng` or `*rngs` is the Generator origin.
    RuleFixture(
        code="RPL110",
        folded_from="RPL005",
        flagged=(
            "def sweep(pool, simulate, shard_rngs):\n"
            "    return pool.map(simulate, shard_rngs)\n"
        ),
        quiet=(
            "def sweep(pool, simulate, shard_seeds):\n"
            "    return pool.map(simulate, shard_seeds)\n"
        ),
    ),
    # The second name-only fixture packs the parameter into a tuple; the
    # two after it pack a constructed Generator into a tuple and into a
    # dataclass.
    RuleFixture(
        code="RPL110",
        folded_from="RPL005",
        flagged=(
            "def sweep(pool, work, rng, seed):\n"
            "    return pool.submit(work, (seed, rng))\n"
        ),
        quiet=(
            "def sweep(pool, work, seed):\n"
            "    return pool.submit(work, (seed, seed + 1))\n"
        ),
    ),
    RuleFixture(
        code="RPL110",
        folded_from="RPL005",
        flagged=(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.stats.rng import make_rng\n"
            "def fan_out(work, seed):\n"
            "    gen = make_rng(seed)\n"
            "    bundle = (seed, gen)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, bundle)\n"
        ),
        quiet=(
            # A plain function *consuming* the Generator returns results,
            # not the Generator; tracking it would be a false positive.
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.stats.rng import make_rng\n"
            "def fan_out(work, simulate, seed):\n"
            "    gen = make_rng(seed)\n"
            "    counts = simulate(gen)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, counts)\n"
        ),
    ),
    RuleFixture(
        code="RPL110",
        folded_from="RPL005",
        flagged=(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from dataclasses import dataclass\n"
            "from repro.stats.rng import make_rng\n"
            "@dataclass\n"
            "class Task:\n"
            "    seed: int\n"
            "    stream: object\n"
            "def fan_out(work, seed):\n"
            "    task = Task(seed=seed, stream=make_rng(seed))\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, task)\n"
        ),
        quiet=(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Task:\n"
            "    seed: int\n"
            "    stream: object\n"
            "def fan_out(work, seed):\n"
            "    task = Task(seed=seed, stream=None)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, task)\n"
        ),
    ),
    RuleFixture(
        code="RPL102",
        folded_from="RPL010",
        flagged=(
            "import time\n"
            "from repro.stats.rng import make_rng\n"
            "def simulate():\n"
            "    rng = make_rng(int(time.time()))\n"
            "    return rng.random()\n"
        ),
        quiet=(
            "import time\n"
            "def benchmark(fn):\n"
            "    start = time.time()\n"
            "    fn()\n"
            "    return time.time() - start\n"
        ),
    ),
    RuleFixture(
        code="RPL102",
        folded_from="RPL010",
        flagged=(
            "def derive(name):\n"
            "    seed = hash(name) % 1000\n"
            "    return seed\n"
        ),
        quiet=(
            "from repro.stats.rng import stable_hash\n"
            "def derive(name):\n"
            "    seed = stable_hash(name) % 1000\n"
            "    return seed\n"
        ),
    ),
    RuleFixture(
        code="RPL011",
        flagged=(
            "def order(items):\n"
            "    seen = set(items)\n"
            "    out = []\n"
            "    for item in seen:\n"
            "        out.append(item)\n"
            "    return out\n"
        ),
        quiet=(
            "def order(items):\n"
            "    seen = set(items)\n"
            "    out = []\n"
            "    for item in sorted(seen):\n"
            "        out.append(item)\n"
            "    return out\n"
        ),
    ),
    RuleFixture(
        code="RPL011",
        flagged="doubled = [item * 2 for item in {1, 2, 3}]\n",
        quiet="doubled = [item * 2 for item in sorted({1, 2, 3})]\n",
    ),
    RuleFixture(
        code="RPL020",
        flagged=(
            "import numpy as np\n"
            "def total(values):\n"
            "    arr = np.asarray(values)\n"
            "    acc = 0.0\n"
            "    for value in arr:\n"
            "        acc += value\n"
            "    return acc\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def total(values):\n"
            "    arr = np.asarray(values)\n"
            "    return float(arr.sum())\n"
        ),
        path=BATCHED_PATH,
    ),
    RuleFixture(
        code="RPL020",
        # Annotated ndarray parameters are tracked too; .tolist() is the
        # sanctioned way to cross into per-element land.
        flagged=(
            "import numpy as np\n"
            "def pairs(users: np.ndarray, apps: np.ndarray):\n"
            "    return [(u, a) for u, a in zip(users, apps)]\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def pairs(users: np.ndarray, apps: np.ndarray):\n"
            "    return list(zip(users.tolist(), apps.tolist()))\n"
        ),
        path=BATCHED_PATH,
    ),
    RuleFixture(
        code="RPL020",
        # The same per-element loop outside a declared-batched module is
        # not the vectorization rule's business.
        flagged=(
            "import numpy as np\n"
            "def total(values):\n"
            "    arr = np.asarray(values)\n"
            "    acc = 0.0\n"
            "    for value in arr:\n"
            "        acc += value\n"
            "    return acc\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def total(values):\n"
            "    arr = np.asarray(values)\n"
            "    acc = 0.0\n"
            "    for value in arr:\n"
            "        acc += value\n"
            "    return acc\n"
        ),
        path=BATCHED_PATH,
        quiet_path=PLAIN_PATH,
    ),
    RuleFixture(
        code="RPL021",
        flagged=(
            "import numpy as np\n"
            "def gather(chunks):\n"
            "    out = np.empty(0)\n"
            "    for chunk in chunks:\n"
            "        out = np.concatenate([out, chunk])\n"
            "    return out\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def gather(chunks):\n"
            "    return np.concatenate([chunk for chunk in chunks])\n"
        ),
        path=BATCHED_PATH,
    ),
    RuleFixture(
        code="RPL020",
        folded_from="RPL022",
        flagged=(
            "import numpy as np\n"
            "def materialize(values):\n"
            "    column = np.asarray(values)\n"
            "    out = []\n"
            "    for value in column:\n"
            "        out.append(value)\n"
            "    return out\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def materialize(values):\n"
            "    column = np.asarray(values)\n"
            "    out = []\n"
            "    out.extend(column.tolist())\n"
            "    return out\n"
        ),
        path=STORE_PATH,
    ),
    RuleFixture(
        code="RPL020",
        folded_from="RPL022",
        # Per-row appends over zipped columns are the classic way a chunk
        # gets rebuilt one row at a time; outside the vectorized modules
        # the same loop is not this rule's business.
        flagged=(
            "import numpy as np\n"
            "def pair_rows(ids, downloads):\n"
            "    ids = np.asarray(ids)\n"
            "    downloads = np.asarray(downloads)\n"
            "    rows = []\n"
            "    for app_id, count in zip(ids, downloads):\n"
            "        rows.append((app_id, count))\n"
            "    return rows\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def pair_rows(ids, downloads):\n"
            "    ids = np.asarray(ids)\n"
            "    downloads = np.asarray(downloads)\n"
            "    rows = []\n"
            "    for app_id, count in zip(ids, downloads):\n"
            "        rows.append((app_id, count))\n"
            "    return rows\n"
        ),
        path=STORE_PATH,
        quiet_path=PLAIN_PATH,
    ),
    RuleFixture(
        code="RPL020",
        folded_from="RPL023",
        # Walking a user array one element at a time defeats the
        # one-kernel-per-segment dispatch; partition_by_blocks hands each
        # contiguous segment block to a single vectorized call.
        flagged=(
            "import numpy as np\n"
            "def dispatch(user_ids, sessions, boundaries, day, rng):\n"
            "    users = np.asarray(user_ids)\n"
            "    out = []\n"
            "    for user in users:\n"
            "        segment = int(np.searchsorted(boundaries, user))\n"
            "        out.append(sessions[segment].draw([user], day, rng))\n"
            "    return out\n"
        ),
        quiet=(
            "import numpy as np\n"
            "from repro.core.engine import partition_by_blocks\n"
            "def dispatch(user_ids, sessions, boundaries, day, rng):\n"
            "    users = np.asarray(user_ids)\n"
            "    ids, order, starts = partition_by_blocks(users, boundaries)\n"
            "    out = np.full(users.size, -1)\n"
            "    for segment in range(starts.size - 1):\n"
            "        lo, hi = int(starts[segment]), int(starts[segment + 1])\n"
            "        if lo < hi:\n"
            "            block = order[lo:hi]\n"
            "            out[block] = sessions[segment].draw(\n"
            "                users[block], day, rng\n"
            "            )\n"
            "    return out\n"
        ),
        path=SEGMENT_PATH,
    ),
    RuleFixture(
        code="RPL020",
        folded_from="RPL023",
        # The same per-element walk outside the vectorized modules is
        # not this rule's business.
        flagged=(
            "import numpy as np\n"
            "def tally(user_ids, weights: np.ndarray):\n"
            "    total = 0.0\n"
            "    for user, weight in zip(np.asarray(user_ids), weights):\n"
            "        total += weight\n"
            "    return total\n"
        ),
        quiet=(
            "import numpy as np\n"
            "def tally(user_ids, weights: np.ndarray):\n"
            "    total = 0.0\n"
            "    for user, weight in zip(np.asarray(user_ids), weights):\n"
            "        total += weight\n"
            "    return total\n"
        ),
        path=SEGMENT_PATH,
        quiet_path=PLAIN_PATH,
    ),
    RuleFixture(
        code="RPL030",
        flagged=(
            "def collect(item, bucket=[]):\n"
            "    bucket.append(item)\n"
            "    return bucket\n"
        ),
        quiet=(
            "def collect(item, bucket=None):\n"
            "    bucket = [] if bucket is None else bucket\n"
            "    bucket.append(item)\n"
            "    return bucket\n"
        ),
    ),
    RuleFixture(
        code="RPL031",
        flagged=(
            "def is_free(price):\n"
            "    return price == 0.0\n"
        ),
        # The allowlisted predicate in entities.py is the one sanctioned
        # home for this comparison.
        quiet=(
            "def is_free_price(price):\n"
            "    return price == 0.0\n"
        ),
        quiet_path="src/repro/marketplace/entities.py",
    ),
    RuleFixture(
        code="RPL031",
        flagged="matched = 1.5 != compute()\n",
        quiet="matched = 2 == compute()\n",
    ),
    RuleFixture(
        code="RPL032",
        flagged=(
            "__all__ = ['missing_name']\n"
            "def present():\n"
            "    return 1\n"
        ),
        quiet=(
            "__all__ = ['present']\n"
            "def present():\n"
            "    return 1\n"
        ),
    ),
    RuleFixture(
        code="RPL032",
        flagged=(
            "__all__ = ['first']\n"
            "def first():\n"
            "    return 1\n"
            "def second():\n"
            "    return 2\n"
        ),
        quiet=(
            "def first():\n"
            "    return 1\n"
            "def second():\n"
            "    return 2\n"
        ),
    ),
    RuleFixture(
        code="RPL040",
        flagged=(
            "import time\n"
            "def stamp():\n"
            "    return time.monotonic()\n"
        ),
        # The virtual-clock idiom: time comes from the running loop.
        quiet=(
            "import asyncio\n"
            "async def stamp():\n"
            "    return asyncio.get_running_loop().time()\n"
        ),
        path=SERVICE_PATH,
    ),
    RuleFixture(
        code="RPL040",
        flagged=(
            "import time\n"
            "async def pace():\n"
            "    time.sleep(0.5)\n"
        ),
        quiet=(
            "import asyncio\n"
            "async def pace():\n"
            "    await asyncio.sleep(0.5)\n"
        ),
        path=SERVICE_PATH,
    ),
    RuleFixture(
        code="RPL040",
        # Outside the service tree the same call is RPL040-quiet (other
        # rules may still have opinions about it).
        flagged=(
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n"
        ),
        quiet=(
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n"
        ),
        path=SERVICE_PATH,
        quiet_path=PLAIN_PATH,
    ),
)


PER_FILE_CODES = frozenset(rule.code for rule in RULES)

FIXTURE_IDS = [
    f"{fixture.folded_from or fixture.code}-{index}"
    for index, fixture in enumerate(FIXTURES)
]


def _codes(code: str, source: str, path: str, tmp_path: Path) -> list:
    if code in PER_FILE_CODES:
        return [finding.code for finding in lint_source(source, path=path)]
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "fixture.py").write_text(source, encoding="utf-8")
    findings, _files = analyze_paths([str(package)])
    return [finding.code for finding in findings]


@pytest.mark.parametrize("fixture", FIXTURES, ids=FIXTURE_IDS)
def test_rule_fires_on_flagged_snippet(
    fixture: RuleFixture, tmp_path: Path
) -> None:
    codes = _codes(fixture.code, fixture.flagged, fixture.path, tmp_path)
    assert fixture.code in codes


@pytest.mark.parametrize("fixture", FIXTURES, ids=FIXTURE_IDS)
def test_rule_quiet_on_passing_snippet(
    fixture: RuleFixture, tmp_path: Path
) -> None:
    codes = _codes(
        fixture.code, fixture.quiet, fixture.quiet_target(), tmp_path
    )
    assert fixture.code not in codes


def test_every_shipped_rule_has_fixtures() -> None:
    """The pack cannot grow a rule without pinning its behaviour here,
    and no fixture may pin a code the analyzer does not report."""
    covered = {fixture.code for fixture in FIXTURES}
    assert PER_FILE_CODES <= covered
    assert covered <= {rule["code"] for rule in RULE_TABLE}


def test_syntax_error_reported_as_rpl000() -> None:
    findings = lint_source("def broken(:\n", path="bad.py")
    assert [finding.code for finding in findings] == ["RPL000"]


class TestNoqaSuppression:
    def test_bare_noqa_suppresses_everything_on_the_line(self) -> None:
        source = "import random  # repro: noqa -- fixture exercising bare form\n"
        assert lint_source(source, path=PLAIN_PATH) == []

    def test_coded_noqa_suppresses_only_that_code(self) -> None:
        source = (
            "import random  # repro: noqa=RPL002 -- fixture justification\n"
        )
        assert lint_source(source, path=PLAIN_PATH) == []

    def test_wrong_code_does_not_suppress(self) -> None:
        source = "import random  # repro: noqa=RPL001\n"
        codes = [f.code for f in lint_source(source, path=PLAIN_PATH)]
        assert codes == ["RPL002"]

    def test_noqa_on_other_line_does_not_suppress(self) -> None:
        source = (
            "x = 1  # repro: noqa\n"
            "import random\n"
        )
        codes = [f.code for f in lint_source(source, path=PLAIN_PATH)]
        assert codes == ["RPL002"]


def test_findings_are_sorted_and_positioned() -> None:
    source = (
        "import random\n"
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.rand()\n"
    )
    findings = lint_source(source, path=PLAIN_PATH)
    assert [f.code for f in findings] == ["RPL002", "RPL001"]
    assert findings[0].line == 1
    assert findings[1].line == 4
    rendered = findings[0].render()
    assert rendered.startswith(f"{PLAIN_PATH}:1:0: RPL002")
