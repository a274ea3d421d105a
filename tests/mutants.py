"""A catalogue of mutants of `src/` and the tests that must kill them.

Each entry of MUTANTS replaces one exact text of one source file (it must
occur exactly once) and names the pytest node ids that must fail on the
mutated copy; a node id without brackets stands for all its parameters,
and it fails when any of them does.  `origin` names the `CHANGES.md` entry
the mutant was first described in.  EQUIVALENT lists mutants no test can
kill, each with the reason; they are applied too, and their nodes must
still pass.

Run from the root of a checkout:

    python tests/mutants.py [ID ...]

The runner copies `src/`, `tests/`, `README.md` and `pyproject.toml` to a
temporary directory, runs every named node there unmutated (all must pass),
then applies each mutant in turn to a fresh copy and runs its nodes (each
must fail; a run past TIMEOUT seconds counts as killed).  Hypothesis runs
without its shrink phase there: a kill needs a failing example, not the
smallest one, and shrinking one can take minutes.  It exits 1 when
an `old` text does not match, the unmutated copy fails, a mutant survives
or an equivalent one is killed.  pytest does not collect this module.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TIMEOUT = 300  # seconds per pytest run


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the checkout
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids
    origin: str  # the CHANGES.md entry that described it
    reason: str = ""  # why an equivalent mutant is equivalent


MUTANTS = [
    Mutant(
        "wall-table-m-of-the-normal-alone",
        "src/mmideals/regions.py",
        "m = math.lcm(a1, a2, *filter(None, alphas))",
        "m = math.lcm(a1, a2)",
        (
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
            "tests/test_regions.py::test_edges_on_the_wall_table_are_the_plane_clip_on_a_random_m_primary_pair",
            "tests/test_regions.py::test_edges_on_the_wall_table_are_the_plane_clip[tree3]",
        ),
        "one engine-wide wall table",
    ),
    Mutant(
        "clip-row-ignores-a-parallel-wall",
        "src/mmideals/regions.py",
        "            if beta < 0:\n                return None\n        elif alpha > 0:",
        "            pass\n        elif alpha > 0:",
        (
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
            "tests/test_regions.py::test_edges_on_the_wall_table_are_the_plane_clip_on_a_random_m_primary_pair",
            "tests/test_regions.py::test_edges_on_the_wall_table_are_the_plane_clip[doubled]",
        ),
        "one engine-wide wall table",
    ),
    Mutant(
        "svg-label-memo-by-component",
        "src/mmideals/svg.py",
        "name = wall.component, wall.numerator",
        "name = wall.component",
        (
            "tests/test_regions.py::test_edges_on_the_wall_table_are_the_plane_clip_on_a_random_m_primary_pair",
            "tests/test_regions.py::test_edges_on_the_wall_table_are_the_plane_clip[box0-m-primary]",
        ),
        "one engine-wide wall table",
    ),
    Mutant(
        "json-inequality-memo-by-component",
        "src/mmideals/io.py",
        "name = q.component, q.numerator",
        "name = q.component",
        ("tests/test_cli.py::test_walk_output_digests",),
        "one engine-wide wall table",
    ),
    Mutant(
        "facets-drop-a-reaching-prior",
        "src/mmideals/regions.py",
        "for _, prior in reach if",
        "for _, prior in reach[1:] if",
        (
            "tests/test_regions.py::test_walk_coverage_against_closures",
            "tests/test_regions.py::test_prior_index_clips_as_the_all_priors_scan",
        ),
        "one parser from outside coordinates to integer keys",
    ),
    Mutant(
        "closure-below-its-floor",
        "src/mmideals/divisors.py",
        "return divisor if rounds == 1 else Divisor._of_ints(g, coeffs)",
        "return Divisor._of_ints(g, [coeffs[0] - 1, *coeffs[1:]]) if rounds == 1 else Divisor._of_ints(g, coeffs)",
        ("tests/test_regions.py::test_every_region_has_positive_constants",),
        "one wall formula, and the two guards it proves are gone",
    ),
    Mutant(
        "ray-step-returns-t",
        "src/mmideals/regions.py",
        "        return best_num // g, best_den // g",
        "        return p, q",
        ("tests/test_regions.py::test_every_region_has_positive_constants",),
        "one wall formula, and the two guards it proves are gone",
    ),
    Mutant(
        "plain-reader-keeps-the-first-repeated-flag",
        "src/mmideals/cli.py",
        'if key is None or opts[key] is not None or value[:1] == "-":\n            return None\n        opts[key] = value',
        'if key is None or value[:1] == "-":\n            return None\n        opts[key] = opts[key] or value',
        ("tests/test_cli.py::test_the_plain_reader_equals_argparse",),
        "`cli.main` reads a plain command line from the command table",
    ),
    Mutant(
        "region-without-its-first-wall",
        "src/mmideals/regions.py",
        "for j in self.wall_relevant)\n        return RegionPolytope(",
        "for j in self.wall_relevant[1:])\n        return RegionPolytope(",
        ("tests/test_regions.py::test_region_constants",),
        "one parser from outside coordinates to integer keys",
    ),
    Mutant(
        "plain-reader-accepts-a-dashed-value",
        "src/mmideals/cli.py",
        'if key is None or opts[key] is not None or value[:1] == "-":',
        "if key is None or opts[key] is not None:",
        (
            "tests/test_cli.py::test_other_dashed_values_keep_the_usage_error",
            "tests/test_cli.py::test_the_plain_reader_equals_argparse",
        ),
        "`cli.main` reads a plain command line from the command table",
    ),
    Mutant(
        "empty-list-written-with-a-space",
        "src/mmideals/io.py",
        'if text else "[]"',
        'if text else "[ ]"',
        ("tests/test_io.py::test_report_writer_matches_the_reference_payload",),
        "walk calls at the cost of their regions",
    ),
    Mutant(
        "box-top-bound-divides-m-by-a1",
        "src/mmideals/regions.py",
        "q * c) * (m // a2)",
        "q * c) * (m // a1)",
        (
            "tests/test_regions.py::test_fractional_k_input",
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
        ),
        "one clip routine in `src/`",
    ),
    Mutant(
        "box-bottom-bound-reads-x",
        "src/mmideals/regions.py",
        "-y * scale * m",
        "-x * scale * m",
        (
            "tests/test_regions.py::test_walk_representative_order",
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
        ),
        "one clip routine in `src/`",
    ),
    Mutant(
        "box-touching-facet-seeds-nothing",
        "src/mmideals/regions.py",
        "                elif b0 == b1:\n",
        "                elif False:\n",
        (
            "tests/test_regions.py::test_full_run_terminates_and_covers",
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
        ),
        "one clip routine in `src/`",
    ),
    Mutant(
        "box-seed-k-without-q",
        "src/mmideals/regions.py",
        "_line_key(line, scale, b0 + b1, 2 * q)",
        "_line_key(line, scale, b0 + b1, 2)",
        (
            "tests/test_regions.py::test_walks_of_random_boxes_cover_their_corners",
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
        ),
        "one clip routine in `src/`",
    ),
    Mutant(
        "box-touch-seed-k-without-q",
        "src/mmideals/regions.py",
        "_line_key(line, scale, b0, q)",
        "_line_key(line, scale, b0)",
        (
            "tests/test_regions.py::test_walks_of_random_boxes_cover_their_corners",
            "tests/test_regions.py::test_wall_table_rows_clip_as_the_plane_clip",
        ),
        "one clip routine in `src/`",
    ),
    Mutant(
        "svg-outline-reclips-the-walls",
        "src/mmideals/regions.py",
        "for *_, line, lo, hi in self.edges for t in (lo, hi)",
        "for *_, line, lo, hi in RegionPolytope.edges.func(self) for t in (lo, hi)",
        ("tests/test_regions.py::test_drawing_a_walk_clips_no_wall",),
        "one clip routine in `src/`",
    ),
    Mutant(
        "closure-raises-at-zero-excess",
        "src/mmideals/divisors.py",
        "if dot > 0:  # rise",
        "if dot >= 0:  # rise",
        ("tests/test_divisors.py::test_antinef_closure_golden",),
        "one module decides the walls",
    ),
    Mutant(
        "closure-requeues-only-the-raised",
        "src/mmideals/divisors.py",
        "queue = {j for i in raised for j in adjacency[i] if j < n}",
        "queue = set(raised)",
        ("tests/test_divisors.py::test_antinef_closure_golden",),
        "one module decides the walls",
    ),
    Mutant(
        "closure-returns-its-input",
        "src/mmideals/divisors.py",
        "return divisor if rounds == 1 else Divisor._of_ints(g, coeffs)",
        "return divisor",
        ("tests/test_divisors.py::test_antinef_closure_golden",),
        "one module decides the walls",
    ),
    Mutant(
        "closure-first-round-skips-component-0",
        "src/mmideals/divisors.py",
        "queue = range(n)",
        "queue = range(1, n)",
        ("tests/test_divisors.py::test_antinef_closure_golden",),
        "one module decides the walls",
    ),
    Mutant(
        "closure-raises-by-one",
        "src/mmideals/divisors.py",
        "coeffs[i] -= dot // self_int[i]",
        "coeffs[i] += 1",
        (
            "tests/test_divisors.py::test_closure_dominates_and_is_antinef",
            "tests/test_divisors.py::test_closure_monotone",
        ),
        "one module decides the walls",
    ),
    Mutant(
        "closure-drops-affine-coefficients",
        "src/mmideals/divisors.py",
        "            for j in adjacency[i]:\n                dot += coeffs[j]\n",
        "            for j in adjacency[i]:\n                dot += coeffs[j] if j < n else 0\n",
        ("tests/test_cli.py::test_variant_walk_output_digests",),
        "one module decides the walls",
    ),
    Mutant(
        "rupture-counts-affine-arrows",
        "src/mmideals/regions.py",
        "or len(adj[j]) > 2 and adj[j][2] < n",
        "or len(adj[j]) > 2",
        ("tests/test_graph.py::test_set_up_matches_the_reference_definitions",),
        "one module decides the walls",
    ),
    Mutant(
        "ends-without-the-crossed-components",
        "src/mmideals/regions.py",
        "self.ends = frozenset(self.wall_relevant).union(j for a in ideals.support if a >= n for j in adj[a])",
        "self.ends = frozenset(self.wall_relevant)",
        ("tests/test_jumping.py::test_crossed_components_are_classified_once",),
        "one module decides the walls",
    ),
    Mutant(
        "walk-cap-one-step-late",
        "src/mmideals/regions.py",
        "if len(representatives) == ENUMERATION_GUARD:",
        "if len(representatives) > ENUMERATION_GUARD:",
        ("tests/test_cli.py::test_exit_2_when_the_walk_reaches_its_cap",),
        "the minimal jumping divisor is its membership equation",
    ),
    Mutant(
        "jumping-divisor-members-off-the-divisor-at-the-point",
        "src/mmideals/jumping.py",
        "(1 + left.coeffs[j]) * den",
        "(1 + context.divisor.coeffs[j]) * den",
        ("tests/test_jumping.py::test_g_at_a_ray_jump_is_attained_with_positive_integer_values",),
        "the minimal jumping divisor is its membership equation",
    ),
]

EQUIVALENT = [
    Mutant(
        "prior-index-bisect-right-on-a-tuple-probe",
        "src/mmideals/regions.py",
        "column[bisect.bisect_left(column, c, key=operator.itemgetter(0)) :]",
        "column[bisect.bisect_right(column, (c,)) :]",
        (
            "tests/test_regions.py::test_prior_index_clips_as_the_all_priors_scan",
            "tests/test_cli.py::test_walk_output_digests",
        ),
        "walk calls at the cost of their regions",
        "the probe (C,) sorts before every entry (C, region) of equal constant, so bisect_right on it "
        "finds the first entry of constant at least C, as bisect_left on the constant does",
    ),
]

COPIED = ("src", "tests", "README.md", "pyproject.toml")
# a pytest plugin written into each copy: the default Hypothesis settings,
# which every test's own settings extend, without the shrink phase
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("no-shrink")
"""


def _copy(root: Path, into: Path) -> Path:
    for name in COPIED:
        source = root / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, into / name)
    (into / "no_shrink.py").write_text(NO_SHRINK)
    return into


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.id}: `old` occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _failed(tree: Path, nodes) -> tuple[set[str], bool]:
    """The named nodes that fail in `tree`, and whether pytest timed out."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-p", "no_shrink", "-x", *nodes]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return set(nodes), True
    bad = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode not in (0, 1) and not bad:  # a usage or collection error
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return {node for node in nodes if any(b == node or b.startswith(node + "[") for b in bad)}, False


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    chosen = [m for m in MUTANTS + EQUIVALENT if not argv or m.id in argv]
    problems = []
    with tempfile.TemporaryDirectory() as workdir:
        clean = _copy(root, Path(workdir) / "clean")
        nodes = sorted({node for m in chosen for node in m.kills})
        failing, _ = _failed(clean, nodes)
        if failing:
            problems.append(f"unmutated copy fails {sorted(failing)}")
        for n, mutant in enumerate(chosen):
            start = time.perf_counter()
            tree = _copy(root, Path(workdir) / f"m{n}")
            try:
                _apply(tree, mutant)
            except LookupError as exc:
                problems.append(str(exc))
                continue
            # -x stops at the first failure, so run the nodes one at a time
            failed, timed_out = set(), False
            for node in mutant.kills:
                got, late = _failed(tree, [node])
                failed |= got
                timed_out |= late
            shutil.rmtree(tree)
            if mutant in EQUIVALENT:
                verdict = "KILLED, though listed as equivalent" if failed else "equivalent"
                if failed:
                    problems.append(f"{mutant.id}: equivalent mutant fails {sorted(failed)}")
            else:
                survivors = [node for node in mutant.kills if node not in failed]
                verdict = "SURVIVED" if survivors else "killed"
                if survivors:
                    problems.append(f"{mutant.id}: {survivors} pass")
            late = " (timed out)" if timed_out else ""
            print(f"{mutant.id}: {verdict}{late} in {time.perf_counter() - start:.1f} s", flush=True)
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
