import os
import re
import shlex
import subprocess
from pathlib import Path

import pytest
import yaml

from pfaffinc import cli

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_file_loads_and_every_step_runs_something():
    # an invalid workflow file runs no step at all, and the CI page then shows
    # no failing test, only a file that could not be read
    workflow = yaml.safe_load(WORKFLOW.read_text())
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)


def _steps():
    return [step for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
            for step in job["steps"]]


def test_tier1_step_turns_runtime_warnings_into_errors():
    tier1 = [step["run"] for step in _steps()
             if "pytest" in step.get("run", "") and "perfbench/tests" not in step["run"]]
    assert len(tier1) == 1
    assert "-W error::RuntimeWarning" in tier1[0]


def _smoke_steps():
    steps = [step for step in _steps() if "perfbench/run.py" in step.get("run", "")]
    assert len(steps) == 2 and sum("--trace 1" in step["run"] for step in steps) == 1
    return steps


ROW = '{"correct": %s, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 0.2}}}'


@pytest.mark.parametrize("rows, passes", [
    ([ROW % "true"] * 3, True),
    ([ROW % "true", ROW % "false", ROW % "true"], False),
    ([], False),  # run.py printed no result line
])
def test_smoke_steps_fail_unless_every_row_is_correct(rows, passes, tmp_path):
    # each step runs as GitHub runs a bash step, with the benchmark's output
    # given in place of its run.py line
    for step in _smoke_steps():
        assert step["shell"] == "bash" and step["if"] == "${{ !cancelled() }}"
        bench, rest = step["run"].split("\n", 1)
        out = re.fullmatch(r"python3 perfbench/run\.py .*\| tee (\S+)", bench).group(1)
        (tmp_path / out).write_text("".join(f"# w{i} seed=1: wall_s=0.2 s\n# {{}}\n{row}\n"
                                            for i, row in enumerate(rows)))
        summary = tmp_path / "summary.md"
        summary.write_text("")
        done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", rest],
                              cwd=tmp_path, env={**os.environ, "GITHUB_STEP_SUMMARY": str(summary)})
        assert (done.returncode == 0) == passes, step["name"]
        # the page shows every result line, and not the details lines
        shown = summary.read_text()
        assert all(row in shown for row in rows) and "# {}" not in shown


def test_line_count_step_lists_every_module(tmp_path):
    # the step runs from the repository root, as GitHub runs it, and its
    # summary holds a line per module and the total, then the net change of
    # src/pfaffinc against the first parent, or a line saying there is none
    step, = [step for step in _steps() if step.get("name") == "source line count"]
    assert step["shell"] == "bash" and step["if"] == "${{ !cancelled() }}"
    checkout, = [step for step in _steps() if step.get("uses", "").startswith("actions/checkout")]
    assert checkout["with"]["fetch-depth"] == 2

    def summary_in(root):
        summary = tmp_path / "summary.md"
        summary.write_text("")
        done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                               step["run"]], cwd=root,
                              env={**os.environ, "GITHUB_STEP_SUMMARY": str(summary)})
        assert done.returncode == 0
        return summary.read_text()

    shown = summary_in(WORKFLOW.parent.parent.parent)
    modules = sorted((WORKFLOW.parent.parent.parent / "src" / "pfaffinc").glob("*.py"))
    assert modules and all(f"src/pfaffinc/{m.name}\n" in shown for m in modules)
    assert re.search(r"^    +\d+ total$", shown, re.M)
    assert re.search(r"^net src/pfaffinc lines(: no parent| against the first parent: [+-]\d+$)",
                     shown, re.M)

    # in a repository of its own: a first commit has no parent, and a second
    # that adds 3 lines to src/pfaffinc, removes 1, and adds one elsewhere
    # shows +2
    repo = tmp_path / "repo"
    (repo / "src" / "pfaffinc").mkdir(parents=True)
    module = repo / "src" / "pfaffinc" / "a.py"
    module.write_text("a = 1\nb = 2\n")

    def commit():
        git = ["git", "-c", "user.name=ci", "-c", "user.email=ci@example.com"]
        subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-qm", "c"], cwd=repo, check=True)

    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    commit()
    assert "\nnet src/pfaffinc lines: no parent commit to compare with\n" in summary_in(repo)
    module.write_text("a = 1\nc = 3\nd = 4\ne = 5\n")
    (repo / "README").write_text("more\n")
    commit()
    assert "\nnet src/pfaffinc lines against the first parent: +2\n" in summary_in(repo)


def test_readme_command_lines_parse_and_cover_every_subcommand():
    # the README's "Command line" examples and the parser drift apart silently
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("pfaffinc ")]
    parser = cli.build_parser()
    used = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert used == set(commands)
