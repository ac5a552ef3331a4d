"""Docs-consistency checks: the reference tables in ``docs/`` must
match the code.

These tests scrape the *code* for its tuning surface — environment
variables, wire error codes, protocol ops, config fields, CLI flags —
and assert each item appears in the corresponding docs file.  They are
deliberately one-directional: docs may say *more* than the code
(prose, examples), but the code may not grow a knob the docs miss.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.common.errors import WIRE_ERROR_CODES
from repro.net import protocol as net_protocol
from repro.net import worker as net_worker

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"
SRC = REPO_ROOT / "src" / "repro"


def _doc(name):
    path = DOCS / name
    assert path.is_file(), "missing docs file: %s" % path
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def architecture_md():
    return _doc("ARCHITECTURE.md")


@pytest.fixture(scope="module")
def protocol_md():
    return _doc("protocol.md")


@pytest.fixture(scope="module")
def operations_md():
    return _doc("operations.md")


class TestEnvVars:
    def _env_vars_in_source(self):
        names = set()
        for path in SRC.rglob("*.py"):
            names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        return names

    def test_every_env_var_documented(self, operations_md):
        missing = sorted(
            name for name in self._env_vars_in_source()
            if name not in operations_md
        )
        assert not missing, (
            "env vars used in src/ but absent from docs/operations.md: %s"
            % ", ".join(missing)
        )

    def test_no_phantom_env_vars(self, operations_md):
        in_source = self._env_vars_in_source()
        phantoms = sorted(
            name for name in set(re.findall(r"REPRO_[A-Z_]+", operations_md))
            if name not in in_source
        )
        assert not phantoms, (
            "docs/operations.md documents env vars no code reads: %s"
            % ", ".join(phantoms)
        )


class TestWireErrorCodes:
    def test_every_code_documented(self, protocol_md):
        # Each registry entry must appear as a table row carrying both
        # the class name and its exact code on one line.
        for cls, code in WIRE_ERROR_CODES.items():
            pattern = r"`%s`\s*\|\s*%d\b" % (re.escape(cls.__name__), code)
            assert re.search(pattern, protocol_md), (
                "docs/protocol.md is missing the error-code row for "
                "%s = %d" % (cls.__name__, code)
            )

    def test_no_stale_code_rows(self, protocol_md):
        documented = {
            (name, int(code))
            for name, code in re.findall(r"`(\w+Error)`\s*\|\s*(\d+)", protocol_md)
        }
        actual = {
            (cls.__name__, code) for cls, code in WIRE_ERROR_CODES.items()
        }
        stale = documented - actual
        assert not stale, (
            "docs/protocol.md documents error codes not in "
            "WIRE_ERROR_CODES: %s" % sorted(stale)
        )


class TestProtocolOps:
    def test_front_door_ops_documented(self, protocol_md):
        from repro.net.server import ServiceServer

        ops = ServiceServer._OPS
        assert isinstance(ops, dict) and ops, "could not locate front-door _OPS"
        for op in ops:
            assert "`%s`" % op in protocol_md, (
                "front-door op %r missing from docs/protocol.md" % op
            )

    def test_worker_ops_documented(self, protocol_md):
        # The ops dict is built in __init__, so scrape the op names
        # statically instead of standing up a listening worker.
        source = inspect.getsource(net_worker)
        ops = set(re.findall(r'"(\w+)":\s*self\._op_\w+', source))
        assert ops >= {"worker_hello", "heartbeat", "run_stage"}, (
            "worker op table in source looks wrong: %s" % sorted(ops)
        )
        for op in sorted(ops):
            assert "`%s`" % op in protocol_md, (
                "worker op %r missing from docs/protocol.md" % op
            )

    def test_run_stage_row_names_its_blob_fields(self, protocol_md):
        # One batch blob in, one reply blob out: the names the driver's
        # client writes and reads must be the ones the row documents.
        source = inspect.getsource(net_worker.ShardWorkerClient.run_stage)
        assert re.findall(r'"(\w+)": 0', source) == ["batch"]
        assert re.findall(r'payload\.get\("(\w+)"\)', source) == ["reply"]
        rows = [line for line in protocol_md.splitlines()
                if line.startswith("| `run_stage` |")]
        assert len(rows) == 1, "docs/protocol.md needs one run_stage row"
        request, response = rows[0].split(" | ")[1:3]
        assert request.startswith("`batch`:"), request
        assert response.startswith("`reply`:"), response

    def test_driver_ops_documented(self, protocol_md):
        assert net_worker.DRIVER_OPS, "DRIVER_OPS is empty"
        for op in net_worker.DRIVER_OPS:
            assert "`%s`" % op in protocol_md, (
                "driver op %r missing from docs/protocol.md" % op
            )

    def test_frame_constants_documented(self, protocol_md):
        assert "PROTOCOL_VERSION = %d" % net_protocol.PROTOCOL_VERSION in protocol_md
        kinds = {
            "KIND_REQUEST": net_protocol.KIND_REQUEST,
            "KIND_RESPONSE": net_protocol.KIND_RESPONSE,
            "KIND_ERROR": net_protocol.KIND_ERROR,
            "KIND_EVENT": net_protocol.KIND_EVENT,
            "KIND_GOAWAY": net_protocol.KIND_GOAWAY,
        }
        for name, value in kinds.items():
            pattern = r"`%s`\s*\|\s*%d\b" % (name, value)
            assert re.search(pattern, protocol_md), (
                "docs/protocol.md is missing the frame-kind row for "
                "%s = %d" % (name, value)
            )
        assert "`FLAG_BLOBS = %#06x`" % net_protocol.FLAG_BLOBS in protocol_md
        mib = net_protocol.DEFAULT_MAX_FRAME_BYTES // (1024 * 1024)
        assert "%d MiB" % mib in protocol_md
        worker_mib = net_worker.WORKER_MAX_FRAME_BYTES // (1024 * 1024)
        assert "%d MiB" % worker_mib in protocol_md


class TestServiceConfig:
    def test_every_field_documented(self, operations_md):
        from repro.service.service import ServiceConfig

        for name in inspect.signature(ServiceConfig.__init__).parameters:
            if name == "self":
                continue
            assert "`%s`" % name in operations_md, (
                "ServiceConfig field %r missing from docs/operations.md"
                % name
            )


class TestCliFlags:
    def test_every_long_option_documented(self, operations_md):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        missing = []
        for command, sub in subparsers.choices.items():
            assert "`%s`" % command in operations_md or command in operations_md, (
                "CLI command %r missing from docs/operations.md" % command
            )
            for action in sub._actions:
                for opt in action.option_strings:
                    if opt.startswith("--") and opt != "--help":
                        if "`%s`" % opt not in operations_md:
                            missing.append("%s %s" % (command, opt))
        assert not missing, (
            "CLI flags missing from docs/operations.md: %s"
            % ", ".join(sorted(set(missing)))
        )


class TestArchitecture:
    def test_layer_modules_exist(self, architecture_md):
        # Every `repro.x.y` module the architecture doc names must be
        # importable from src/ — docs must not outlive refactors.
        def resolves(parts):
            # A reference may name a module, a package, or an
            # attribute of one (`repro.engine.cluster.make_default_cluster`)
            # — some prefix must be a real module file.
            while parts:
                path = SRC.joinpath(*parts)
                if path.with_suffix(".py").is_file() or (
                    path.is_dir() and (path / "__init__.py").is_file()
                ):
                    return True
                parts = parts[:-1]
            return False

        for dotted in set(re.findall(r"`(repro(?:\.\w+)+)`", architecture_md)):
            assert resolves(dotted.split(".")[1:]), (
                "docs/ARCHITECTURE.md names missing module %s" % dotted
            )

    def test_imports_point_down_the_layer_map(self, architecture_md):
        # The layer-map block is the spec: each row names the packages
        # of one layer, top row highest.  Every import under src/repro
        # — function-local ones included — must stay inside its own
        # package or point at a strictly lower row.
        block = re.search(r"## Layer map.*?```\n(.*?)```", architecture_md,
                          re.S).group(1)
        rows = [re.findall(r"repro\.(\w+)", line)
                for line in block.splitlines()]
        rows = [row for row in rows if row]
        rank = {package: len(rows) - i
                for i, row in enumerate(rows) for package in row}

        def package_of(parts):
            # `repro.cli` and the package root are files, not packages.
            return parts[0] if parts and parts[0] in rank else "__init__"

        upward = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC)
            importer = relative.parts[0] if len(relative.parts) > 1 \
                else relative.stem
            assert importer in rank, (
                "src/repro/%s is in no row of docs/ARCHITECTURE.md's "
                "layer map" % relative
            )
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    assert node.level == 0, (
                        "%s:%d uses a relative import" % (path, node.lineno)
                    )
                    targets = [node.module]
                    if node.module == "repro":
                        targets = ["repro.%s" % a.name for a in node.names]
                else:
                    continue
                for target in targets:
                    parts = target.split(".")
                    if parts[0] != "repro":
                        continue
                    imported = package_of(parts[1:])
                    if imported != importer \
                            and rank[imported] >= rank[importer]:
                        upward.append("%s:%d imports %s (%s is not below %s)"
                                      % (path.relative_to(REPO_ROOT),
                                         node.lineno, target, imported,
                                         importer))
        assert not upward, (
            "imports pointing up (or sideways in) the layer map:\n  "
            + "\n  ".join(upward)
        )

    def test_every_module_is_reached(self):
        # Walk the imports from the program's entry points — the
        # package, the CLI, every thesis figure and the e2e benchmark —
        # and check that the walk reaches every src/ module: a module
        # that only examples, ablations or tests import has no claim to
        # a place in src/ (ROADMAP aim 2).
        def module_file(dotted):
            path = SRC.parent.joinpath(*dotted.split("."))
            if (path / "__init__.py").is_file():
                return path / "__init__.py"
            if path.with_suffix(".py").is_file():
                return path.with_suffix(".py")
            return None

        def repro_imports(path):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    # `from repro.x import y` may name a submodule y.
                    yield node.module
                    for alias in node.names:
                        yield "%s.%s" % (node.module, alias.name)

        every = set()
        for path in SRC.rglob("*.py"):
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            every.add(".".join(parts[:-1] if parts[-1] == "__init__"
                               else parts))
        benchmarks = REPO_ROOT / "benchmarks"
        pending = [SRC / "__init__.py", SRC / "cli.py"]
        pending += sorted(benchmarks.glob("bench_fig_*.py"))
        pending += sorted((benchmarks / "e2e").glob("*.py"))
        reached = {"repro", "repro.cli"}
        while pending:
            for target in repro_imports(pending.pop()):
                parts = target.split(".")
                # Importing a module runs every enclosing package too.
                for end in range(1, len(parts) + 1):
                    dotted = ".".join(parts[:end])
                    path = module_file(dotted)
                    if path is not None and dotted not in reached:
                        reached.add(dotted)
                        pending.append(path)

        unreached = every - reached
        assert not unreached, (
            "src/ modules no figure, CLI verb or e2e workload imports: %s"
            % sorted(unreached)
        )

    def test_stats_sections_exist(self, architecture_md):
        # The walkthrough's stats() pointers must be real sections.
        from repro.service import RuleMiningService, ServiceConfig

        service = RuleMiningService(ServiceConfig(num_workers=1))
        try:
            stats = service.stats()
        finally:
            service.close()
        for section in re.findall(r'stats\(\)\["(\w+)"\]', architecture_md):
            assert section in stats, (
                "docs/ARCHITECTURE.md references stats()[%r], which "
                "service.stats() does not return" % section
            )

    def test_readme_layout_lists_every_package(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Layout", 1)[1]
        listed = set(re.findall(r"^\| `src/repro/(\w+)`", table, re.M))
        packages = {path.parent.name
                    for path in SRC.glob("*/__init__.py")}
        assert listed == packages, (
            "README.md's Layout table and src/repro/ disagree: "
            "unlisted %s, stale %s"
            % (sorted(packages - listed), sorted(listed - packages))
        )

    def test_readme_links_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in ("docs/ARCHITECTURE.md", "docs/protocol.md",
                     "docs/operations.md"):
            assert name in readme, "README.md does not link %s" % name
