"""datlint: every rule fires on a known-bad fixture and stays quiet on a
known-good one; suppression comments and the CLI (text/JSON, exit codes)
behave as documented."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.datlint import all_program_rules, all_rules, lint_file, lint_paths
from repro.devtools.datlint.cli import main
from repro.devtools.datlint.context import module_name_for
from repro.devtools.datlint.diagnostics import PARSE_ERROR_CODE


def lint_snippet(tmp_path: Path, source: str, relpath: str = "repro/mod.py"):
    """Write ``source`` at ``tmp_path/relpath`` and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    diagnostics, suppressed = lint_file(target)
    return diagnostics, suppressed


def codes(diagnostics) -> set[str]:
    return {d.rule for d in diagnostics}


# --------------------------------------------------------------------- #
# Rule catalogue sanity
# --------------------------------------------------------------------- #


def test_all_rules_registered():
    assert [r.code for r in all_rules()] == [
        "DAT001",
        "DAT002",
        "DAT003",
        "DAT004",
        "DAT005",
        "DAT006",
        "DAT007",
        "DAT008",
        "DAT009",
        "DAT014",
        "DAT015",
    ]
    assert [r.code for r in all_program_rules()] == [
        "DAT005",
        "DAT010",
        "DAT011",
        "DAT012",
    ]
    for rule in list(all_rules()) + list(all_program_rules()):
        assert rule.name and rule.rationale


def test_module_name_detection(tmp_path):
    assert module_name_for(Path("src/repro/chord/node.py")) == "repro.chord.node"
    assert module_name_for(Path("src/repro/util/__init__.py")) == "repro.util"
    outside = tmp_path / "scratch.py"
    assert module_name_for(outside) == "scratch"


# --------------------------------------------------------------------- #
# DAT001 — determinism
# --------------------------------------------------------------------- #


def test_dat001_flags_stdlib_random(tmp_path):
    diagnostics, _ = lint_snippet(tmp_path, "import random\n")
    assert codes(diagnostics) == {"DAT001"}


def test_dat001_flags_argless_and_global_rng(tmp_path):
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng()\n"
        "np.random.seed(3)\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT001"] * 2


def test_dat001_does_not_own_wall_clock_reads(tmp_path):
    # Wall-clock policing moved wholesale to DAT008 (one rule, one concern).
    diagnostics, _ = lint_snippet(tmp_path, "import time\nnow = time.time()\n")
    assert codes(diagnostics) == {"DAT008"}


def test_dat001_clean_on_seeded_rng(tmp_path):
    source = (
        "import numpy as np\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


def test_dat001_exempts_util_rng(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    diagnostics, _ = lint_snippet(tmp_path, source, relpath="repro/util/rng.py")
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT002 — id-space hygiene
# --------------------------------------------------------------------- #


def test_dat002_flags_raw_modulo_variants(tmp_path):
    source = (
        "def f(key, space, bits):\n"
        "    a = key % space.size\n"
        "    b = key % (2 ** bits)\n"
        "    c = key % (1 << bits)\n"
        "    d = (key + 1) % space.bits\n"
        "    return a, b, c, d\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT002"] * 4


def test_dat002_flags_max_id_mask(tmp_path):
    source = "def f(key, space):\n    return key & space.max_id\n"
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert codes(diagnostics) == {"DAT002"}


def test_dat002_clean_on_idspace_helpers_and_unrelated_modulo(tmp_path):
    source = (
        "def f(key, space, items, step):\n"
        "    w = space.wrap(key)\n"
        "    d = space.cw(w, key)\n"
        "    pick = items[key % len(items)]\n"
        "    phase = step % 7\n"
        "    return w, d, pick, phase\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


def test_dat002_exempt_in_idspace_module(tmp_path):
    source = "def wrap(value, size):\n    return value % size\n"
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/chord/idspace.py"
    )
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT003 — float equality
# --------------------------------------------------------------------- #


def test_dat003_flags_float_literal_and_cast(tmp_path):
    source = (
        "def f(x, y):\n"
        "    if x == 0.5:\n"
        "        return True\n"
        "    return float(x) != y\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT003"] * 2


def test_dat003_clean_on_isclose_and_integer_compare(tmp_path):
    source = (
        "import math\n"
        "def f(x, n):\n"
        "    return math.isclose(x, 0.5) or n == 0\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT004 — no print in library code
# --------------------------------------------------------------------- #


def test_dat004_flags_print_in_library(tmp_path):
    source = "def f():\n    print('debug')\n"
    diagnostics, _ = lint_snippet(tmp_path, source, relpath="repro/core/x.py")
    assert codes(diagnostics) == {"DAT004"}


def test_dat004_allows_cli_experiments_viz(tmp_path):
    source = "def f():\n    print('report')\n"
    for relpath in (
        "repro/experiments/fig7.py",
        "repro/viz.py",
        "repro/gma/cli.py",
        "repro/experiments/__main__.py",
    ):
        diagnostics, _ = lint_snippet(tmp_path, source, relpath=relpath)
        assert diagnostics == [], relpath


def test_dat004_flags_raw_stream_write(tmp_path):
    source = "import sys\ndef f():\n    sys.stdout.write('x')\n"
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert codes(diagnostics) == {"DAT004"}


# --------------------------------------------------------------------- #
# DAT005 — no blocking calls
# --------------------------------------------------------------------- #


def test_dat005_flags_sleep_and_socket(tmp_path):
    source = (
        "import time, socket\n"
        "def handler(sock):\n"
        "    time.sleep(1)\n"
        "    s = socket.socket()\n"
        "    sock.recv(1024)\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT005"] * 3


def test_dat005_exempts_realtime_transport(tmp_path):
    source = "import socket\ndef f(sock):\n    return sock.recvfrom(65536)\n"
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/sim/udprpc.py"
    )
    assert diagnostics == []


def test_dat005_clean_on_scheduled_events(tmp_path):
    source = "def f(transport, cb):\n    transport.schedule(1.5, cb)\n"
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT006 — mutable defaults
# --------------------------------------------------------------------- #


def test_dat006_flags_mutable_defaults(tmp_path):
    source = (
        "def f(a=[], b={}, *, c=set(), d=dict()):\n"
        "    return a, b, c, d\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT006"] * 4


def test_dat006_clean_on_none_default(tmp_path):
    source = (
        "def f(a=None, n=3, name='x'):\n"
        "    return list(a or []), n, name\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT007 — except hygiene
# --------------------------------------------------------------------- #


def test_dat007_flags_bare_and_swallowing_broad_except(tmp_path):
    source = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except:\n"
        "        pass\n"
        "def g():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT007"] * 2


def test_dat007_allows_narrow_catch_and_reraising_broad(tmp_path):
    source = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except ValueError:\n"
        "        return None\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as exc:\n"
        "        cleanup()\n"
        "        raise\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT008 — sim-clock discipline
# --------------------------------------------------------------------- #


def test_dat008_flags_the_whole_clock_family(tmp_path):
    source = (
        "import time\n"
        "import datetime\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
        "c = time.perf_counter()\n"
        "d = datetime.datetime.now()\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert [d.rule for d in diagnostics] == ["DAT008"] * 4


def test_dat008_flags_from_time_imports(tmp_path):
    diagnostics, _ = lint_snippet(
        tmp_path, "from time import monotonic\nnow = monotonic()\n"
    )
    assert [d.rule for d in diagnostics] == ["DAT008"]
    assert "smuggles" in diagnostics[0].message


def test_dat008_allows_virtual_clock_and_sleepless_time_use(tmp_path):
    source = (
        "def snapshot(transport):\n"
        "    return transport.now()\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


def test_dat008_line_suppression_marks_the_substrate_boundary(tmp_path):
    source = (
        "import time\n"
        "def now():\n"
        "    return time.monotonic()  # datlint: disable=DAT008\n"
    )
    diagnostics, suppressed = lint_snippet(tmp_path, source)
    assert diagnostics == []
    assert suppressed == 1


# --------------------------------------------------------------------- #
# DAT009 — raw transport RPC outside repro.net
# --------------------------------------------------------------------- #


def test_dat009_flags_raw_transport_call_and_expect(tmp_path):
    source = (
        "def probe(self, request, on_reply):\n"
        "    self.transport.call(request, on_reply)\n"
        "    self.host.transport.expect(request, on_reply)\n"
        "    transport.call(request, on_reply)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/chord/somefeature.py"
    )
    assert [d.rule for d in diagnostics] == ["DAT009"] * 3
    assert "RpcClient" in diagnostics[0].message


def test_dat009_allows_session_layer_and_substrates(tmp_path):
    source = "def go(self, m, cb):\n    self.transport.call(m, cb)\n"
    for relpath in ("repro/net/client.py", "repro/sim/transport.py"):
        diagnostics, _ = lint_snippet(tmp_path, source, relpath=relpath)
        assert diagnostics == []


def test_dat009_ignores_unrelated_call_methods(tmp_path):
    source = (
        "def fine(self, request, on_reply):\n"
        "    self.net.call(request, on_reply)\n"      # the sanctioned path
        "    self.transport.send(request)\n"          # fire-and-forget is fine
        "    self.mock.call(request)\n"               # not a transport
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/core/somefeature.py"
    )
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT014 — untraced multi-hop forwards
# --------------------------------------------------------------------- #


def test_dat014_flags_forward_without_context_threading(tmp_path):
    source = (
        "def _forward(self, message):\n"
        "    payload = message.payload\n"
        "    forward = Message(\n"
        "        kind='scan',\n"
        "        source=self.ident,\n"
        "        destination=nxt,\n"
        "        payload={**payload, 'hops': payload['hops'] + 1},\n"
        "    )\n"
        "    self.net.send(forward)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/maan/somefeature.py"
    )
    assert [d.rule for d in diagnostics] == ["DAT014"]
    assert "propagate" in diagnostics[0].message


def test_dat014_allows_forward_with_propagate(tmp_path):
    source = (
        "def _forward(self, message):\n"
        "    payload = message.payload\n"
        "    with telemetry.remote_span(message, 'scan_hop') as hop:\n"
        "        forward = Message(\n"
        "            kind='scan',\n"
        "            source=self.ident,\n"
        "            destination=nxt,\n"
        "            payload={**payload, 'hops': payload['hops'] + 1},\n"
        "        )\n"
        "        hop.propagate(forward)\n"
        "        self.net.send(forward)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/maan/somefeature.py"
    )
    assert diagnostics == []


def test_dat014_allows_hand_managed_trace_key(tmp_path):
    source = (
        "def _forward(self, message):\n"
        "    payload = dict(message.payload)\n"
        "    payload.pop('_trace', None)\n"
        "    fwd = Message(kind='scan', source=1, destination=2,\n"
        "                  payload={**payload, 'hops': 1})\n"
        "    self.net.send(fwd)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/chord/somefeature.py"
    )
    assert diagnostics == []


def test_dat014_ignores_fresh_payloads_and_other_layers(tmp_path):
    fresh = (
        "def _reply(self, message):\n"
        "    self.net.send(Message(kind='ok', source=1, destination=2,\n"
        "                          payload={'value': 3}))\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, fresh, relpath="repro/core/feature.py")
    assert diagnostics == []
    # Infrastructure layers carry contexts opaquely and are exempt.
    forward = (
        "def relay(self, message):\n"
        "    self.send(Message(kind='x', source=1, destination=2,\n"
        "                      payload={**message.payload}))\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, forward, relpath="repro/net/relay.py")
    assert diagnostics == []


# --------------------------------------------------------------------- #
# DAT015 — per-message allocation in batched hot paths
# --------------------------------------------------------------------- #


def test_dat015_flags_per_message_alloc_in_hot_loop(tmp_path):
    source = (
        "def send_batch(self, batch, deliver):\n"
        "    for i in range(len(batch)):\n"
        "        payload = {'value': batch.values[i]}\n"
        "        self._enqueue(Message(kind='push', source=1,\n"
        "                              destination=2, payload=payload))\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/sim/simnet.py"
    )
    assert [d.rule for d in diagnostics] == ["DAT015", "DAT015"]


def test_dat015_allows_per_batch_alloc_outside_loop(tmp_path):
    # One dict per *batch* is the intended shape; only per-row
    # allocation inside the loop is flagged.
    source = (
        "def send_batch(self, batch, deliver):\n"
        "    by_delay = {}\n"
        "    columns = {name: col.copy() for name, col in batch.columns()}\n"
        "    for i in range(len(batch)):\n"
        "        by_delay.setdefault(batch.delays[i], []).append(i)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/sim/simnet.py"
    )
    assert diagnostics == []


def test_dat015_ignores_non_hot_modules_and_functions(tmp_path):
    source = (
        "def send_batch(self, batch, deliver):\n"
        "    for i in range(len(batch)):\n"
        "        payload = {'value': i}\n"
    )
    # Same code outside the hot-module map is someone else's slow path.
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/chord/node.py"
    )
    assert diagnostics == []
    # A non-hot function in a hot module is also exempt.
    slow = (
        "def debug_dump(self, batch):\n"
        "    for i in range(len(batch)):\n"
        "        self.rows.append({'value': i})\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, slow, relpath="repro/sim/simnet.py")
    assert diagnostics == []


def test_dat015_ignores_deferred_bodies(tmp_path):
    # Lambdas and nested defs run on the slow path (lazy
    # materialization), not per delivered message.
    source = (
        "def _deliver_batch(self, batch):\n"
        "    for i in range(len(batch)):\n"
        "        thunk = lambda i=i: {'value': batch.values[i]}\n"
        "        self._lazy.append(thunk)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/sim/simnet.py"
    )
    assert diagnostics == []


def test_dat015_flags_iteration_over_unpacked_columns(tmp_path):
    # No dict in sight, still one interpreter round trip per message.
    source = (
        "def record_send_bulk(self, nodes, sizes):\n"
        "    for node, size in zip(nodes.tolist(), sizes.tolist()):\n"
        "        self._sent[node] += size\n"
        "    for i, node in enumerate(nodes[1:].tolist()):\n"
        "        self._seen.add(node)\n"
        "    return [abs(v) for v in sizes.tolist()]\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/telemetry/hotspot.py"
    )
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("DAT015", 2),
        ("DAT015", 4),
        ("DAT015", 6),
    ]
    assert all("tolist" in d.message for d in diagnostics)


def test_dat015_flags_fromiter_over_generator(tmp_path):
    source = (
        "import numpy as np\n"
        "def float_repr_lengths(values):\n"
        "    floats = values.tolist()\n"
        "    return np.fromiter((len(repr(v)) for v in floats), dtype=np.int64)\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/sim/messages.py"
    )
    assert [(d.rule, d.line) for d in diagnostics] == [("DAT015", 4)]
    assert "fromiter" in diagnostics[0].message


def test_dat015_allows_array_passes_and_short_table_loops(tmp_path):
    # tolist() as a value, fromiter over a real iterable, and a loop over a
    # fixed-size table are all per-batch work.
    source = (
        "import numpy as np\n"
        "def _digit_counts(magnitudes, powers):\n"
        "    digits = np.ones(magnitudes.shape, dtype=np.int64)\n"
        "    for power in powers[:3]:\n"
        "        digits += magnitudes >= power\n"
        "    ids = np.fromiter(self._failed, dtype=np.int64)\n"
        "    return digits, ids, magnitudes[:2].tolist()\n"
    )
    diagnostics, _ = lint_snippet(
        tmp_path, source, relpath="repro/sim/messages.py"
    )
    assert diagnostics == []


def test_dat015_exact_fallback_carries_a_line_suppression(tmp_path):
    source = (
        "def float_repr_lengths(arr, residual, lengths):\n"
        "    lengths[residual] = [\n"
        "        len(repr(v)) for v in arr[residual].tolist()"
        "  # datlint: disable=DAT015\n"
        "    ]\n"
    )
    diagnostics, suppressed = lint_snippet(
        tmp_path, source, relpath="repro/sim/messages.py"
    )
    assert diagnostics == [] and suppressed == 1


# --------------------------------------------------------------------- #
# Suppression comments
# --------------------------------------------------------------------- #


def test_line_level_suppression_only_silences_that_line(tmp_path):
    source = (
        "def f():\n"
        "    print('one')  # datlint: disable=DAT004\n"
        "    print('two')\n"
    )
    diagnostics, suppressed = lint_snippet(tmp_path, source)
    assert suppressed == 1
    assert [d.rule for d in diagnostics] == ["DAT004"]
    assert diagnostics[0].line == 3


def test_file_level_suppression_silences_whole_file(tmp_path):
    source = (
        "# datlint: disable=DAT004\n"
        "def f():\n"
        "    print('one')\n"
        "    print('two')\n"
    )
    diagnostics, suppressed = lint_snippet(tmp_path, source)
    assert diagnostics == []
    assert suppressed == 2


def test_file_level_suppression_is_rule_specific(tmp_path):
    source = (
        "# datlint: disable=DAT004\n"
        "import random\n"
        "def f():\n"
        "    print('one')\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert codes(diagnostics) == {"DAT001"}


def test_disable_all_on_a_line(tmp_path):
    source = (
        "def f():\n"
        "    print(random_thing := 1)  # datlint: disable=all\n"
    )
    diagnostics, _ = lint_snippet(tmp_path, source)
    assert diagnostics == []


# --------------------------------------------------------------------- #
# Parse failures
# --------------------------------------------------------------------- #


def test_unparsable_file_yields_dat000(tmp_path):
    diagnostics, _ = lint_snippet(tmp_path, "def broken(:\n")
    assert [d.rule for d in diagnostics] == [PARSE_ERROR_CODE]


# --------------------------------------------------------------------- #
# Runner + CLI
# --------------------------------------------------------------------- #


def write_tree(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "bad.py").write_text("import random\n")
    (root / "pkg" / "good.py").write_text("VALUE = 1\n")
    return root


def test_lint_paths_walks_directories(tmp_path):
    report = lint_paths([write_tree(tmp_path)])
    assert report.files_checked == 2
    assert codes(report.diagnostics) == {"DAT001"}
    assert report.exit_code == 1


def test_cli_text_output_and_exit_code(tmp_path, capsys):
    root = write_tree(tmp_path)
    assert main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "DAT001" in out and "bad.py" in out

    assert main([str(root / "pkg" / "good.py")]) == 0


def test_cli_json_output(tmp_path, capsys):
    root = write_tree(tmp_path)
    assert main([str(root), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 2
    assert payload["suppressed"] == 0
    (finding,) = payload["diagnostics"]
    assert finding["rule"] == "DAT001"
    assert finding["path"].endswith("bad.py")
    assert finding["line"] == 1
    assert set(finding) == {"path", "line", "col", "rule", "message"}


def test_cli_select_and_ignore(tmp_path):
    root = write_tree(tmp_path)
    assert main([str(root), "--select=DAT004"]) == 0
    assert main([str(root), "--ignore=DAT001"]) == 0
    assert main([str(root), "--select=DAT001"]) == 1


def test_cli_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path), "--select=DAT999"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path / "no_such_dir")])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DAT001", "DAT007"):
        assert code in out


def test_repo_source_tree_is_clean():
    """The shipped tree must lint clean (the CI gate, run in-process)."""
    src = Path(__file__).resolve().parents[2] / "src"
    report = lint_paths([src])
    assert report.exit_code == 0, [d.format() for d in report.diagnostics]
