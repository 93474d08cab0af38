"""CLI behavior: output grammar, exit codes, file round-trips, start-up."""

import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from isopath import (
    Cover,
    PartiteSpec,
    base_covers,
    cli,
    construct,
    format_graph,
    make_augmented_multipartite,
    solver,
)
from isopath.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormula:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("formula", "--multipartite", "3,3,2"), "ip=3 case=BALANCED\n"),
            (("formula", "--hamming", "2,2,5"), "ip=6 case=HAMMING3_EXCEPTIONAL\n"),
            (("formula", "--hamming", "4,4,4"), "ip=16 case=HAMMING3_MAIN\n"),
            (("formula", "--hamming", "3,3"), "ip=3 case=HAMMING2\n"),
            (("formula", "--multipartite", "5,1"), "ip=3 case=DOMINANT_PART\n"),
        ],
    )
    def test_golden_output(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_malformed_spec_exits_1(self, capsys):
        code, _, err = run(capsys, "formula", "--multipartite", "3,x")
        assert code == 1
        assert "error:" in err

    def test_empty_size_list_is_malformed(self, capsys):
        code, out, err = run(capsys, "formula", "--multipartite", "")
        assert code == 1
        assert out == ""
        assert err == "error: malformed size list ''\n"

    def test_wrong_factor_count_exits_1(self, capsys):
        code, _, _ = run(capsys, "formula", "--hamming", "2,2,2,2")
        assert code == 1

    @pytest.mark.parametrize("command", ["formula", "construct"])
    def test_a_small_factor_gives_the_spec_error(self, capsys, command):
        # the formula checks its factors by the same rule as construct and gen
        code, out, err = run(capsys, command, "--hamming", "1,3")
        assert code == 1
        assert out == ""
        assert err == "error: factors must be at least 2: (1, 3)\n"


class TestGen:
    def test_round_trip_byte_identical(self, capsys, tmp_path):
        out_file = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "--hamming", "2,3", "-o", str(out_file))
        assert code == 0
        first = out_file.read_bytes()
        code, out, _ = run(capsys, "gen", "--hamming", "2,3")
        assert out.encode() == first

    def test_golden_k2(self, capsys):
        code, out, _ = run(capsys, "gen", "--multipartite", "1,1")
        assert code == 0
        assert out == "p 2 1\ne 0 1\n"

    def test_augmented(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--augmented", "4,2", "--pairs", "0-1,2-3;0-1"
        )
        assert code == 0
        assert out.startswith("p 6 12\n")

    def test_augmented_single_part(self, capsys):
        # K4 minus the matching 01, 23 is the 4-cycle 0-2-1-3
        code, out, _ = run(capsys, "gen", "--augmented", "4", "--pairs", "0-1,2-3")
        assert code == 0
        assert out == "p 4 4\ne 0 2\ne 0 3\ne 1 2\ne 1 3\n"

    def test_augmented_single_part_of_two_exits_1(self, capsys):
        code, out, err = run(capsys, "gen", "--augmented", "2", "--pairs", "0-1")
        assert code == 1
        assert out == ""
        assert err == "error: a single part of size >= 2 yields a disconnected (edgeless) graph\n"

    def test_pairs_groups_follow_the_given_part_order(self, capsys):
        code, smaller_first, _ = run(
            capsys, "gen", "--augmented", "2,4", "--pairs", "0-1;0-1,2-3"
        )
        assert code == 0
        code, larger_first, _ = run(
            capsys, "gen", "--augmented", "4,2", "--pairs", "0-1,2-3;0-1"
        )
        assert code == 0
        assert smaller_first == larger_first

    def test_pairs_groups_of_equal_parts_keep_their_order(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--augmented", "4,2,4", "--pairs", "0-1,2-3;0-1;0-2,1-3"
        )
        assert code == 0
        pairings = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 1)]]
        assert out == format_graph(
            make_augmented_multipartite(PartiteSpec((4, 4, 2)), pairings)
        )
        code, swapped, _ = run(
            capsys, "gen", "--augmented", "4,2,4", "--pairs", "0-2,1-3;0-1;0-1,2-3"
        )
        assert code == 0
        assert swapped != out

    def test_augmented_without_pairs_exits_1(self, capsys):
        code, _, _ = run(capsys, "gen", "--augmented", "4,2")
        assert code == 1

    def test_pairs_without_augmented_exits_1(self, capsys):
        code, out, err = run(capsys, "gen", "--hamming", "2,2", "--pairs", "0-1")
        assert code == 1
        assert out == ""
        assert err == "error: --pairs requires --augmented\n"

    def test_bad_pairs_exits_1(self, capsys):
        code, _, _ = run(capsys, "gen", "--augmented", "4,2", "--pairs", "0-1;0-1")
        assert code == 1

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ("0-1", "--pairs needs 2 ';'-separated groups (one per part), got 1"),
            ("0+1,2-3;0-1", "malformed pair '0+1' (want a-b)"),
            ("a-1,2-3;0-1", "malformed pair 'a-1'"),
        ],
    )
    def test_malformed_pairs_exit_1(self, capsys, pairs, message):
        code, out, err = run(capsys, "gen", "--augmented", "4,2", "--pairs", pairs)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_over_the_edge_cap_exits_1(self, capsys):
        code, out, err = run(capsys, "gen", "--multipartite", "40000,10000")
        assert code == 1
        assert out == ""
        assert err == (
            "error: 50000 vertices and 400000000 edges exceed the cap of 1000000\n"
        )

    def test_dot_export(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "gen", "--hamming", "2,2", "-o", str(tmp_path / "g.txt"),
            "--dot", str(dot),
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph") and text.rstrip().endswith("}")

    @pytest.mark.parametrize(
        "spec,labels,edges",
        [
            (
                ["--hamming", "2,3"],
                ["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)"],
                "0 1,0 2,0 3,1 2,1 4,2 5,3 4,3 5,4 5",
            ),
            (
                ["--multipartite", "1,2,1"],
                ["0:0", "0:1", "1:0", "2:0"],
                "0 2,0 3,1 2,1 3,2 3",
            ),
            # the part of 3 is numbered first and loses its pair 1-2
            (
                ["--augmented", "2,3", "--pairs", "0-1;1-2"],
                ["0:0", "0:1", "0:2", "1:0", "1:1"],
                "0 1,0 2,0 3,0 4,1 3,1 4,2 3,2 4",
            ),
        ],
        ids=["hamming", "multipartite", "augmented"],
    )
    def test_dot_text_is_pinned(self, capsys, tmp_path, spec, labels, edges):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "gen", *spec, "-o", str(tmp_path / "g.txt"), "--dot", str(dot))
        assert code == 0
        want = ["graph g {"]
        want += [f'  {v} [label="{label}"];' for v, label in enumerate(labels)]
        want += [f"  {e.replace(' ', ' -- ')};" for e in edges.split(",")]
        assert dot.read_bytes() == ("\n".join(want) + "\n}\n").encode("ascii")


class TestConstructVerify:
    @pytest.mark.parametrize(
        "family,spec",
        [
            ("--hamming", "2,2,2"),
            ("--hamming", "3,3,4"),
            ("--hamming", "5,4"),
            ("--multipartite", "3,3,2"),
            ("--multipartite", "5,1"),
        ],
    )
    def test_construct_then_verify_exits_0(self, capsys, tmp_path, family, spec):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        code, _, _ = run(capsys, "gen", family, spec, "-o", str(g))
        assert code == 0
        code, out, _ = run(capsys, "construct", family, spec, "-o", str(c))
        assert code == 0
        assert out.startswith("size=")
        code, out, _ = run(capsys, "verify", "-g", str(g), "-c", str(c))
        assert code == 0
        assert out.splitlines()[0].startswith("valid=true")

    def test_construct_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "--hamming", "2,2")
        assert code == 0
        assert out == "0 1\n2 3\n"

    def test_verify_reports_invalid_with_exit_2(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        run(capsys, "gen", "--hamming", "2,2,2", "-o", str(g))
        c.write_text("0 1\n", encoding="ascii")
        code, out, _ = run(capsys, "verify", "-g", str(g), "-c", str(c))
        assert code == 2
        assert out.splitlines()[0].startswith("valid=false")
        assert "uncovered_vertices=" in out

    def test_verify_golden_path_lines(self, capsys, tmp_path):
        # on the 3-cube (vertex 4a + 2b + c): 0 1 3 2 is a walk but not
        # isometric, 0 3 is no walk, 8 is out of range, 4 5 7 is fine
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        run(capsys, "gen", "--hamming", "2,2,2", "-o", str(g))
        c.write_text("# defects\n0 1 3 2\n\n0 3\n4 8\n4 5 7\n", encoding="ascii")
        code, out, _ = run(capsys, "verify", "-g", str(g), "-c", str(c))
        assert code == 2
        assert out == (
            "valid=false size=4 uncovered=1 overlap=3\n"
            "uncovered_vertices=6\n"
            "path=0 simple=true walk=true isometric=false\n"
            "path=1 simple=true walk=false isometric=false\n"
            "path=2 simple=true walk=false isometric=false\n"
        )

    def test_verify_strict_mode(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        run(capsys, "gen", "--hamming", "2,2,2", "-o", str(g))
        run(capsys, "construct", "--hamming", "2,2,2", "-o", str(c))
        code, out, _ = run(capsys, "verify", "-g", str(g), "-c", str(c), "--strict")
        assert code == 2  # 4-vertex paths are not normal form
        assert "normal_form=false" in out

    def test_verify_dot_export(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        dot = tmp_path / "c.dot"
        run(capsys, "gen", "--hamming", "2,2", "-o", str(g))
        run(capsys, "construct", "--hamming", "2,2", "-o", str(c))
        code, _, _ = run(capsys, "verify", "-g", str(g), "-c", str(c), "--dot", str(dot))
        assert code == 0
        # a parsed graph carries no labels: each vertex is named by its index
        assert dot.read_bytes() == (
            b"graph cover {\n"
            b'  0 [label="0", color="red", style=bold];\n'
            b'  1 [label="1", color="red", style=bold];\n'
            b'  2 [label="2", color="blue", style=bold];\n'
            b'  3 [label="3", color="blue", style=bold];\n'
            b'  0 -- 1 [color="red", penwidth=2];\n'
            b"  0 -- 2;\n"
            b"  1 -- 3;\n"
            b'  2 -- 3 [color="blue", penwidth=2];\n'
            b"}\n"
        )

    def test_escaped_exception_exits_3_on_one_line(self, capsys, monkeypatch):
        def overflow(*factors):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cover_hamming2", overflow)
        code, out, err = run(capsys, "construct", "--hamming", "2,3")
        assert code == 3
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    def test_a_missing_base_cover_is_an_internal_error(self, capsys, monkeypatch):
        # no input selects a key the table lacks, so a lost entry means a
        # damaged package, not invalid input
        table = dict(base_covers.base_cover_table())
        del table[("hamming3", (2, 2, 2))]
        monkeypatch.setattr(base_covers, "_TABLE", table)
        code, out, err = run(capsys, "construct", "--hamming", "2,2,2")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: UnknownCoverKeyError")

    @pytest.mark.parametrize(
        "entry,paths,argv,message",
        [
            (("hamming2", (2, 2)), [(0, 1), (0, 1)], ("--hamming", "2,2"),
             "constructed cover failed verification"),
            (("hamming2", (2, 2)), [(0, 1), (2, 3), (0, 2)], ("--hamming", "2,2"),
             "built 3 paths for K_2 x K_2, formula says 2"),
            # two simple 3-edge walks that change the first coordinate twice:
            # the right size, but not shortest paths of the cube
            (("hamming3", (2, 2, 2)), [(0, 4, 6, 2), (1, 5, 7, 3)], ("--hamming", "2,2,2"),
             "constructed cover failed verification"),
        ],
    )
    def test_a_damaged_base_cover_is_an_internal_error(
        self, capsys, monkeypatch, entry, paths, argv, message
    ):
        # a base cover of the wrong size, or one that fails verification,
        # is caught by the constructor's count or by the CLI's verify
        table = dict(base_covers.base_cover_table())
        table[entry] = Cover(paths)
        monkeypatch.setattr(base_covers, "_TABLE", table)
        code, out, err = run(capsys, "construct", *argv)
        assert code == 3
        assert out == ""
        assert err == f"internal error: {message}\n"

    def test_a_damaged_complete_base_is_an_internal_error(self, capsys, monkeypatch):
        # the multipartite constructor has no table; its one base, made to
        # emit a path too many, is caught by the constructor's count
        def one_path_too_many(verts, paths):
            emit(verts, paths)
            paths.append(paths[-1])

        emit = construct._emit_complete_base
        monkeypatch.setattr(construct, "_emit_complete_base", one_path_too_many)
        code, out, err = run(capsys, "construct", "--multipartite", "3,1,1")
        assert code == 3
        assert out == ""
        assert err == "internal error: built 3 paths for sizes (3, 1, 1), formula says 2\n"

    def test_construct_one_hamming_factor_exits_1(self, capsys):
        code, out, err = run(capsys, "construct", "--hamming", "5")
        assert code == 1
        assert out == ""
        assert err == "error: --hamming takes 2 or 3 factors\n"

    def test_construct_over_the_edge_cap_exits_1(self, capsys):
        # 6200 vertices, 9,610,000 edges: rejected before the graph is built
        code, out, err = run(capsys, "construct", "--hamming", "2,3100")
        assert code == 1
        assert out == ""
        assert err == "error: 6200 vertices and 9610000 edges exceed the cap of 1000000\n"

    def test_construct_just_under_the_edge_cap_exits_0(self, capsys, tmp_path):
        # 10,000 vertices, 990,000 edges: the cover is verified against
        # adjacency worked out from the spec, not a list of edges
        out_file = tmp_path / "h.cover"
        code, out, _ = run(capsys, "construct", "--hamming", "100,100", "-o", str(out_file))
        assert code == 0
        assert out == "size=3334\n"

    def test_verify_over_the_edge_cap_exits_1(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        g.write_text("p 2000000000 0\n", encoding="ascii")
        c.write_text("0\n", encoding="ascii")
        code, out, err = run(capsys, "verify", "-g", str(g), "-c", str(c))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "-g", str(tmp_path / "nope.txt"), "-c", str(tmp_path / "c")
        )
        assert code == 1
        assert "error:" in err

    def test_non_ascii_graph_byte_exits_1(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_bytes(b"p 2 1\ne 0 1 \xc3\xa9\n")
        code, out, err = run(capsys, "solve", "-g", str(g))
        assert code == 1
        assert out == ""
        assert err == f"error: {g}: byte 0xc3 at offset 12 is not ASCII\n"

    def test_non_ascii_cover_byte_exits_1(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        g.write_bytes(b"p 2 1\r\ne 0 1\r\n")
        # offsets count each CR LF as two bytes
        c.write_bytes(b"0\r\n\r\n1 \xff\n")
        code, out, err = run(capsys, "verify", "-g", str(g), "-c", str(c))
        assert code == 1
        assert out == ""
        assert err == f"error: {c}: byte 0xff at offset 7 is not ASCII\n"


class TestSolve:
    def test_golden_k21(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        run(capsys, "gen", "--multipartite", "2,1", "-o", str(g))
        code, out, _ = run(capsys, "solve", "-g", str(g))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "size=1"
        assert lines[1].startswith("nodes=")
        assert lines[2] == "proven=true"

    def test_cover_written_and_valid(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        c = tmp_path / "solved.cover"
        run(capsys, "gen", "--hamming", "2,2,3", "-o", str(g))
        code, out, _ = run(capsys, "solve", "-g", str(g), "-o", str(c))
        assert code == 0
        assert out.splitlines()[0] == "size=4"
        code, out, _ = run(capsys, "verify", "-g", str(g), "-c", str(c))
        assert code == 0

    def test_budget_exhaustion_exits_2(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        run(capsys, "gen", "--hamming", "2,2,3", "-o", str(g))
        code, out, _ = run(capsys, "solve", "-g", str(g), "--budget", "3")
        assert code == 2
        assert "proven=false" in out

    def test_solve_is_deterministic(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        run(capsys, "gen", "--multipartite", "3,2", "-o", str(g))
        _, first, _ = run(capsys, "solve", "-g", str(g))
        _, second, _ = run(capsys, "solve", "-g", str(g))
        assert first == second


class TestPaths:
    def test_count_only(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        run(capsys, "gen", "--multipartite", "2,1", "-o", str(g))
        code, out, _ = run(capsys, "paths", "-g", str(g), "--count-only")
        assert code == 0
        assert out == "count=6\n"

    def test_listing_matches_pool_order(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        run(capsys, "gen", "--multipartite", "2,1", "-o", str(g))
        code, out, _ = run(capsys, "paths", "-g", str(g))
        assert code == 0
        assert out == "0\n0 2\n0 2 1\n1\n1 2\n2\n"


class TestPoolInputs:
    """solve and paths on graphs the path pool is not built for: exit 1 with
    one error line, never a traceback or an internal error."""

    # 1,200 vertices, 1,199 edges: one path for each of the 719,400 pairs
    # stores about n^3/6 = 2.9x10^8 vertices, far past the pool cap
    PATH_1200 = "p 1200 1199\n" + "".join(f"e {v} {v + 1}\n" for v in range(1199))

    COMMANDS = [("paths", "--count-only"), ("solve",)]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_long_path_graph_exits_1(self, capsys, tmp_path, command):
        g = tmp_path / "g.txt"
        g.write_text(self.PATH_1200, encoding="ascii")
        code, out, err = run(capsys, command[0], "-g", str(g), *command[1:])
        assert code == 1
        assert out == ""
        assert err == "error: isometric path pool exceeds cap of 10000000 vertices\n"

    # n > isqrt(POOL_CAP) = 3,162 is rejected from n alone, before the n^2
    # distances (80 MB of list slots at n = 3,163, 80 GB at n = 10^5); what
    # is left is the parse, about 35 MB at n = 10^5
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("n, peak_mb", [(3_163, 8), (100_000, 64)])
    def test_a_graph_past_the_root_of_the_cap_exits_1_before_its_distances(
        self, capsys, tmp_path, command, n, peak_mb
    ):
        g = tmp_path / "g.txt"
        g.write_text(
            f"p {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)),
            encoding="ascii",
        )
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command[0], "-g", str(g), *command[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == "error: isometric path pool exceeds cap of 10000000 vertices\n"
        assert peak < peak_mb * 10**6

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "text", ["p 3 1\ne 0 1\n", "p 0 0\n"], ids=["disconnected", "empty"]
    )
    def test_disconnected_or_empty_graph_exits_1(self, capsys, tmp_path, command, text):
        g = tmp_path / "g.txt"
        g.write_text(text, encoding="ascii")
        code, out, err = run(capsys, command[0], "-g", str(g), *command[1:])
        assert code == 1
        assert out == ""
        assert err == "error: path enumeration needs a non-empty connected graph\n"


class TestSelftest:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "selftest: 30/30 ok"
        assert lines == sorted(lines[:-1]) + [lines[-1]]
        assert all(" ok" in line for line in lines[:-1])

    def test_unproven_solve_is_not_agreement(self, capsys, monkeypatch):
        # at a budget of 0 every solve returns the greedy incumbent, which
        # on these small graphs often has the formula's size
        monkeypatch.setattr(solver, "DEFAULT_NODE_BUDGET", 0)
        code, out, _ = run(capsys, "selftest", "--max-n", "5")
        assert code == 2
        lines = out.splitlines()
        assert lines[-1] == "selftest: 0/30 FAIL"
        assert all(line.endswith(" UNPROVEN") for line in lines[:-1])
        assert "multipartite 1,1 formula=1 solver=1 UNPROVEN" in lines


class TestUsageErrors:
    def error_lines(self, err):
        return [line for line in err.splitlines() if "error:" in line]

    @pytest.mark.parametrize("budget", ["abc", "-1"])
    def test_bad_budget_exits_1(self, capsys, tmp_path, budget):
        g = tmp_path / "g.txt"
        g.write_text("p 2 1\ne 0 1\n", encoding="ascii")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-g", str(g), "--budget", budget])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.error_lines(captured.err) == [
            "isopath solve: error: argument --budget: "
            f"need a non-negative integer, got {budget!r}"
        ]

    @pytest.mark.parametrize("max_n", ["15", "80", "x"])
    def test_selftest_past_its_cap_exits_1_at_once(self, capsys, max_n):
        # the sweep builds every partition up to --max-n before solving:
        # 123 million of them at 80
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--max-n", max_n])
        assert time.perf_counter() - start < 5
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: isopath selftest")
        assert self.error_lines(captured.err) == [
            "isopath selftest: error: argument --max-n: "
            f"need an integer of at most {cli.SELFTEST_MAX_N}, got {max_n!r}"
        ]

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_selftest_below_2_exits_1(self, capsys, max_n):
        # below 2 the multipartite sweep is empty and only Hamming rows ran
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--max-n", max_n])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: isopath selftest")
        assert self.error_lines(captured.err) == [
            "isopath selftest: error: argument --max-n: "
            f"need an integer of at least 2, got {max_n!r}"
        ]

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1
        assert len(self.error_lines(capsys.readouterr().err)) == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: isopath solve")


class TestParserReuse:
    """main() keeps one parser per process; no call may see another's state."""

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--multipartite"])
        assert exc.value.code == 1
        capsys.readouterr()
        code, out, err = run(capsys, "formula", "--multipartite", "3,3,2")
        assert (code, out, err) == (0, "ip=3 case=BALANCED\n", "")

    def test_exclusive_options_reset_between_calls(self, capsys, tmp_path):
        c = str(tmp_path / "c.cover")
        code, out, err = run(capsys, "construct", "--hamming", "3,3", "-o", c)
        assert (code, out, err) == (0, "size=3\n", "")
        code, out, err = run(capsys, "construct", "--multipartite", "3,3,2", "-o", c)
        assert (code, out, err) == (0, "size=3\n", "")

    def test_budget_does_not_carry_over(self, capsys, tmp_path, monkeypatch):
        g = tmp_path / "g.txt"
        run(capsys, "gen", "--hamming", "2,2,3", "-o", str(g))
        budgets = []

        def recording_solve(graph, budget=None):
            budgets.append(budget)
            return solver.solve_min_cover(graph, budget)

        monkeypatch.setattr(cli, "solve_min_cover", recording_solve)
        code, out, _ = run(capsys, "solve", "-g", str(g), "--budget", "0")
        assert code == 2
        assert out.splitlines()[-1] == "proven=false"
        code, out, _ = run(capsys, "solve", "-g", str(g))
        assert code == 0
        assert out.splitlines()[-1] == "proven=true"
        # None makes solve_min_cover use DEFAULT_NODE_BUDGET
        assert budgets == [0, None]

    def test_help_is_byte_identical_twice(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--help"])
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("usage: isopath solve")
        assert outs[0] == outs[1]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


USAGE = "usage: isopath [-h] {gen,formula,construct,verify,solve,paths,selftest} ...\n"
SOLVE_USAGE = "usage: isopath solve [-h] -g GRAPH [--budget BUDGET] [-o OUTPUT]\n"
SOLVE_NEEDS_GRAPH = "isopath solve: error: the following arguments are required: -g/--graph\n"


class TestUsagePaths:
    """An argv with no command, an unknown one, a missing option or a word
    left over: exit code, stdout and stderr pinned byte for byte."""

    @pytest.fixture(autouse=True)
    def terminal_width(self, monkeypatch):
        # argparse wraps its help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ([], (1, "", USAGE + "isopath: error: the following arguments are required: command\n")),
            (["-h"], (0, USAGE + (
                "\n"
                "Isometric path covers: formulas, constructions, exact solving, verification.\n"
                "\n"
                "positional arguments:\n"
                "  {gen,formula,construct,verify,solve,paths,selftest}\n"
                "    gen                 generate a family graph in the graph text format\n"
                "    formula             print the closed-form isometric path number\n"
                "    construct           build an optimal cover and verify it\n"
                "    verify              verify a cover file against a graph file\n"
                "    solve               exact minimum cover by branch and bound\n"
                "    paths               enumerate the isometric path pool\n"
                "    selftest            formula-vs-solver sweep on small instances\n"
                "\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n"
            ), "")),
            (["bogus"], (1, "", USAGE + (
                "isopath: error: argument command: invalid choice: 'bogus' (choose from "
                "'gen', 'formula', 'construct', 'verify', 'solve', 'paths', 'selftest')\n"
            ))),
            (["solve"], (1, "", SOLVE_USAGE + SOLVE_NEEDS_GRAPH)),
            (["solve", "-g", "g.txt", "--bogus"],
             (1, "", USAGE + "isopath: error: unrecognized arguments: --bogus\n")),
            (["construct", "--hamming", "3,3", "extra"],
             (1, "", USAGE + "isopath: error: unrecognized arguments: extra\n")),
        ],
        ids=["empty", "help", "unknown", "missing-graph", "unknown-option", "extra-word"],
    )
    def test_pinned(self, capsys, argv, expected):
        assert outcome(capsys, argv) == expected

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["formula", "--hamming", "3,3"], (0, "ip=3 case=HAMMING2\n", "")),
            (["solve"], (1, "", SOLVE_USAGE + SOLVE_NEEDS_GRAPH)),
        ],
        ids=["formula", "missing-graph"],
    )
    def test_console_script_reads_sys_argv(self, capsys, monkeypatch, argv, expected):
        # the [project.scripts] entry point calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["isopath", *argv])
        assert outcome(capsys, None) == expected


# the 3-cube (vertex 4a + 2b + c), with a comment and a blank line
CUBE = (
    b"c the 3-cube\np 8 12\n"
    b"e 0 1\ne 0 2\ne 0 4\ne 1 3\ne 1 5\ne 2 3\n\n"
    b"e 2 6\ne 3 7\ne 4 5\ne 4 6\ne 5 7\ne 6 7\n"
)
CUBE_COVERS = {
    "valid": b"# two diametral paths\n0 1 3 7\n\n2 6 4 5\n",
    "defects": b"# defects\n0 1 3 2\n\n0 3\n4 8\n4 5 7\n",
}


class TestFileIO:
    """Graph and cover files are read whatever their line ends, and a
    written file holds exactly the new bytes."""

    def files(self, tmp_path, cover, newline):
        g = tmp_path / "g.txt"
        c = tmp_path / "c.cover"
        g.write_bytes(CUBE.replace(b"\n", newline))
        c.write_bytes(CUBE_COVERS[cover].replace(b"\n", newline))
        return str(g), str(c)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("cover", sorted(CUBE_COVERS))
    @pytest.mark.parametrize("command", ["verify", "solve", "paths"])
    def test_line_ends_give_the_lf_outcome(self, capsys, tmp_path, command, cover, newline):
        outcomes = []
        for ending in (b"\n", newline):
            g, c = self.files(tmp_path, cover, ending)
            argv = {
                "verify": ["verify", "-g", g, "-c", c],
                "solve": ["solve", "-g", g],
                "paths": ["paths", "-g", g],
            }[command]
            outcomes.append(outcome(capsys, argv))
        lf, twin = outcomes
        assert lf[0] == (2 if command == "verify" and cover == "defects" else 0)
        assert lf[2] == ""
        assert twin == lf

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_a_bad_edge_reports_its_line(self, capsys, tmp_path, newline):
        g = tmp_path / "g.txt"
        g.write_bytes(b"p 3 2\ne 0 1\ne 1 x\n".replace(b"\n", newline))
        assert outcome(capsys, ["solve", "-g", str(g)]) == (1, "", "error: line 3: bad edge line\n")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["construct", "--hamming", "2,2"], b"0 1\n2 3\n"),
            (["gen", "--multipartite", "2,1"], b"p 3 2\ne 0 2\ne 1 2\n"),
        ],
        ids=["construct", "gen"],
    )
    def test_output_replaces_a_longer_file(self, capsys, tmp_path, argv, expected):
        out = tmp_path / "out"
        out.write_bytes(b"x" * 10_000 + b"\n")
        code, _, err = outcome(capsys, [*argv, "-o", str(out)])
        assert (code, err) == (0, "")
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("command", ["construct", "gen"])
    def test_output_into_a_missing_directory_exits_1(self, capsys, tmp_path, command):
        out = str(tmp_path / "missing" / "c.cover")
        assert outcome(capsys, [command, "--hamming", "2,2", "-o", out]) == (
            1, "", f"error: [Errno 2] No such file or directory: {out!r}\n"
        )

    @pytest.mark.parametrize("command", ["construct", "gen"])
    def test_output_onto_a_directory_exits_1(self, capsys, tmp_path, command):
        out = str(tmp_path)
        assert outcome(capsys, [command, "--hamming", "2,2", "-o", out]) == (
            1, "", f"error: [Errno 21] Is a directory: {out!r}\n"
        )


PARSER_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import isopath.cli
print(isopath.cli._parser.cache_info().currsize)
for argv in (["formula", "--hamming", "3,3"], ["formula", "--multipartite", "5,1"],
             ["construct", "--hamming", "2,2"]):
    isopath.cli.main(argv)
print(isopath.cli._parser.cache_info().misses)
"""


def test_parser_is_built_once_on_the_first_call():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PARSER_PROBE, src],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    lines = proc.stdout.splitlines()
    # nothing built at import; one build for three calls
    assert lines[0] == "0"
    assert lines[-1] == "1"
    assert lines[1:-1] == [
        "ip=3 case=HAMMING2", "ip=3 case=DOMINANT_PART", "0 1", "2 3",
    ]
    assert not hasattr(cli, "build_parser")


# Modules that dataclasses (inspect, ast) and importlib.resources (pathlib,
# tempfile, zipfile) bring in, each several milliseconds of every start.
HEAVY_MODULES = {
    "dataclasses",
    "inspect",
    "ast",
    "importlib.resources",
    "pathlib",
    "tempfile",
    "zipfile",
}

START_UP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import isopath.cli
from isopath import base_covers
base_covers.base_cover_table()
print(*sorted(sys.modules))
"""


def test_start_up_imports_no_heavy_modules():
    # what a CLI process does before its command runs; -S keeps the site
    # module and its .pth files from importing any of these first
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_PROBE, src],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "isopath.base_covers" in loaded
    assert sorted(HEAVY_MODULES & loaded) == []
