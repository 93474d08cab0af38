"""Spans around isopath's layer entry points, recorded from outside the program.

``Tracer.install`` replaces each public function in the namespace of the
module that calls it (``isopath.cli``, ``isopath.solver``,
``isopath.construct``) with a wrapper that records a span: name, start,
end (thread CPU time in ns, the clock the op times use), parent span and
op.  So the calls ``solve_min_cover`` makes to
``all_pairs_distances`` and ``enumerate_isometric_paths`` become its child
spans.  Spans stay in memory until the run writes them out.

Left unwrapped: the closed forms in ``formulas`` (O(1)), the per-vertex
coordinate helpers (wrapping them would time the wrapper), and the
``base_covers`` table load, which a CLI process pays once at start-up and
the benchmark times in fresh interpreters (``setup_s``, ``base_covers.load_s``).
"""

import time
from collections import Counter, defaultdict


def _graph_edges(counts, graph):
    counts["graph.edges"] += graph.m


def _built_paths(counts, cover):
    counts["construct.paths"] += len(cover.paths)


def _lookup(counts, _):
    counts["base_covers.lookups"] += 1


def _verified(counts, report):
    counts["cover.verify_paths"] += len(report.path_verdicts)
    counts["cover.rejected_paths"] += sum(not v.ok for v in report.path_verdicts)


def _pool(counts, pool):
    counts["solver.pool_paths"] += len(pool.paths)


def _solved(counts, result):
    counts["solver.nodes"] += result.nodes_explored
    counts["solver.solves"] += 1
    counts["solver.proven"] += bool(result.proof_of_optimality)


# module -> {function name: (span name, count hook)}
WRAPPED = {
    "cli": {
        "make_complete_multipartite": ("graph.generate", _graph_edges),
        "make_hamming": ("graph.generate", _graph_edges),
        "make_augmented_multipartite": ("graph.generate", _graph_edges),
        "parse_graph": ("graph.parse", _graph_edges),
        "all_pairs_distances": ("graph.distances", None),
        "cover_multipartite": ("construct.build", _built_paths),
        "cover_hamming2": ("construct.build", _built_paths),
        "cover_hamming3": ("construct.build", _built_paths),
        "verify_cover": ("cover.verify", _verified),
        "parse_cover": ("cover.io", None),
        "format_cover": ("cover.io", None),
        "enumerate_isometric_paths": ("solver.enumerate", _pool),
        "solve_min_cover": ("solver.search", _solved),
    },
    "solver": {
        "all_pairs_distances": ("graph.distances", None),
        "enumerate_isometric_paths": ("solver.enumerate", _pool),
    },
    "construct": {
        "base_cover_lookup": ("base_covers.lookup", _lookup),
    },
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op]
        self.counts = defaultdict(Counter)  # op -> layer counts
        self.op = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.thread_time_ns()
                stack.pop()
            if hook is not None:
                hook(self.counts[self.op], result)
            return result

        return traced

    def install(self, package):
        """Wrap the functions of WRAPPED where ``package``'s modules reference them."""
        for module_name, functions in WRAPPED.items():
            module = getattr(package, module_name)
            for attr, (name, hook) in functions.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self):
        """Seconds per span name, each span minus the time of its children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start - inner) / 1e9
        return out
