"""Outside-in tracer: spans around the public functions of each layer.

The program is not edited.  Each public function of ``asymgeo.ratlp``,
``.polyhedron``, ``.norm``, ``.compactness`` and ``asymgeo.cli.*`` (plus the
methods ``Instance.build`` and ``RunReport.render``) is wrapped, and the
wrapper is bound under every name that held the original in every module
of the package and of the benchmark: ``from x import f`` copies the
binding, so patching only the defining module would miss most calls.

A span records its name, start, end, parent span and the instance (the
request) it belongs to.  Spans live in flat arrays in memory and are
written once, when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("ratlp", "polyhedron", "norm", "compactness", "cli")

# Vector helpers run inside every kernel loop; a span around each would
# cost more than the work, so their time stays with the calling span.
UNWRAPPED = {"rat", "as_vec", "zero_vec", "dot", "vadd", "vsub", "vneg", "vscale",
             "is_zero_vec", "primitive", "relaxed_rows"}

GROUPS = {
    "ratlp.elim": ("ratlp.rank", "ratlp.rref", "ratlp.invert", "ratlp.null_space_basis"),
    "polyhedron.redundancy": ("polyhedron.in_cone", "polyhedron.in_conv_plus_cone"),
}


def _layer(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.request_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.request = -1
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._closed_here: set = set()
        self._restore: list[tuple] = []
        self.generator_names: set[str] = set()

    # -- requests ---------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request
        self._closed_here.clear()

    # -- probes: counts taken at the boundary, from arguments and results --

    def _probe_feasible_nonneg(self, args, result):
        self.counters["ratlp.feasible_nonneg.cols"] += len(args[0][0]) if args[0] else 0

    def _probe_lp_solve(self, args, result):
        self.counters["ratlp.lp_solve.rows"] += len(args[1])

    def _probe_cone_from_rows(self, args, result):
        self.counters["polyhedron.cone_from_rows.rays_out"] += len(result[0])

    def _probe_redundancy(self, args, result):
        self.counters["polyhedron.redundancy.removed"] += bool(result)

    def _probe_closure(self, args, result):
        if args[0] in self._closed_here:
            self.counters["polyhedron.closure.repeats"] += 1
        else:
            self._closed_here.add(args[0])

    def _probe_for(self, name: str):
        return {
            "ratlp.feasible_nonneg": self._probe_feasible_nonneg,
            "ratlp.lp_solve": self._probe_lp_solve,
            "polyhedron.cone_from_rows": self._probe_cone_from_rows,
            "polyhedron.in_cone": self._probe_redundancy,
            "polyhedron.in_conv_plus_cone": self._probe_redundancy,
            "polyhedron.closure": self._probe_closure,
        }.get(name)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = self._probe_for(name)
        stack, name_of, parent, request_of = self.stack, self.name_of, self.parent, self.request_of
        start, end = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request_of.append(tracer.request)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every public layer function and rebind it everywhere."""
        import asymgeo.cli.main  # noqa: F401  (load every module of the package)
        from asymgeo.cli.suite import RunReport
        from asymgeo.compactness import Instance

        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "asymgeo" or n.startswith("asymgeo."))]
        wrapped: dict[int, object] = {}
        for mod in package:
            if mod.__name__ == "asymgeo":
                continue
            layer = _layer(mod.__name__)
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = self._wrap(name, value)
                    if mod.__name__ == "asymgeo.cli.generators":
                        self.generator_names.add(name)
        for mod in package + list(extra_modules):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])

        build = Instance.__dict__["build"]
        render = RunReport.__dict__["render"]
        self._restore.append((Instance, "build", build))
        self._restore.append((RunReport, "render", render))
        Instance.build = classmethod(self._wrap("compactness.build", build.__func__))
        RunReport.render = self._wrap("cli.render", render)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self, requests: int, traced_wall_s: float) -> dict[str, float]:
        """Per-function calls and self time, grouped metrics, layer shares."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        for sid in range(n):
            name = self.names[self.name_of[sid]]
            calls[name] += 1
            self_ns[name] += self.end[sid] - self.start[sid] - child[sid]

        def group(names):
            return sum(calls[x] for x in names), sum(self_ns[x] for x in names) / 1e9

        out: dict[str, float] = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for gname, members in list(GROUPS.items()) + [("cli.generators", sorted(self.generator_names))]:
            out[f"{gname}.calls"], out[f"{gname}.self_s"] = group(members)
        c = self.counters
        out["ratlp.feasible_nonneg.cols_mean"] = (
            c["ratlp.feasible_nonneg.cols"] / max(1, calls["ratlp.feasible_nonneg"]))
        out["ratlp.lp_solve.rows_mean"] = c["ratlp.lp_solve.rows"] / max(1, calls["ratlp.lp_solve"])
        out["polyhedron.cone_from_rows.rays_out"] = c["polyhedron.cone_from_rows.rays_out"]
        out["polyhedron.redundancy.removed_ratio"] = (
            c["polyhedron.redundancy.removed"] / max(1, out["polyhedron.redundancy.calls"]))
        out["polyhedron.closure.repeat_ratio"] = (
            c["polyhedron.closure.repeats"] / max(1, calls["polyhedron.closure"]))
        out["compactness.saturation_extreme_points.calls_per_instance"] = (
            calls["compactness.saturation_extreme_points"] / max(1, requests))
        for layer in LAYERS:
            busy = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.share"] = busy / 1e9 / traced_wall_s
        return out

    def write_spans(self, path) -> None:
        """All spans, one per line: request, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{self.request_of[sid]}\t{names[self.name_of[sid]]}\t"
                         f"{self.start[sid]}\t{self.end[sid]}\t{self.parent[sid]}\n")
