"""In-memory spans around the public functions of each forwardreg module.

The tracer wraps functions and methods from outside the package, so the
program under test is unchanged. Coarse calls (subcommands, builds, the
closed-loop runs, battery checks, flows, feedback assembly, SVDs, sweep
cells) are recorded one span each. Per-node and per-step calls (F, dF,
StateEvaluation, its dM and adjoint sweeps, solve_step, inner, solve_gram)
run up to millions of times a pass, so they are folded into their nearest
recorded ancestor as call counts, self time and inclusive time.

Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path

# battery checks: wrapped name in forwardreg.verify -> check name
VERIFY_CHECKS = {
    "estimate_alpha": "monotonicity",
    "contraction_samples": "contraction",
    "linearized_decay_samples": "linearized_decay",
    "functional_equation_residual": "functional_equation",
    "fd_check_dM": "dm_fd",
    "dissipation_constant": "dissipation",
    "uniform_coercivity_check": "uniform_coercivity",
    "_oracle_checks": "oracle",
}


class Tracer:
    """Span recorder for one traced pass of one workload."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        # recorded spans: [name, start, end, parent id, self_s, attrs]
        self.spans: list = []
        # (owner span id, name) -> [calls, self_s, incl_s, attrs]
        self.folded: dict = {}
        # open frames: [child seconds, id of the nearest recorded span]
        self._stack: list = []
        self._undo: list = []

    def wrap(self, fn, name: str, record: bool = False, count=None):
        """Return ``fn`` timed as span ``name``.

        ``count(args, result)`` returns a dict of numbers summed into the
        span's attributes; it is called only when ``fn`` returns.
        """
        stack, spans, folded = self._stack, self.spans, self.folded
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            attrs = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    attrs = count(args, out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self_s = dur - frame[0]
                if record:
                    spans[sid] = [name, t0, t1, parent, self_s, attrs or {}]
                else:
                    acc = folded.get((parent, name))
                    if acc is None:
                        acc = folded[(parent, name)] = [0, 0.0, 0.0, {}]
                    acc[0] += 1
                    acc[1] += self_s
                    acc[2] += dur
                    if attrs:
                        tot = acc[3]
                        for key, val in attrs.items():
                            tot[key] = tot.get(key, 0) + val

        return traced

    # -- installing wrappers -------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self):
        """Wrap forwardreg's public functions in every module that names them."""
        import forwardreg
        from forwardreg import cli, evolution, forwarding, regulator, spaces, verify

        mods = [forwardreg, cli, evolution, forwarding, regulator, spaces, verify]

        def function(mod, attr, name, record=True, count=None):
            orig = getattr(mod, attr)
            new = self.wrap(orig, name, record, count)
            for m in mods:
                if m.__dict__.get(attr) is orig:
                    self._set(m, attr, new)

        def method(cls, attr, name, count=None):
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name, False, count))

        def sweep_nodes(args, _):
            ev = args[0]
            return {"nodes": ev.nq, "flops": 2 * ev.nq * ev.plant.dim ** 2}

        def base_nodes(args, _):
            ev = args[0]
            return {"nodes": ev.nq, "flops": 2 * ev.nq * ev.plant.dim ** 2,
                    "linear": int(ev.nq == 0)}

        method(spaces.SpaceSpec, "inner", "spaces.inner")
        method(spaces.SpaceSpec, "solve_gram", "spaces.solve_gram")
        function(spaces, "weighted_singular_values", "spaces.svd")
        method(evolution.OperatorSolver, "solve_step", "evolution.solve_step")
        function(evolution, "flow", "evolution.flow",
                 count=lambda a, out: {"steps": len(out) - 1})
        function(evolution, "tangent_flow", "evolution.tangent_flow")
        function(evolution, "adjoint_tangent_flow", "evolution.tangent_flow")
        method(forwarding.StateEvaluation, "__init__", "forwarding.state_eval",
               base_nodes)
        method(forwarding.StateEvaluation, "dM", "forwarding.dM", sweep_nodes)
        method(forwarding.StateEvaluation, "dM_adjoint", "forwarding.adjoint",
               sweep_nodes)
        method(forwarding.StateEvaluation, "dM_adjoint_B", "forwarding.adjoint",
               sweep_nodes)
        function(forwarding, "build_forwarding", "forwarding.build")
        function(forwarding, "assemble_feedback_matrix", "forwarding.assemble",
                 count=lambda a, out: {"cols": out.shape[1]})
        function(regulator, "simulate", "regulator.simulate",
                 count=lambda a, out: {"steps": len(out) - 1})
        function(regulator, "find_equilibrium", "regulator.equilibrium",
                 count=lambda a, out: {"iterations": out[2].iterations,
                                       "unconverged": int(not out[2].converged)})
        function(regulator, "convergence_report", "regulator.report")
        function(verify, "run_battery", "verify.run_battery")
        for attr, check in VERIFY_CHECKS.items():
            self._set(verify, attr, self.wrap(getattr(verify, attr),
                                              f"verify.{check}", True))
        self._set(verify.VerificationReport, "to_json",
                  self.wrap(verify.VerificationReport.to_json, "cli.io", True))

        orig_build_plant = cli.build_plant

        def build_plant(cfg):
            plant = orig_build_plant(cfg)
            plant.F = self.wrap(plant.F, "plants.F")
            plant.dF = self.wrap(plant.dF, "plants.dF")
            return plant

        self._set(cli, "build_plant", self.wrap(build_plant, "cli.build", True))
        self._set(cli, "build_fmap", self.wrap(cli.build_fmap, "cli.build", True))
        for attr in ("load_config", "_write_csv", "_write_json"):
            self._set(cli, attr, self.wrap(getattr(cli, attr), "cli.io", True))
        for cmd in ("gains", "simulate", "verify", "sweep"):
            self._set(cli, f"cmd_{cmd}", self.wrap(getattr(cli, f"cmd_{cmd}"),
                                                   f"cli.{cmd}", True))
        self._set(cli, "_sweep_cell", self.wrap(
            cli._sweep_cell, "cli.sweep_cell", True,
            count=lambda a, row: {"error": int(math.isnan(row["drift_residual"]))}))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results ----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write one JSON line per recorded span, folded calls attached."""
        children: dict = {}
        for (owner, name), (calls, self_s, incl_s, attrs) in self.folded.items():
            children.setdefault(owner, {})[name] = {
                "calls": calls, "self_s": self_s, "incl_s": incl_s, **attrs}
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, self_s, attrs) in enumerate(self.spans):
                doc = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "workload": self.workload,
                       "run_id": self.run_id, "self_s": self_s, **attrs,
                       "folded": children.get(sid, {})}
                fh.write(json.dumps(doc) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of the pass (no trace.* entries)."""
        calls: dict = {}
        self_s: dict = {}
        incl: dict = {}
        attrs: dict = {}

        def add(name, n, s, d, extra):
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
            incl[name] = incl.get(name, 0.0) + d
            tot = attrs.setdefault(name, {})
            for key, val in extra.items():
                tot[key] = tot.get(key, 0) + val

        spans = self.spans
        for name, t0, t1, _, s, extra in spans:
            add(name, 1, s, t1 - t0, extra)
        for (_, name), (n, s, d, extra) in self.folded.items():
            add(name, n, s, d, extra)

        def parent_name(span):
            return spans[span[3]][0] if span[3] >= 0 else ""

        # battery checks are reported inclusive: a check is mostly calls into
        # other layers, so its self time would say nothing about its cost
        check_s = {c: incl.get(f"verify.{c}", 0.0) for c in VERIFY_CHECKS.values()}
        # run_battery calls simulate directly only for the global-attraction
        # spot check
        check_s["global_attraction"] = sum(
            (sp[2] - sp[1] for sp in spans
             if sp[0] == "regulator.simulate" and parent_name(sp) == "verify.run_battery"),
            0.0)
        inline = incl.get("verify.run_battery", 0.0) - sum(check_s.values())

        def cell_steps(name, key):
            return sum(sp[5].get(key, 0) for sp in spans
                       if sp[0] == name and parent_name(sp) == "cli.sweep_cell")

        resim = cell_steps("regulator.simulate", "steps")
        search = cell_steps("regulator.equilibrium", "iterations")

        ev = attrs.get("forwarding.state_eval", {})
        nodes = sum(attrs.get(k, {}).get("nodes", 0) for k in
                    ("forwarding.state_eval", "forwarding.dM", "forwarding.adjoint"))
        flops = sum(attrs.get(k, {}).get("flops", 0) for k in
                    ("forwarding.state_eval", "forwarding.dM", "forwarding.adjoint"))
        n_eval = calls.get("forwarding.state_eval", 0)
        n_nonlinear = n_eval - ev.get("linear", 0)
        kernel_s = sum(incl.get(k, 0.0) for k in
                       ("forwarding.state_eval", "forwarding.dM", "forwarding.adjoint"))

        out = {
            "forwarding.state_eval.calls": n_eval,
            "forwarding.adjoint.calls": calls.get("forwarding.adjoint", 0),
            "forwarding.dM.calls": calls.get("forwarding.dM", 0),
            "forwarding.nodes": nodes,
            "forwarding.nodes_per_eval":
                ev.get("nodes", 0) / n_nonlinear if n_nonlinear else 0.0,
            "forwarding.linear_share": ev.get("linear", 0) / n_eval if n_eval else 0.0,
            "forwarding.us_per_node": 1e6 * kernel_s / nodes if nodes else 0.0,
            "forwarding.gemv_flops": flops,
            "forwarding.assemble.cols":
                attrs.get("forwarding.assemble", {}).get("cols", 0),
            "plants.F.calls": calls.get("plants.F", 0),
            "plants.dF.calls": calls.get("plants.dF", 0),
            "evolution.solve_step.calls": calls.get("evolution.solve_step", 0),
            "evolution.flow.steps": attrs.get("evolution.flow", {}).get("steps", 0),
            "spaces.inner.calls": calls.get("spaces.inner", 0),
            "spaces.solve_gram.calls": calls.get("spaces.solve_gram", 0),
            "spaces.svd.calls": calls.get("spaces.svd", 0),
            "regulator.simulate.steps":
                attrs.get("regulator.simulate", {}).get("steps", 0),
            "regulator.equilibrium.iterations":
                attrs.get("regulator.equilibrium", {}).get("iterations", 0),
            "regulator.equilibrium.unconverged":
                attrs.get("regulator.equilibrium", {}).get("unconverged", 0),
            **{f"verify.{c}.s": s for c, s in check_s.items()},
            "verify.inline.s": inline,
            "cli.commands.s": sum(self_s.get(f"cli.{c}", 0.0)
                                  for c in ("gains", "simulate", "verify", "sweep")),
            "cli.sweep.cells": calls.get("cli.sweep_cell", 0),
            "cli.sweep.errors": attrs.get("cli.sweep_cell", {}).get("error", 0),
            "cli.sweep.resim_share": resim / (resim + search) if resim + search else 0.0,
        }
        for key in ("forwarding.state_eval", "forwarding.adjoint", "forwarding.dM",
                    "forwarding.assemble", "forwarding.build", "plants.F", "plants.dF",
                    "evolution.solve_step", "evolution.flow", "evolution.tangent_flow",
                    "spaces.inner", "spaces.solve_gram", "spaces.svd",
                    "regulator.simulate", "regulator.equilibrium", "regulator.report",
                    "cli.build", "cli.io"):
            out[f"{key}.s"] = self_s.get(key, 0.0)
        return out
